(** Declarative client-population spec for the closed-loop service layer
    (DESIGN.md §16).

    Pure data plus its spec-file text form and QCheck generators; the
    interpreter — arrival processes, retry/backoff loops, admission
    control, circuit breakers — lives in [lib/service].  The {!Builder}
    carries one optional spec per run as a [service ...] line. *)

type arrival =
  | Closed of { think : int }
      (** Closed loop: after each completion, think for [~think] ticks
          (uniform jitter around the mean) before the next request. *)
  | Open_loop of { gap : int }
      (** Paced arrivals roughly every [gap] ticks, independent of
          completions (collapses to back-to-back when the loop lags). *)
  | Bursty of { burst : int; gap : int }
      (** [burst] back-to-back requests, then an idle [gap]. *)

type t = {
  clients : int;  (** client processes appended after the replicas *)
  arrival : arrival;
  keys : int;  (** distinct non-hot keys *)
  skew_pct : int;  (** percentage of requests hitting the one hot key *)
  write_pct : int;  (** percentage of requests that are writes *)
  req_deadline : int;  (** per-attempt timeout, in ticks *)
  retries : int;  (** retry budget per logical request *)
  backoff_base : int;  (** capped exponential backoff, base ticks *)
  backoff_cap : int;
  jitter_pct : int;  (** seeded jitter added to each backoff, in percent *)
  queue_limit : int;  (** per-replica admission: max watched writes *)
  breaker_k : int;  (** consecutive strong failures that open the breaker *)
  breaker_cooldown : int;  (** ticks before a half-open probe *)
  strong : bool;  (** start on the strong (committed-prefix) path *)
  migrate_after : int;  (** consecutive dead attempts before migrating *)
  window : int;  (** availability window, in ticks *)
}

val default : t

val validate : t -> (t, string) result
(** Range checks; every constructor path below yields a valid spec. *)

val to_string : t -> string
(** One line of [k=v] fields, parseable by {!of_fields};
    [of_fields (fields (to_string t)) = Ok t]. *)

val of_fields : (string * string) list -> (t, string) result
(** Fold [k=v] fields over {!default}; [Error] names the offending field.
    The caller (Builder) prefixes the line number. *)

val arrival_gen : arrival QCheck.Gen.t
val gen : t QCheck.Gen.t
(** Always-valid specs over the small ranges the smoke gate exercises. *)

val arbitrary : t QCheck.arbitrary
