(** One experiment record: the [BENCH_<name>.json] file that bench
    experiments and [ecsim service] write, in one schema:
    [{experiment, params, rows, gates, pass, gc_minor_words, gc_major_words}].
    A gate is a name, a measured value, a comparison, a bound and its
    verdict; [pass] holds when every gate does. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val render : json -> string
(** One-line JSON text.  Strings go through {!Persist.Frame.json_escape};
    a [Float] that is integral or at least 10{^4} in magnitude prints as
    an integer, any other finite one with four decimals, a non-finite one
    as [null]. *)

type op = Le | Lt | Ge | Gt | Eq
type gate = { gate : string; measured : json; op : op; bound : json; pass : bool }

val gate : string -> json -> op -> json -> gate
(** [gate name measured op bound] holds when [measured op bound] does.
    [Int] and [Float] compare as numbers; other values only by [Eq], and
    an ordered comparison on one fails. *)

type t = {
  name : string;  (** the file is [BENCH_<name>.json] *)
  experiment : string;
  params : (string * json) list;
  rows : json list;
  gates : gate list;
  gc_minor_words : float;
  gc_major_words : float;
}

val since : unit -> Gc.stat
(** The GC counters at the start of an experiment, exact: a minor
    collection first, which in OCaml 5 stops every domain and counts
    what each has allocated, then [Gc.quick_stat ()]. *)

val make :
  name:string -> experiment:string -> since:Gc.stat ->
  params:(string * json) list -> rows:json list -> gate list -> t
(** The record of an experiment that began when {!since} read [since];
    its GC deltas run from there to this call, which reads the counters
    the same way, so they count every word allocated in between, on any
    domain. *)

val write : string -> t -> unit
(** [write dir t] prints each gate, writes [dir/BENCH_<name>.json] and
    only then, if a gate does not hold, fails with [Failure] naming every
    such gate, so the file on disk is always the run's own. *)
