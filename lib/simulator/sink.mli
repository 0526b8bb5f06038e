(** Trace sinks: the engine's observability abstraction.

    The engine emits every observable event of a run into exactly one sink.
    The default is {!recorder} over a {!Trace.t} (full input/output history,
    unchanged [Properties] checkers); {!counters} keeps O(1) scalars plus
    per-process send-to-deliver latency samples for cheap large sweeps;
    {!jsonl} streams events for offline analysis.  A sink is private to one
    run and is called from a single domain in deterministic event order. *)

open Types

type t = {
  on_input : at:time -> proc:proc_id -> Io.input -> unit;
  on_output : at:time -> proc:proc_id -> Io.output -> unit;
  on_send : Msg.envelope -> unit;
  on_deliver : at:time -> Msg.envelope -> unit;
  on_drop : at:time -> Msg.envelope -> unit;
  on_step : at:time -> proc:proc_id -> unit;
  on_crash : at:time -> proc:proc_id -> unit;
      (** the process enters a downtime window of the failure pattern *)
  on_recover : at:time -> proc:proc_id -> unit;
      (** the engine restarted the process (see {!Engine.run_with}) *)
}

val null : t
(** Observes nothing. *)

val tee : t -> t -> t
(** [tee a b] forwards every event to [a] then [b]. *)

val on_every : (unit -> unit) -> t
(** [on_every f] calls [f ()] once per observed event, ignoring payloads.
    Tee it in front of a recorder to give a watchdog (event budget,
    wall-clock deadline) a chance to raise out of a wedged run at every
    engine-observable event. *)

val recorder : Trace.t -> t
(** The historical behaviour: record entries and counters into [trace].
    Crash/recover marks are ignored, so traces of crash-stop runs are
    byte-identical to pre-recovery builds. *)

(** {2 Counters-only sink} *)

type counters
(** Scalar counters plus per-process latency samples; no per-entry
    allocation beyond one unboxed int per delivery. *)

val counters : n:int -> counters
val counters_sink : counters -> t

val sent : counters -> int
val delivered : counters -> int
val dropped : counters -> int
val steps : counters -> int
val outputs : counters -> int

val latencies : counters -> proc_id -> int array
(** Send-to-deliver latencies, in ticks, of messages delivered to [p], in
    delivery order. *)

val all_latencies : counters -> int array

type latency_summary =
  { count : int; p50 : int; p95 : int; p99 : int; p999 : int; max : int }

val nearest_rank : int array -> permille:int -> int
(** [nearest_rank sorted ~permille] is the deterministic nearest-rank
    quantile of an ascending-sorted, non-empty sample: the value at 1-based
    rank [ceil(permille/1000 * len)], computed entirely in integers (p50 =
    500 permille, p999 = 999 permille).  Raises [Invalid_argument] on an
    empty sample or a permille outside [0, 1000]. *)

val summarize : int array -> latency_summary option
(** Nearest-rank summary of an arbitrary (unsorted) sample; [None] when
    empty.  Every quantile is a member of the sample. *)

val latency_summary : counters -> proc_id -> latency_summary option
val pp_latency_summary : Format.formatter -> latency_summary -> unit

(** {2 JSONL streaming sink} *)

val jsonl : emit:(string -> unit) -> t
(** One JSON object per event, passed to [emit] without a trailing newline.
    An input's or an output's [v] is its text in {!Trace.text}, after the
    entry's ["[time] p <- "] or ["[time] p -> "] prefix, written by the
    sink's own {!Io} writers; message payloads stay opaque and are
    identified by uid/src/dst/times. *)

val json_escape : string -> string

val with_jsonl : string -> (t -> 'a) -> 'a
(** [with_jsonl path f] opens [path], passes [f] a {!jsonl} sink writing
    one event per line, and flushes and closes the channel whether [f]
    returns or raises (bracket style). *)

(** {2 Binary framed sink} *)

val binary : emit:(string -> unit) -> t
(** The binary counterpart of {!jsonl}: one [Persist.Frame] event record
    (framed, CRC-checksummed bytes) per event, passed to [emit].  The
    caller owns the file header ({!Persist.Frame.header}); decoding the
    stream and exporting with [Persist.Frame.to_jsonl] reproduces the
    {!jsonl} stream byte for byte. *)

val with_binary : string -> (t -> 'a) -> 'a
(** [with_binary path f] opens [path] in binary mode, writes the format
    header, passes [f] a {!binary} sink, and flushes and closes the
    channel whether [f] returns or raises (bracket style). *)
