(** Run traces: the observable input/output histories of a simulated run.

    All property checkers and benchmark metrics are functions of a trace, so
    correctness is judged only on externally visible behaviour, as in the
    paper's problem definitions. *)

open Types

type entry =
  | In of { t : time; proc : proc_id; input : Io.input }
  | Out of { t : time; proc : proc_id; output : Io.output }

type t

val create : n:int -> t

val record_input : t -> time:time -> proc:proc_id -> Io.input -> unit
val record_output : t -> time:time -> proc:proc_id -> Io.output -> unit

val count_sent : t -> unit
val count_delivered : t -> unit
val count_dropped : t -> unit
val count_step : t -> unit

val entries : t -> entry list
(** All entries in chronological order. *)

val outputs : t -> (time * proc_id * Io.output) list
val inputs : t -> (time * proc_id * Io.input) list

val series : t -> (Io.output -> 'a option) -> (time * 'a) list array
(** [series t keep] is, per process, the chronological values [keep]
    returns for that process's outputs, each with its time; outputs [keep]
    maps to [None] are skipped.  The array has one cell per process of the
    run ([create]'s [n]).  [keep] is applied newest output first. *)

val sent : t -> int
(** Total messages sent. *)

val delivered : t -> int
val dropped : t -> int
(** Messages addressed to already-crashed processes. *)

val steps : t -> int
(** Total automaton steps executed. *)

val last_time : t -> time

val pp_entry : Format.formatter -> entry -> unit
(** The entry's lines in {!text}: its ["[time] p <- "] or ["[time] p -> "]
    prefix, then its input's or output's text ({!Io}), printed as one
    string.  Each call writes a revision of a sequence whole. *)

val text : t -> string
(** The trace as text: one entry per line, as {!pp_entry} prints it, then
    the counters.  One set of {!Io} output writers serves the whole
    rendering, so a revision of a sequence is written as its
    predecessor's text plus what is new. *)

val pp : Format.formatter -> t -> unit
(** Prints {!text}.  It assumes the formatter is at column 0, as it is
    for every caller: the text does not follow an indentation. *)

val digest : t -> string
(** MD5 hex of {!text}: the determinism digest of a run.  The text is
    rendered as {!text} renders it, in blocks of 4 KB and the entry that
    fills one, each hashed as it is written, so the whole text is never
    held. *)
