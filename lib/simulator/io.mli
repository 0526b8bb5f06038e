(** Inputs and outputs exchanged between a process and the external world.

    A problem, in the sense of Section 2 of the paper, is a set of pairs
    [(H_I, H_O)] of input and output histories.  Each abstraction extends
    the two variant types below with its own operations (e.g.
    [broadcastETOB], [proposeEC]) and responses (e.g. [DecideEC]). *)

type input = ..
type output = ..

type input += Tick_input | String_input of string
type output += String_output of string

val register_input_pp : (Format.formatter -> input -> bool) -> unit
(** Register a printer for an extension of {!input}.  The printer returns
    [true] if it handled the value. *)

val register_output_pp : (Format.formatter -> output -> bool) -> unit

val pp_input : Format.formatter -> input -> unit
val pp_output : Format.formatter -> output -> unit
(** Print with the printer registered for the constructor.  The trace
    text ({!Trace.text}) prints an output that has no text writer this
    way, inside a vertical box of its own at column 0, and a text writer
    must give the bytes this printer gives there. *)

type text_writer = Buffer.t -> Types.proc_id -> output -> bool
(** [w b proc o] appends the text {!pp_output} prints for [o], output by
    process [proc], inside a vertical box opened at column 0, and returns
    [true]; or it returns [false], writing nothing, when [o] is not an
    output it writes. *)

val register_output_text : (unit -> text_writer) -> unit
(** Register a writer for an extension of {!output}.  The maker runs once
    per rendering of a trace, so the writer may keep state across the
    outputs of that rendering, and of that rendering only. *)

val output_text_writer : unit -> text_writer
(** The writers of one rendering: each registered maker run once, tried
    in turn. *)
