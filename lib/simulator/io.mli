(** Inputs and outputs exchanged between a process and the external world.

    A problem, in the sense of Section 2 of the paper, is a set of pairs
    [(H_I, H_O)] of input and output histories.  Each abstraction extends
    the two variant types below with its own operations (e.g.
    [broadcastETOB], [proposeEC]) and responses (e.g. [DecideEC]). *)

type input = ..
type output = ..

type input += Tick_input | String_input of string
type output += String_output of string

(** {2 Text}

    Every constructor has one printer, a writer into a [Buffer.t]: the
    text of the entry in {!Trace.text}, in {!Trace.pp_entry} and in the
    [v] field of the streaming sinks.  A dependency break inside it is a
    newline. *)

val add_int : Buffer.t -> int -> unit
(** Append [n] in decimal, the text of [string_of_int n].  A non-negative
    [n] is written digit by digit, without the C formatter or a fresh
    string. *)

val int_width : int -> int
(** The length of [n]'s decimal text, sign included. *)

val register_input_text : (Buffer.t -> input -> bool) -> unit
(** Register the writer of some extensions of {!input}.  It appends the
    text of an input it writes and returns [true], or returns [false],
    writing nothing. *)

val add_input : Buffer.t -> input -> unit
(** Append [i]'s text: ["tick"], ["in:<s>"], the registered writer's
    text, or ["<input>"] when no writer takes [i]. *)

type text_writer = Buffer.t -> Types.proc_id -> output -> bool
(** [w b proc o] appends the text of [o], output by process [proc], and
    returns [true]; or it returns [false], writing nothing, when [o] is
    not an output it writes. *)

val register_output_text : (unit -> text_writer) -> unit
(** Register a writer for some extensions of {!output}.  The maker runs
    once per rendering, so the writer may keep state across the outputs
    of that rendering, and of that rendering only. *)

val output_text_writer : unit -> Buffer.t -> Types.proc_id -> output -> unit
(** The output writer of one rendering: each registered maker run once,
    tried in turn after ["out:<s>"]; ["<output>"] when none takes the
    output. *)
