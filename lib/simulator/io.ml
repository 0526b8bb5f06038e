(* Inputs and outputs exchanged between a process and "the external world".

   Following the Jayanti–Toueg formalization used by the paper (Section 2),
   a problem is a set of pairs (H_I, H_O) of input and output histories.  The
   concrete inputs/outputs of each abstraction (broadcastETOB, proposeEC,
   DecideEC, ...) extend these two variant types in the library that defines
   the abstraction, so that the simulation engine and the trace recorder stay
   agnostic of any particular protocol. *)

type input = ..
type output = ..

(* Generic constructors useful for tests and simple examples. *)
type input += Tick_input | String_input of string
type output += String_output of string

(* Decimal text of an int, as [string_of_int] writes it.  A non-negative
   int, which is every time, process id and sequence number a run makes,
   is written digit by digit into the buffer: [string_of_int] goes
   through the C formatter and a fresh string for each number. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n = if n < 0 then Buffer.add_string b (string_of_int n) else add_digits b n

let int_width n =
  let rec go n w = if n > -10 && n < 10 then w else go (n / 10) (w + 1) in
  go n (if n < 0 then 2 else 1)

(* Text writers: the one printer of each constructor.  A library registers
   a writer for its own inputs, and a maker of a writer for its own
   outputs.  Each rendering runs every maker once, so an output writer's
   state (the text it wrote last, per process) lives only as long as the
   rendering, and renderings on different domains share nothing. *)
type text_writer = Buffer.t -> Types.proc_id -> output -> bool

let input_writers : (Buffer.t -> input -> bool) list ref = ref []
let text_writer_makers : (unit -> text_writer) list ref = ref []

let register_input_text w = input_writers := w :: !input_writers
let register_output_text mk = text_writer_makers := mk :: !text_writer_makers

let add_input b = function
  | Tick_input -> Buffer.add_string b "tick"
  | String_input s -> Buffer.add_string b "in:"; Buffer.add_string b s
  | i ->
    if not (List.exists (fun w -> w b i) !input_writers) then
      Buffer.add_string b "<input>"

let output_text_writer () =
  let writers = List.map (fun mk -> mk ()) !text_writer_makers in
  fun b proc -> function
    | String_output s -> Buffer.add_string b "out:"; Buffer.add_string b s
    | o ->
      if not (List.exists (fun w -> w b proc o) writers) then
        Buffer.add_string b "<output>"
