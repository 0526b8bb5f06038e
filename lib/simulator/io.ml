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

let pp_input_hook : (Format.formatter -> input -> bool) list ref = ref []
let pp_output_hook : (Format.formatter -> output -> bool) list ref = ref []

(* Protocol libraries register printers for their own constructors; the
   generic printers below then work for any extension. *)
let register_input_pp f = pp_input_hook := f :: !pp_input_hook
let register_output_pp f = pp_output_hook := f :: !pp_output_hook

let pp_with hooks fallback ppf v =
  let rec try_hooks = function
    | [] -> Fmt.string ppf fallback
    | h :: rest -> if h ppf v then () else try_hooks rest
  in
  try_hooks hooks

let pp_input ppf = function
  | Tick_input -> Fmt.string ppf "tick"
  | String_input s -> Fmt.pf ppf "in:%s" s
  | i -> pp_with !pp_input_hook "<input>" ppf i

let pp_output ppf = function
  | String_output s -> Fmt.pf ppf "out:%s" s
  | o -> pp_with !pp_output_hook "<output>" ppf o

(* Direct text writers, for the outputs that carry a whole revision of a
   sequence.  A library registers a maker; each rendering of a trace makes
   its own writers, so a writer's state (the text it wrote last, per
   process) lives only as long as the rendering, and renderings on
   different domains share nothing. *)
type text_writer = Buffer.t -> Types.proc_id -> output -> bool

let text_writer_makers : (unit -> text_writer) list ref = ref []

let register_output_text mk = text_writer_makers := mk :: !text_writer_makers

let output_text_writer () =
  let writers = List.map (fun mk -> mk ()) !text_writer_makers in
  fun b proc o ->
    let rec go = function [] -> false | w :: ws -> w b proc o || go ws in
    go writers
