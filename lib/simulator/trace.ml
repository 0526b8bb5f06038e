(* Run traces.

   A trace is the observable part of a run R = (F, H, H_I, H_O, S, T): the
   input history, the output history and bookkeeping counters.  All property
   checkers in [Ec_core.Properties] and all benchmark metrics are functions
   of a trace, so that correctness is judged only on externally visible
   behaviour, exactly as the paper's problem definitions do. *)

open Types

type entry =
  | In of { t : time; proc : proc_id; input : Io.input }
  | Out of { t : time; proc : proc_id; output : Io.output }

type t = {
  n : int;
  mutable rev_entries : entry list;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable steps : int;
  mutable last_time : time;
}

let create ~n =
  { n; rev_entries = []; sent = 0; delivered = 0; dropped = 0; steps = 0; last_time = 0 }

let touch_time t time = if time > t.last_time then t.last_time <- time

let record_input t ~time ~proc input =
  touch_time t time;
  t.rev_entries <- In { t = time; proc; input } :: t.rev_entries

let record_output t ~time ~proc output =
  touch_time t time;
  t.rev_entries <- Out { t = time; proc; output } :: t.rev_entries

let count_sent t = t.sent <- t.sent + 1
let count_delivered t = t.delivered <- t.delivered + 1
let count_dropped t = t.dropped <- t.dropped + 1
let count_step t = t.steps <- t.steps + 1

let entries t = List.rev t.rev_entries
let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let steps t = t.steps
let last_time t = t.last_time

let outputs t =
  List.filter_map
    (function Out { t; proc; output } -> Some (t, proc, output) | In _ -> None)
    (entries t)

let inputs t =
  List.filter_map
    (function In { t; proc; input } -> Some (t, proc, input) | Out _ -> None)
    (entries t)

(* Consing while walking the newest-first entries leaves each process's
   values oldest-first. *)
let series t keep =
  let per_proc = Array.make t.n [] in
  List.iter
    (function
      | Out { t = time; proc; output } ->
        (match keep output with
         | Some v -> per_proc.(proc) <- (time, v) :: per_proc.(proc)
         | None -> ())
      | In _ -> ())
    t.rev_entries;
  per_proc

let pp_entry ppf = function
  | In { t; proc; input } ->
    Fmt.pf ppf "[%4d] %a <- %a" t pp_proc proc Io.pp_input input
  | Out { t; proc; output } ->
    Fmt.pf ppf "[%4d] %a -> %a" t pp_proc proc Io.pp_output output

(* The trace text is one vertical box opened at column 0: entries one to
   a line, then the counters, and every break hint inside an entry is a
   newline.  An output with a direct writer ([Io.register_output_text])
   is written into the buffer after its "[time] p -> " prefix.  Every
   other entry goes through one formatter over the same buffer, in a
   vertical box of its own at column 0, flushed before the next entry:
   the layout it has in the whole box, as every entry starts a line. *)
let add_out_prefix b time proc =
  let t = string_of_int time in
  Buffer.add_char b '[';
  for _ = String.length t to 3 do Buffer.add_char b ' ' done;
  Buffer.add_string b t;
  Buffer.add_string b "] p";
  Buffer.add_string b (string_of_int proc);
  Buffer.add_string b " -> "

let text t =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  let write = Io.output_text_writer () in
  let entry e =
    let direct =
      match e with
      | Out { t = time; proc; output } ->
        let mark = Buffer.length b in
        add_out_prefix b time proc;
        write b proc output || (Buffer.truncate b mark; false)
      | In _ -> false
    in
    if not direct then Format.fprintf ppf "@[<v>%a@]@?" pp_entry e
  in
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char b '\n';
       entry e)
    (entries t);
  Printf.bprintf b "\n(sent=%d delivered=%d dropped=%d steps=%d end=%d)" t.sent
    t.delivered t.dropped t.steps t.last_time;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (text t)

let digest t = Digest.to_hex (Digest.string (text t))
