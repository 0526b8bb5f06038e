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

(* The text of an entry: its "[time] p <- " or "[time] p -> " prefix,
   then what the input's or the output's writer ([Io]) writes. *)
let add_entry write b e =
  let prefix time proc arrow =
    Buffer.add_char b '[';
    for _ = Io.int_width time to 3 do Buffer.add_char b ' ' done;
    Io.add_int b time;
    Buffer.add_string b "] p";
    Io.add_int b proc;
    Buffer.add_string b arrow
  in
  match e with
  | In { t; proc; input } -> prefix t proc " <- "; Io.add_input b input
  | Out { t; proc; output } -> prefix t proc " -> "; write b proc output

let pp_entry ppf e =
  let b = Buffer.create 64 in
  add_entry (Io.output_text_writer ()) b e;
  Format.pp_print_string ppf (Buffer.contents b)

(* One rendering: one set of output writers for the whole trace, so a
   revision of d_i is written as its predecessor's text plus what is new
   ([Dseq.write]).  The text goes to [flush] in blocks: the buffer is
   handed over and cleared once it holds [block] bytes or more after an
   entry, and handed over once more at the end, so a rendering holds a
   block and the entry that fills it, never the whole text. *)
let block = 4096

let render t flush =
  let b = Buffer.create block in
  let write = Io.output_text_writer () in
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char b '\n';
       add_entry write b e;
       if Buffer.length b >= block then (flush b; Buffer.clear b))
    (entries t);
  Printf.bprintf b "\n(sent=%d delivered=%d dropped=%d steps=%d end=%d)" t.sent
    t.delivered t.dropped t.steps t.last_time;
  flush b

let text t =
  let out = Buffer.create 1024 in
  render t (Buffer.add_buffer out);
  Buffer.contents out

let pp ppf t = Format.pp_print_string ppf (text t)

(* The runtime's incremental MD5 (trace_md5.c): the context is opaque
   bytes, and [md5_update ctx b len] hashes [b]'s first [len] bytes. *)
external md5_init : unit -> Bytes.t = "ecsim_md5_init"
external md5_update : Bytes.t -> Bytes.t -> int -> unit = "ecsim_md5_update" [@@noalloc]
external md5_final : Bytes.t -> string = "ecsim_md5_final"

(* Each flushed buffer is copied through one reused block into the hash,
   so the digest is [Digest.string (text t)] without the text. *)
let digest t =
  let ctx = md5_init () and bytes = Bytes.create block in
  let hash b =
    let len = Buffer.length b in
    let rec go off =
      if off < len then begin
        let k = Int.min block (len - off) in
        Buffer.blit b off bytes 0 k;
        md5_update ctx bytes k;
        go (off + k)
      end
    in
    go 0
  in
  render t hash;
  Digest.to_hex (md5_final ctx)
