(* Client sessions and the classical session guarantees.

   Eventual consistency is specified here (as in the paper) on the
   replicas' delivered sequences; what a CLIENT experiences is usually
   phrased as session guarantees (Terry et al.): read-your-writes and
   monotonic reads.  This module runs a session client against a local
   replica view and counts guarantee violations over the run — zero after
   the broadcast layer stabilizes, measurably positive before, and a
   different trade-off for the speculative vs the committed view
   (experiment E14).

   Protocol of a session: client c, pinned to replica p, writes the key
   "s<c>" with strictly increasing integer values and reads it back
   between writes.  With per-session keys:
   - a READ-YOUR-WRITES violation is a read returning a value smaller than
     the session's last written value (or missing entirely);
   - a MONOTONIC-READS violation is a read returning a value smaller than
     a previous read of the session. *)

open Simulator
open Simulator.Types

type Io.input += Session_step | Session_step_for of int
type Io.output +=
  | Session_write of { session : int; value : int }
  | Session_read of { session : int; view : string; value : int option }

type view = { v_name : string; v_lookup : unit -> string option }

type t = {
  ctx : Engine.ctx;
  session : int;
  key : string;
  views : view list;
  submit : Command.t -> unit;
  mutable written : int;
}

let key_of session = Printf.sprintf "s%d" session

(* One session step: read every view, then write the next value. *)
let step t =
  List.iter
    (fun view ->
       let value = Option.bind (view.v_lookup ()) int_of_string_opt in
       t.ctx.Engine.output
         (Session_read { session = t.session; view = view.v_name; value }))
    t.views;
  t.written <- t.written + 1;
  t.ctx.Engine.output (Session_write { session = t.session; value = t.written });
  t.submit (Command.put t.key (string_of_int t.written))

(* [resume_at] hands a migrated session its pre-crash write counter: a
   correct migration resumes the monotone value stream, a naive one
   restarts at 0 and the guarantee checkers flag every re-written value. *)
let create ?(resume_at = 0) (ctx : Engine.ctx) ~session ~views ~submit =
  let t =
    { ctx; session; key = key_of session; views; submit; written = resume_at }
  in
  let node =
    { Engine.idle_node with
      on_input = (function
        | Session_step -> step t
        | Session_step_for s when s = session -> step t
        | _ -> ()) }
  in
  (t, node)

(* ------------------------------------------------------------------ *)
(* Trace analysis                                                      *)
(* ------------------------------------------------------------------ *)

type tally = {
  reads : int;
  ryw_violations : int;  (* read-your-writes *)
  mr_violations : int;  (* monotonic reads *)
  last_violation : time;  (* 0 if none *)
}

(* Violations for one (session, view) stream. *)
let tally_of_trace trace ~session ~view =
  let reads = ref 0 and ryw = ref 0 and mr = ref 0 and last = ref 0 in
  let written = ref 0 and last_read = ref 0 in
  List.iter
    (fun (t, _, o) ->
       match o with
       | Session_write { session = s; value } when s = session -> written := value
       | Session_read { session = s; view = v; value } when s = session && v = view ->
         incr reads;
         let seen = Option.value ~default:0 value in
         if seen < !written then begin incr ryw; last := max !last t end;
         if seen < !last_read then begin incr mr; last := max !last t end;
         last_read := max !last_read seen
       | _ -> ())
    (Trace.outputs trace);
  { reads = !reads; ryw_violations = !ryw; mr_violations = !mr;
    last_violation = !last }

let pp_tally ppf t =
  Fmt.pf ppf "reads=%d ryw=%d mr=%d last@%d" t.reads t.ryw_violations
    t.mr_violations t.last_violation

let () =
  Io.register_input_text (fun b -> function
    | Session_step -> Buffer.add_string b "session-step"; true
    | Session_step_for s -> Printf.bprintf b "session-step(s%d)" s; true
    | _ -> false);
  Io.register_output_text (fun () b _ -> function
    | Session_write { session; value } ->
      Printf.bprintf b "s%d writes %d" session value; true
    | Session_read { session; view; value } ->
      Printf.bprintf b "s%d reads[%s] %s" session view
        (match value with Some v -> string_of_int v | None -> "-");
      true
    | _ -> false)
