(* The eventual total order broadcast (ETOB) abstraction: interface
   conventions (Section 3).

   ETOB maintains at each process p_i an output variable d_i, the sequence
   of messages delivered so far.  Implementations record the whole current
   value of d_i on every change, so the trace contains the full output
   history d_i(t) needed by the checkers (stability is a statement about
   *revisions* of d_i, which incremental delivery events could not express).
   A revision is a [Dseq.t], so one that extends its predecessor shares it.

   In every admissible run ETOB satisfies TOB-Validity, TOB-No-creation,
   TOB-No-duplication and TOB-Agreement, plus ETOB-Stability and
   ETOB-Total-order from some unknown time tau on.  Strong TOB is the tau=0
   case. *)

open Simulator

type Io.input += Broadcast_etob of App_msg.t

type Io.output +=
  | Etob_broadcast of App_msg.t
      (* Recorded on every broadcast: the input history for the checkers. *)
  | Etob_deliver of Dseq.t
      (* The new value of d_i. *)

type service = {
  broadcast : App_msg.t -> unit;
  current : unit -> Dseq.t;  (* d_i now *)
  on_deliver : (Dseq.t -> unit) -> unit;
  fresh_msg : ?tag:string -> unit -> App_msg.t;
  (* Allocate the next message of this process, with causal dependencies
     C(m) = {last own broadcast} U {last element of d_i}: both are genuine
     happens-before predecessors (conditions (1) and (2) of the paper's
     causal-dependency definition). *)
}

type backend = {
  ctx : Engine.ctx;
  listeners : Dseq.t Listeners.t;
  mutable current : Dseq.t;
  mutable next_sn : int;
  mutable last_own : App_msg.id option;
}

let backend ctx =
  { ctx; listeners = Listeners.create (); current = Dseq.empty; next_sn = 0;
    last_own = None }

let ctx_of backend = backend.ctx
let current_of backend = backend.current

let record_broadcast backend m =
  backend.last_own <- Some (App_msg.id m);
  backend.ctx.Engine.output (Etob_broadcast m)

(* Recovery path (see Recoverable): reinstate the replayed allocation
   state without emitting outputs or firing listeners — the caller
   announces the restored d_i afterwards. *)
let restore_backend backend ~next_sn ~last_own =
  backend.next_sn <- next_sn;
  backend.last_own <- last_own

let set_delivered backend seq =
  backend.current <- seq;
  backend.ctx.Engine.output (Etob_deliver seq);
  Listeners.fire backend.listeners seq

let alloc_msg backend ?(tag = "") () =
  let sn = backend.next_sn in
  backend.next_sn <- sn + 1;
  let last_delivered =
    match Dseq.last backend.current with Some m -> [ App_msg.id m ] | None -> []
  in
  let deps =
    match backend.last_own with
    | None -> last_delivered
    | Some own -> own :: last_delivered
  in
  App_msg.make ~origin:backend.ctx.Engine.self ~sn ~tag ~deps ()

let service_of backend ~broadcast =
  { broadcast;
    current = (fun () -> backend.current);
    on_deliver = Listeners.register backend.listeners;
    fresh_msg = (fun ?tag () -> alloc_msg backend ?tag ()) }

let () =
  Io.register_input_text (fun b -> function
    | Broadcast_etob m -> Printf.bprintf b "broadcastETOB(%a)" App_msg.add_text m; true
    | _ -> false);
  Io.register_output_text (fun () ->
    let w = Dseq.writer () in
    fun b proc -> function
      | Etob_broadcast m -> Printf.bprintf b "etob-bcast(%a)" App_msg.add_text m; true
      | Etob_deliver seq -> Buffer.add_string b "d_i:="; Dseq.write w b proc seq; true
      | _ -> false)
