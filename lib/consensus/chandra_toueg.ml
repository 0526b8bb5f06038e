(* Chandra–Toueg rotating-coordinator consensus over <>S with a correct
   majority — the classical algorithm whose weakest-detector analysis
   (CHT [2]) the paper generalizes in Section 4.

   One instance of (strong) consensus proceeds in asynchronous rounds.  In
   round r with coordinator c = r mod n:

   - phase 1: every process sends its current estimate, stamped with the
     round in which it was last updated, to c;
   - phase 2: c, on a majority of estimates, adopts the one with the
     highest stamp and proposes it to all;
   - phase 3: a process either adopts the proposal (stamping it with r and
     acking c) or, if its <>S module suspects c, nacks and moves on; either
     way it enters round r+1;
   - phase 4: c, on a majority of acks, decides and reliably broadcasts
     the decision (eager relay on first receipt).

   Safety is the usual locking argument: a decided value was adopted by a
   majority in some round, so every later coordinator's majority of
   estimates contains it with the highest stamp.  Liveness follows from
   eventual weak accuracy: once some correct process is never suspected,
   the first round it coordinates after stabilization decides. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Ct_estimate of { round : int; value : Ec_core.Value.t; stamp : int }
  | Ct_proposal of { round : int; value : Ec_core.Value.t }
  | Ct_ack of { round : int }
  | Ct_nack of { round : int }
  | Ct_decide of Ec_core.Value.t

type Io.input += Ct_propose of Ec_core.Value.t
type Io.output += Ct_decided of Ec_core.Value.t

type t = {
  ctx : Engine.ctx;
  suspects : unit -> proc_id list;
  majority : int;
  mutable started : bool;
  mutable round : int;
  mutable estimate : Ec_core.Value.t option;
  mutable stamp : int;
  mutable awaiting_proposal : bool;
  mutable decided : Ec_core.Value.t option;
  (* Coordinator bookkeeping, per round we coordinate. *)
  estimates : (int, (proc_id * Ec_core.Value.t * int) list) Hashtbl.t;
  proposals : (int, Ec_core.Value.t) Hashtbl.t;
  acks : (int, Int.t list) Hashtbl.t;
  (* Proposals received for ANY round, adopted when we reach that round: a
     proposal is broadcast once, so a process that enters the round after
     the broadcast has passed would otherwise wait on a correct, never
     suspected coordinator forever. *)
  proposals_seen : (int, Ec_core.Value.t) Hashtbl.t;
  mutable decide_relayed : bool;
}

let coordinator t round = round mod t.ctx.Engine.n

let decide t value =
  if t.decided = None then begin
    t.decided <- Some value;
    t.ctx.Engine.output (Ct_decided value)
  end;
  if not t.decide_relayed then begin
    (* Eager relay: reliable broadcast of the decision. *)
    t.decide_relayed <- true;
    t.ctx.Engine.broadcast (Ct_decide value)
  end

(* Phase 3, adoption side: take the current round's proposal if we have
   seen it (now or earlier), ack, and move on. *)
let rec maybe_adopt t =
  if t.awaiting_proposal && t.decided = None then
    match Hashtbl.find_opt t.proposals_seen t.round with
    | None -> ()
    | Some value ->
      let round = t.round in
      t.awaiting_proposal <- false;
      t.estimate <- Some value;
      t.stamp <- round;
      t.ctx.Engine.send (coordinator t round) (Ct_ack { round });
      enter_round t (round + 1)

and enter_round t round =
  match t.estimate with
  | None -> ()
  | Some estimate ->
    t.round <- round;
    t.awaiting_proposal <- true;
    t.ctx.Engine.send (coordinator t round)
      (Ct_estimate { round; value = estimate; stamp = t.stamp });
    maybe_adopt t

let start t value =
  if not t.started then begin
    t.started <- true;
    t.estimate <- Some value;
    (* The initial estimate keeps stamp -1: it must rank strictly below a
       value adopted in round 0 (stamp 0), or the coordinator's
       highest-stamp rule cannot tell a locked round-0 value from a fresh
       one and agreement breaks. *)
    t.stamp <- -1;
    enter_round t 0
  end

(* Phase 2 at the coordinator: on a majority of estimates for a round we
   have not yet proposed in, propose the highest-stamped one. *)
let try_propose t round =
  if not (Hashtbl.mem t.proposals round) then
    match Hashtbl.find_opt t.estimates round with
    | Some received when List.length received >= t.majority ->
      let _, best, _ =
        List.fold_left
          (fun ((_, _, best_stamp) as best) ((_, _, stamp) as cand) ->
             if stamp > best_stamp then cand else best)
          (List.hd received) (List.tl received)
      in
      Hashtbl.replace t.proposals round best;
      t.ctx.Engine.broadcast (Ct_proposal { round; value = best })
    | Some _ | None -> ()

let on_message t ~src payload =
  match payload with
  | Ct_estimate { round; value; stamp } ->
    if coordinator t round = t.ctx.Engine.self then begin
      let sofar = Option.value ~default:[] (Hashtbl.find_opt t.estimates round) in
      if not (List.exists (fun (q, _, _) -> q = src) sofar) then
        Hashtbl.replace t.estimates round ((src, value, stamp) :: sofar);
      try_propose t round
    end
  | Ct_proposal { round; value } ->
    if not (Hashtbl.mem t.proposals_seen round) then
      Hashtbl.replace t.proposals_seen round value;
    maybe_adopt t
  | Ct_ack { round } ->
    if coordinator t round = t.ctx.Engine.self then begin
      let sofar = Option.value ~default:[] (Hashtbl.find_opt t.acks round) in
      if not (List.mem src sofar) then Hashtbl.replace t.acks round (src :: sofar);
      match Hashtbl.find_opt t.proposals round with
      | Some value
        when List.length (Hashtbl.find t.acks round) >= t.majority ->
        decide t value
      | Some _ | None -> ()
    end
  | Ct_nack _ -> ()
  | Ct_decide value -> decide t value
  | _ -> ()

(* Phase 3 escape hatch, evaluated on the local timeout: abandon a round
   whose coordinator is suspected. *)
let on_timer t =
  if t.awaiting_proposal && t.decided = None then begin
    let c = coordinator t t.round in
    if List.mem c (t.suspects ()) then begin
      t.awaiting_proposal <- false;
      t.ctx.Engine.send c (Ct_nack { round = t.round });
      enter_round t (t.round + 1)
    end
  end

let create (ctx : Engine.ctx) ~suspects =
  let t =
    { ctx; suspects;
      majority = (ctx.Engine.n / 2) + 1;
      started = false;
      round = 0;
      estimate = None;
      stamp = -1;
      awaiting_proposal = false;
      decided = None;
      estimates = Hashtbl.create 16;
      proposals = Hashtbl.create 16;
      acks = Hashtbl.create 16;
      proposals_seen = Hashtbl.create 16;
      decide_relayed = false }
  in
  let node =
    { Engine.on_message = (fun ~src payload -> on_message t ~src payload);
      on_timer = (fun () -> on_timer t);
      on_input = (function Ct_propose v -> start t v | _ -> ()) }
  in
  (t, node)

let () =
  Msg.register_payload_pp (fun ppf -> function
    | Ct_estimate { round; value; stamp } ->
      Fmt.pf ppf "ct-est(r%d,%a,ts%d)" round Ec_core.Value.pp value stamp; true
    | Ct_proposal { round; value } ->
      Fmt.pf ppf "ct-prop(r%d,%a)" round Ec_core.Value.pp value; true
    | Ct_ack { round } -> Fmt.pf ppf "ct-ack(r%d)" round; true
    | Ct_nack { round } -> Fmt.pf ppf "ct-nack(r%d)" round; true
    | Ct_decide value -> Fmt.pf ppf "ct-decide(%a)" Ec_core.Value.pp value; true
    | _ -> false);
  Io.register_input_pp (fun ppf -> function
    | Ct_propose v -> Fmt.pf ppf "ct-propose(%a)" Ec_core.Value.pp v; true
    | _ -> false);
  Io.register_output_pp (fun ppf -> function
    | Ct_decided v -> Fmt.pf ppf "ct-decided(%a)" Ec_core.Value.pp v; true
    | _ -> false)
