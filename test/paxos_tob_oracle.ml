(* Test oracle: the Paxos baseline as it was written before its
   bookkeeping became incremental.  Every leader timer rebuilds the chosen
   ids from every chosen slot and filters every request ever received;
   [votes], [chosen] and [pending] are never pruned.  test_consensus runs
   it beside [Consensus.Paxos_tob] on random adversity plans and requires
   identical traces.  Only the payload constructors are renamed (traces
   record inputs and outputs, never payloads). *)

open Simulator
open Simulator.Types
open Ec_core

type Msg.payload +=
  | Oracle_req of App_msg.t
  | Oracle_prepare of { ballot : int }
  | Oracle_promise of { ballot : int; accepted : (int * int * App_msg.t list) list }
  | Oracle_accept of { ballot : int; slot : int; batch : App_msg.t list }
  | Oracle_accepted of { ballot : int; slot : int; batch : App_msg.t list }

module Msg_set = Set.Make (App_msg)
module Int_set = Set.Make (Int)

type t = {
  backend : Etob_intf.backend;
  omega : unit -> proc_id;
  majority : int;
  (* Acceptor state. *)
  mutable promised : int;
  acceptor_log : (int, int * App_msg.t list) Hashtbl.t;  (* slot -> ballot, batch *)
  (* Leader state. *)
  mutable ballot : int;          (* my current ballot (when campaigning/leading) *)
  mutable leading : bool;
  mutable campaigning : bool;
  mutable promises : (proc_id * (int * int * App_msg.t list) list) list;
  mutable next_slot : int;
  mutable in_flight : int option;
  mutable pending : Msg_set.t;
  (* Learner state. *)
  votes : (int * int, Int_set.t * App_msg.t list) Hashtbl.t;  (* slot,ballot -> voters,batch *)
  chosen : (int, App_msg.t list) Hashtbl.t;
  mutable delivered_upto : int;  (* next slot to deliver *)
  mutable delivered_ids : App_msg.Id_set.t;
}

let ctx t = Etob_intf.ctx_of t.backend
let self t = (ctx t).Engine.self

(* Ballots are globally unique and proposer-identifying: round * n + self. *)
let next_ballot t above =
  let n = (ctx t).Engine.n in
  let round = (max above t.ballot / n) + 1 in
  (round * n) + self t

(* Bindings of a slot-keyed table in increasing slot order: every
   iteration that feeds sends or message contents goes through this, so
   wire-visible order never depends on hash order. *)
let sorted_bindings tbl =
  (* detlint: sorted — accumulation order is discarded by the slot sort below *)
  Hashtbl.fold (fun slot v acc -> (slot, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let chosen_ids t =
  (* detlint: sorted — set union is order-insensitive *)
  Hashtbl.fold
    (fun _ batch acc ->
       List.fold_left (fun acc m -> App_msg.Id_set.add (App_msg.id m) acc) acc batch)
    t.chosen App_msg.Id_set.empty

(* Deliver every contiguously chosen slot, skipping messages already
   delivered through an earlier slot (a message can be re-proposed across a
   leader change and appear in two batches). *)
let rec try_deliver t =
  match Hashtbl.find_opt t.chosen t.delivered_upto with
  | None -> ()
  | Some batch ->
    t.delivered_upto <- t.delivered_upto + 1;
    let fresh =
      List.filter (fun m -> not (App_msg.Id_set.mem (App_msg.id m) t.delivered_ids)) batch
    in
    if fresh <> [] then begin
      t.delivered_ids <-
        List.fold_left (fun acc m -> App_msg.Id_set.add (App_msg.id m) acc)
          t.delivered_ids fresh;
      Etob_intf.set_delivered t.backend
        (Dseq.append (Etob_intf.current_of t.backend) fresh)
    end;
    try_deliver t

let record_vote t ~voter ~ballot ~slot ~batch =
  let key = (slot, ballot) in
  let voters, batch =
    match Hashtbl.find_opt t.votes key with
    | None -> (Int_set.singleton voter, batch)
    | Some (vs, b) -> (Int_set.add voter vs, b)
  in
  Hashtbl.replace t.votes key (voters, batch);
  if Int_set.cardinal voters >= t.majority && not (Hashtbl.mem t.chosen slot) then begin
    Hashtbl.replace t.chosen slot batch;
    if Option.equal Int.equal t.in_flight (Some slot) then t.in_flight <- None;
    try_deliver t
  end

let send_accept t ~slot ~batch =
  (ctx t).Engine.broadcast (Oracle_accept { ballot = t.ballot; slot; batch })

(* On winning phase 1: adopt, for every slot, the accepted value of the
   highest ballot reported by the promise quorum (plus our own acceptor
   state) and re-propose it; then resume proposing fresh batches above. *)
let become_leader t =
  t.leading <- true;
  t.campaigning <- false;
  let merged = Hashtbl.create 16 in
  let consider (slot, ballot, batch) =
    match Hashtbl.find_opt merged slot with
    | Some (b, _) when b >= ballot -> ()
    | Some _ | None -> Hashtbl.replace merged slot (ballot, batch)
  in
  List.iter (fun (_, acc) -> List.iter consider acc) t.promises;
  List.iter
    (fun (slot, (ballot, batch)) -> consider (slot, ballot, batch))
    (sorted_bindings t.acceptor_log);
  (* Re-proposals go out in increasing slot order: acceptor logs and the
     resulting Accepted floods replay byte-identically across runs. *)
  let adopted = sorted_bindings merged in
  let max_slot =
    List.fold_left (fun acc (slot, _) -> max acc (slot + 1)) 0 adopted
  in
  List.iter (fun (slot, (_, batch)) -> send_accept t ~slot ~batch) adopted;
  t.next_slot <- max (max max_slot t.next_slot) t.delivered_upto;
  t.in_flight <- None

let campaign t =
  t.ballot <- next_ballot t t.promised;
  t.leading <- false;
  t.campaigning <- true;
  t.promises <- [];
  (ctx t).Engine.broadcast (Oracle_prepare { ballot = t.ballot })

let step_down t =
  t.leading <- false;
  t.campaigning <- false;
  t.in_flight <- None

let propose_fresh t =
  let already = chosen_ids t in
  let fresh =
    Msg_set.elements
      (Msg_set.filter
         (fun m -> not (App_msg.Id_set.mem (App_msg.id m) already))
         t.pending)
  in
  if fresh <> [] then begin
    let slot = t.next_slot in
    t.next_slot <- slot + 1;
    t.in_flight <- Some slot;
    send_accept t ~slot ~batch:fresh
  end

let on_timer t =
  if t.omega () = self t then begin
    if t.leading then begin
      if t.in_flight = None then propose_fresh t
    end
    (* Campaign, or re-campaign if a higher ballot has preempted ours. *)
    else if (not t.campaigning) || t.promised > t.ballot then campaign t
  end
  else if t.leading || t.campaigning then step_down t

let broadcast t m =
  Etob_intf.record_broadcast t.backend m;
  (ctx t).Engine.broadcast (Oracle_req m)

let on_message t ~src payload =
  match payload with
  | Oracle_req m -> t.pending <- Msg_set.add m t.pending
  | Oracle_prepare { ballot } ->
    if ballot > t.promised then begin
      t.promised <- ballot;
      if t.leading && ballot > t.ballot then step_down t;
      let accepted =
        List.map (fun (slot, (b, batch)) -> (slot, b, batch))
          (sorted_bindings t.acceptor_log)
      in
      (ctx t).Engine.send src (Oracle_promise { ballot; accepted })
    end
  | Oracle_promise { ballot; accepted } ->
    (* [t.ballot >= t.promised] rejects stale victories: if a higher ballot
       already preempted ours locally, our Accepts would be silently
       rejected by every acceptor, so leadership at this ballot is useless
       and the next timeout re-campaigns above the preemptor instead. *)
    if ballot = t.ballot && t.campaigning && not t.leading
    && t.ballot >= t.promised then begin
      if not (List.mem_assoc src t.promises) then
        t.promises <- (src, accepted) :: t.promises;
      if List.length t.promises >= t.majority then become_leader t
    end
  | Oracle_accept { ballot; slot; batch } ->
    if ballot >= t.promised then begin
      t.promised <- ballot;
      if t.leading && ballot > t.ballot then step_down t;
      Hashtbl.replace t.acceptor_log slot (ballot, batch);
      (ctx t).Engine.broadcast (Oracle_accepted { ballot; slot; batch })
    end
  | Oracle_accepted { ballot; slot; batch } ->
    record_vote t ~voter:src ~ballot ~slot ~batch
  | _ -> ()

let create (c : Engine.ctx) ~omega =
  let t =
    { backend = Etob_intf.backend c;
      omega;
      majority = (c.Engine.n / 2) + 1;
      promised = -1;
      acceptor_log = Hashtbl.create 32;
      ballot = -1;
      leading = false;
      campaigning = false;
      promises = [];
      next_slot = 0;
      in_flight = None;
      pending = Msg_set.empty;
      votes = Hashtbl.create 64;
      chosen = Hashtbl.create 32;
      delivered_upto = 0;
      delivered_ids = App_msg.Id_set.empty }
  in
  let node =
    { Engine.on_message = (fun ~src payload -> on_message t ~src payload);
      on_timer = (fun () -> on_timer t);
      on_input = (function
        | Etob_intf.Broadcast_etob m -> broadcast t m
        | _ -> ()) }
  in
  (t, node)

let service t = Etob_intf.service_of t.backend ~broadcast:(fun m -> broadcast t m)
