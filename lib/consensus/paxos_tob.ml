(* Strong total order broadcast from repeated consensus: the baseline the
   paper compares against.

   A leader-based Paxos (synod per log slot, leadership from Omega, learning
   by majority of Accepted messages broadcast to everyone).  Guarantees the
   full (strong) TOB specification whenever it delivers at all — d_i only
   ever grows — but requires a majority of correct processes for liveness:
   this is exactly the availability gap the paper attributes to Sigma.

   Steady-state delivery latency under a stable leader is three
   communication steps (request -> Accept -> Accepted), matching Lamport's
   lower bound for consensus, versus two for Algorithm 5 (experiment E1).

   The baseline implements the same Etob_intf service as Algorithm 5, so
   identical property checkers and workloads apply to both. *)

open Simulator
open Simulator.Types
open Ec_core

type Msg.payload +=
  | Req of App_msg.t
  | Prepare of { ballot : int }
  | Promise of { ballot : int; accepted : (int * int * App_msg.t list) list }
  | Accept of { ballot : int; slot : int; batch : App_msg.t list }
  | Accepted of { ballot : int; slot : int; batch : App_msg.t list }

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
  mutable pending : Msg_set.t;  (* received, not yet chosen *)
  (* Learner state. *)
  votes : (int, (int * (Int_set.t * App_msg.t list)) list) Hashtbl.t;
      (* undecided slot -> ballot -> voters, batch *)
  chosen : (int, App_msg.t list) Hashtbl.t;  (* chosen, not yet delivered *)
  mutable chosen_ids : App_msg.Id_set.t;  (* ids of every chosen batch *)
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

let is_chosen t slot = slot < t.delivered_upto || Hashtbl.mem t.chosen slot

(* Deliver every contiguously chosen slot, skipping messages already
   delivered through an earlier slot (a message can be re-proposed across a
   leader change and appear in two batches). *)
let rec try_deliver t =
  match Hashtbl.find_opt t.chosen t.delivered_upto with
  | None -> ()
  | Some batch ->
    Hashtbl.remove t.chosen t.delivered_upto;
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

(* Votes for a chosen slot change nothing, so they are not kept.  At
   choice the slot's votes go, its ids join [chosen_ids] and its messages
   leave [pending]. *)
let record_vote t ~voter ~ballot ~slot ~batch =
  if not (is_chosen t slot) then begin
    let mine, others =
      List.partition (fun (b, _) -> Int.equal b ballot)
        (Option.value (Hashtbl.find_opt t.votes slot) ~default:[])
    in
    let voters, batch =
      match mine with
      | [] -> (Int_set.singleton voter, batch)
      | (_, (vs, b)) :: _ -> (Int_set.add voter vs, b)
    in
    if Int_set.cardinal voters < t.majority then
      Hashtbl.replace t.votes slot ((ballot, (voters, batch)) :: others)
    else begin
      Hashtbl.remove t.votes slot;
      Hashtbl.replace t.chosen slot batch;
      List.iter
        (fun m ->
           t.chosen_ids <- App_msg.Id_set.add (App_msg.id m) t.chosen_ids;
           t.pending <- Msg_set.remove m t.pending)
        batch;
      if Option.equal Int.equal t.in_flight (Some slot) then t.in_flight <- None;
      try_deliver t
    end
  end

let send_accept t ~slot ~batch =
  (ctx t).Engine.broadcast (Accept { ballot = t.ballot; slot; batch })

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
  (ctx t).Engine.broadcast (Prepare { ballot = t.ballot })

let step_down t =
  t.leading <- false;
  t.campaigning <- false;
  t.in_flight <- None

(* [pending] holds exactly the requests no chosen batch carries, so the
   fresh batch is all of it, in id order. *)
let propose_fresh t =
  if not (Msg_set.is_empty t.pending) then begin
    let slot = t.next_slot in
    t.next_slot <- slot + 1;
    t.in_flight <- Some slot;
    send_accept t ~slot ~batch:(Msg_set.elements t.pending)
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
  (ctx t).Engine.broadcast (Req m)

let on_message t ~src payload =
  match payload with
  | Req m ->
    if not (App_msg.Id_set.mem (App_msg.id m) t.chosen_ids) then
      t.pending <- Msg_set.add m t.pending
  | Prepare { ballot } ->
    if ballot > t.promised then begin
      t.promised <- ballot;
      if t.leading && ballot > t.ballot then step_down t;
      let accepted =
        List.map (fun (slot, (b, batch)) -> (slot, b, batch))
          (sorted_bindings t.acceptor_log)
      in
      (ctx t).Engine.send src (Promise { ballot; accepted })
    end
  | Promise { ballot; accepted } ->
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
  | Accept { ballot; slot; batch } ->
    if ballot >= t.promised then begin
      t.promised <- ballot;
      if t.leading && ballot > t.ballot then step_down t;
      Hashtbl.replace t.acceptor_log slot (ballot, batch);
      (ctx t).Engine.broadcast (Accepted { ballot; slot; batch })
    end
  | Accepted { ballot; slot; batch } ->
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
      votes = Hashtbl.create 8;
      chosen = Hashtbl.create 8;
      chosen_ids = App_msg.Id_set.empty;
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
