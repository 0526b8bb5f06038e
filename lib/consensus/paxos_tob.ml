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

(* Slot-keyed tables hash a slot by its value: slots are small, dense
   and non-negative, so the identity spreads them over the buckets, and
   a lookup pays neither polymorphic [Hashtbl.hash] nor [compare]. *)
module Int_tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash x = x
  end)

(* One ballot's votes for an undecided slot: the distinct processes
   whose [Accepted] arrived, how many they are, and the batch the first
   of them carried. *)
type tally = {
  ballot : int;
  batch : App_msg.t list;
  mutable voters : proc_id list;
  mutable count : int;
}

type t = {
  backend : Etob_intf.backend;
  omega : unit -> proc_id;
  majority : int;
  (* Acceptor state. *)
  mutable promised : int;
  acceptor_log : (int * App_msg.t list) Int_tbl.t;  (* slot -> ballot, batch *)
  (* Leader state. *)
  mutable ballot : int;          (* my current ballot (when campaigning/leading) *)
  mutable leading : bool;
  mutable campaigning : bool;
  mutable promises : (proc_id * (int * int * App_msg.t list) list) list;
  mutable next_slot : int;
  mutable in_flight : int option;
  mutable pending : Msg_set.t;  (* received, not yet chosen *)
  (* Learner state. *)
  votes : tally list Int_tbl.t;  (* undecided slot -> one tally per ballot *)
  chosen : App_msg.t list Int_tbl.t;  (* chosen, not yet delivered *)
  chosen_ids : Id_bits.t;  (* ids of every chosen batch *)
  mutable delivered_upto : int;  (* next slot to deliver *)
  delivered_ids : Id_bits.t;
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
  Int_tbl.fold (fun slot v acc -> (slot, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let is_chosen t slot = slot < t.delivered_upto || Int_tbl.mem t.chosen slot

let mem_id ids (m : App_msg.t) = Id_bits.mem ids ~origin:m.origin ~sn:m.sn
let add_id ids (m : App_msg.t) = Id_bits.add ids ~origin:m.origin ~sn:m.sn

(* Deliver every contiguously chosen slot, skipping messages already
   delivered through an earlier slot (a message can be re-proposed across a
   leader change and appear in two batches). *)
let rec try_deliver t =
  match Int_tbl.find_opt t.chosen t.delivered_upto with
  | None -> ()
  | Some batch ->
    Int_tbl.remove t.chosen t.delivered_upto;
    t.delivered_upto <- t.delivered_upto + 1;
    let fresh = List.filter (fun m -> not (mem_id t.delivered_ids m)) batch in
    if fresh <> [] then begin
      List.iter (add_id t.delivered_ids) fresh;
      Etob_intf.set_delivered t.backend
        (Dseq.append (Etob_intf.current_of t.backend) fresh)
    end;
    try_deliver t

(* At choice the slot's votes go, its ids join [chosen_ids] and its
   messages leave [pending]. *)
let choose t ~slot ~batch =
  Int_tbl.remove t.votes slot;
  Int_tbl.replace t.chosen slot batch;
  List.iter
    (fun m ->
       add_id t.chosen_ids m;
       t.pending <- Msg_set.remove m t.pending)
    batch;
  if Option.equal Int.equal t.in_flight (Some slot) then t.in_flight <- None;
  try_deliver t

let rec tally_of ballot = function
  | [] -> None
  | (v : tally) :: rest -> if v.ballot = ballot then Some v else tally_of ballot rest

let rec has_voter voter = function
  | [] -> false
  | p :: rest -> p = voter || has_voter voter rest

(* Votes for a chosen slot change nothing, so they are not kept.  A
   voter counts once per ballot however often its [Accepted] arrives
   (links may duplicate), so a slot is chosen by a majority of distinct
   acceptors. *)
let record_vote t ~voter ~ballot ~slot ~batch =
  if not (is_chosen t slot) then begin
    let tallies = Option.value (Int_tbl.find_opt t.votes slot) ~default:[] in
    let tally =
      match tally_of ballot tallies with
      | Some v -> v
      | None ->
        let v = { ballot; batch; voters = []; count = 0 } in
        Int_tbl.replace t.votes slot (v :: tallies);
        v
    in
    if not (has_voter voter tally.voters) then begin
      tally.voters <- voter :: tally.voters;
      tally.count <- tally.count + 1;
      if tally.count >= t.majority then choose t ~slot ~batch:tally.batch
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
  let merged = Int_tbl.create 16 in
  let consider (slot, ballot, batch) =
    match Int_tbl.find_opt merged slot with
    | Some (b, _) when b >= ballot -> ()
    | Some _ | None -> Int_tbl.replace merged slot (ballot, batch)
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
    if not (mem_id t.chosen_ids m) then
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
      Int_tbl.replace t.acceptor_log slot (ballot, batch);
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
      acceptor_log = Int_tbl.create 32;
      ballot = -1;
      leading = false;
      campaigning = false;
      promises = [];
      next_slot = 0;
      in_flight = None;
      pending = Msg_set.empty;
      votes = Int_tbl.create 8;
      chosen = Int_tbl.create 8;
      chosen_ids = Id_bits.create ();
      delivered_upto = 0;
      delivered_ids = Id_bits.create () }
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
