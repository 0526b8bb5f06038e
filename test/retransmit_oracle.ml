(* Test oracle: Ec_core.Retransmit as it was before [retry] skipped its
   walk until a frame was due and dedup kept a per-source watermark:
   every timer walks every unacknowledged frame, and dedup keeps a set of
   every sequence number seen.  Only the payload constructors are renamed
   (traces record inputs and outputs, never payloads). *)

(* Epoch-tagged retransmission links, factored out of [Recoverable] so any
   component that needs reliable delivery over the engine's lossy
   extensions (crash downtime windows, lossy partitions) can reuse one
   implementation: sender-side retransmission with per-destination
   sequence numbers, receiver-side dedup, and bounded exponential backoff.

   Frames carry the sender's incarnation [epoch] (its number of restarts,
   read off its stable store): a restarted sender's sequence numbers start
   over from 0, so without the epoch its peers' dedup sets would swallow
   every post-restart frame as a duplicate of the old incarnation's. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Oracle_rlink of { epoch : int; seq : int; inner : Msg.payload }
  | Oracle_rlink_ack of { epoch : int; seq : int }

type config = {
  ack_timeout : int;  (** initial retransmission timeout, in ticks *)
  max_backoff : int;  (** retransmission backoff cap, in ticks *)
}

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type pending = {
  payload : Msg.payload;
  mutable next_retry : time;
  mutable backoff : int;
}

type t = {
  ctx : Engine.ctx;  (* the raw engine ctx *)
  cfg : config;
  epoch : int;  (* this incarnation's number (restarts so far) *)
  next_seq : int array;  (* per destination *)
  mutable unacked : pending Int_map.t array;  (* per destination *)
  src_epoch : int array;  (* per source: highest incarnation seen *)
  mutable seen : Int_set.t array;  (* per source: delivered frame seqs *)
  mutable retransmitted : int;
}

let create ~config ~epoch (ctx : Engine.ctx) =
  { ctx;
    cfg = config;
    epoch;
    next_seq = Array.make ctx.Engine.n 0;
    unacked = Array.make ctx.Engine.n Int_map.empty;
    src_epoch = Array.make ctx.Engine.n (-1);
    seen = Array.make ctx.Engine.n Int_set.empty;
    retransmitted = 0 }

let retransmitted t = t.retransmitted

let send t dst payload =
  let seq = t.next_seq.(dst) in
  t.next_seq.(dst) <- seq + 1;
  let now = t.ctx.Engine.now () in
  t.unacked.(dst) <-
    Int_map.add seq
      { payload; next_retry = now + t.cfg.ack_timeout;
        backoff = t.cfg.ack_timeout }
      t.unacked.(dst);
  t.ctx.Engine.send dst (Oracle_rlink { epoch = t.epoch; seq; inner = payload })

let broadcast t payload =
  List.iter (fun q -> send t q payload) (all_procs t.ctx.Engine.n)

(* Retransmit every overdue unacknowledged frame, doubling its backoff up
   to the cap.  Driven from the process's local timer. *)
let retry t =
  let now = t.ctx.Engine.now () in
  Array.iteri
    (fun dst pendings ->
       Int_map.iter
         (fun seq p ->
            if now >= p.next_retry then begin
              p.backoff <- min (2 * p.backoff) t.cfg.max_backoff;
              p.next_retry <- now + p.backoff;
              t.retransmitted <- t.retransmitted + 1;
              t.ctx.Engine.send dst
                (Oracle_rlink { epoch = t.epoch; seq; inner = p.payload })
            end)
         pendings)
    t.unacked

(* A frame from a newer incarnation of [src] supersedes the old one's
   dedup state; a frame from an older (dead) incarnation is dropped —
   nobody retransmits it, and its content is covered by the restarted
   sender's replay-and-rebroadcast.  Returns whether to deliver. *)
let admit t ~src ~epoch ~seq =
  if epoch < t.src_epoch.(src) then `Stale
  else begin
    if epoch > t.src_epoch.(src) then begin
      t.src_epoch.(src) <- epoch;
      t.seen.(src) <- Int_set.empty
    end;
    if Int_set.mem seq t.seen.(src) then `Duplicate
    else begin
      t.seen.(src) <- Int_set.add seq t.seen.(src);
      `Deliver
    end
  end

let ack t ~src ~epoch ~seq =
  if epoch = t.epoch then t.unacked.(src) <- Int_map.remove seq t.unacked.(src)
