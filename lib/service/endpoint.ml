(* The replica-side request endpoint: admission control and reply plumbing.

   One endpoint rides each replica process, stacked after the protocol and
   replica components so that, by the time it runs on any event, the
   replica views already reflect that event's deliveries.  Reads are
   answered immediately from the requested view.  Writes are submitted to
   the replication fabric and watched until the request id becomes visible
   in the requested view's log; the watch list doubles as the admission
   queue — past [queue_limit] pending writes the endpoint sheds load with a
   distinct overloaded reply instead of queueing more.

   Every request is acked on receipt, whatever its fate.  The ack is the
   client's liveness signal: a partitioned endpoint still acks (and still
   serves weak reads), so only a crashed endpoint looks dead.

   Idempotency: retries of rid already watched or already visible never
   re-enter the fabric — the endpoint re-watches (or re-replies) and emits
   a [Duplicate_submit] observable instead.  Cross-endpoint retries can
   still double-submit; the {!Replication.Dedup} machine filters those at apply
   time, and the runner checks that none leak into the state. *)

open Simulator
open Simulator.Types
open Replication

type views = {
  weak_find : string -> string option;
  strong_find : string -> string option;
  weak_has : client:proc_id -> rid:int -> bool;
  strong_has : client:proc_id -> rid:int -> bool;
  submit : Command.t -> unit;
}

type watch = { w_client : proc_id; w_rid : int; w_strong : bool }

type t = {
  ctx : Engine.ctx;
  spec : Harness.Service_spec.t;
  views : views;
  mutable pending : watch list;  (** in arrival order *)
  mutable submitted : (proc_id * int) list;  (** rids this endpoint put in *)
}

let visible t ~strong ~client ~rid =
  if strong then t.views.strong_has ~client ~rid
  else t.views.weak_has ~client ~rid

let reply_ok t ~client ~rid ~strong ~value =
  t.ctx.send client (Wire.Reply { rid; ok = true; overloaded = false; strong; value })

let poll t =
  let ready, waiting =
    List.partition
      (fun w -> visible t ~strong:w.w_strong ~client:w.w_client ~rid:w.w_rid)
      t.pending
  in
  t.pending <- waiting;
  List.iter
    (fun w -> reply_ok t ~client:w.w_client ~rid:w.w_rid ~strong:w.w_strong ~value:None)
    ready

let handle_write t ~client ~rid ~strong ~key ~value =
  if visible t ~strong ~client ~rid then
    (* The write already reached the requested view (an earlier attempt
       landed): idempotent re-ack, nothing re-enters the fabric. *)
    reply_ok t ~client ~rid ~strong ~value:None
  else if List.exists (fun w -> w.w_client = client && w.w_rid = rid) t.pending
  then begin
    (* A retry caught up with its own watch; refresh the mode (the client
       may have degraded between attempts) without growing the queue. *)
    t.ctx.output (Wire.Duplicate_submit { endpoint = t.ctx.self; client; rid });
    t.pending <-
      List.map
        (fun w ->
          if w.w_client = client && w.w_rid = rid then { w with w_strong = strong }
          else w)
        t.pending
  end
  else if List.length t.pending >= t.spec.queue_limit then begin
    t.ctx.output (Wire.Shed { endpoint = t.ctx.self });
    t.ctx.send client
      (Wire.Reply { rid; ok = false; overloaded = true; strong; value = None })
  end
  else begin
    (if List.mem (client, rid) t.submitted || t.views.weak_has ~client ~rid then
       (* Already in flight through this endpoint (or visible speculatively
          while the client waits for commit): don't re-broadcast. *)
       t.ctx.output (Wire.Duplicate_submit { endpoint = t.ctx.self; client; rid })
     else begin
       t.submitted <- (client, rid) :: t.submitted;
       t.views.submit (Command.wput ~client ~rid key value)
     end);
    t.pending <- t.pending @ [ { w_client = client; w_rid = rid; w_strong = strong } ]
  end

let handle_request t ~client ~rid ~strong ~op =
  t.ctx.send client (Wire.Ack { rid });
  match (op : Wire.op) with
  | Read { key } ->
    let value =
      if strong then t.views.strong_find key else t.views.weak_find key
    in
    reply_ok t ~client ~rid ~strong ~value
  | Write { key; value } -> handle_write t ~client ~rid ~strong ~key ~value

let create ctx ~spec ~views =
  let t = { ctx; spec; views; pending = []; submitted = [] } in
  let node =
    Engine.
      { on_message =
          (fun ~src:_ payload ->
            (match payload with
             | Wire.Request { client; rid; strong; op } ->
               handle_request t ~client ~rid ~strong ~op
             | _ -> ());
            (* Any payload (an Update, an Accepted quorum…) may have grown
               the views this step. *)
            poll t);
        on_timer = (fun () -> poll t);
        on_input = (fun _ -> ());
      }
  in
  (t, node)
