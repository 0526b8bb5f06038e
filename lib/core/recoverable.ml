(* Crash-recovery wrapper for Algorithm 5 (and its committed-prefix
   replica): durable logs, checkpoint/restore, and re-established reliable
   links for restarted processes.

   The paper's model is crash-stop, so Algorithm 5 keeps everything in
   volatile memory and relies on reliable links.  Under the engine's
   crash-recovery extension both assumptions break: a restarting process
   loses its state, and every message addressed to it during a downtime
   window is gone.  This wrapper restores both invariants:

   Durability.  The wrapper owns a [Persist.Store] write-ahead log, one
   record per line in App_msg wire forms:

   - "m <msg>"  — a message known to the process (graph node).  Own
     broadcasts are logged and synced *before* the send, so the allocation
     state (next_sn) derived from them on replay can never regress — a
     regressed sn would re-issue an already-used message id and violate
     the paper's distinct-messages assumption (that is exactly the
     [Skip_log_replay] mutant, which the explorer must catch).  Messages
     learnt from update(CG_j) are logged and synced before the link-layer
     acknowledgment, the classic log-before-ack rule: once a peer stops
     retransmitting, the message must be recoverable locally.  The nodes
     to log are the ones new since the last event: those that became
     ready since (Causal_graph's ready log, read from a cursor) and the
     blocked ones not yet logged, in id order.
   - "d <seq>" or "d+ <k> <seq>"  — a revision of the output d_i, whole,
     or as a delta: the first k messages of the revision before it, then
     <seq>.  A revision that keeps the one a replay would hold
     ([Dseq.delta]: ids, tags and deps) is written as a delta, any other
     (a leader change truncating d_i) whole.  An empty whole revision is
     skipped at replay, leaving the revision before it.  Logged without a sync
     barrier: a lost suffix of d-revisions only sets the process back to
     an older adopted promotion, which the leader's periodic promote
     broadcast re-teaches — so this is where injected disk faults get to
     bite without breaking any guarantee.  Faults only ever remove a
     suffix, so every delta that survives replays onto its own base.
   - "c <seq>" or "c+ <k> <seq>"  — a committed-prefix announcement
     (when [commits] is on), whole or as a delta like d_i's.  Synced: a
     commitment is an externally visible promise that must not roll back
     across a restart.
   - "x <origin> <sn>"  — forget a node.  Written only by a checkpoint of
     a protocol that replaces CG_i instead of growing it (the
     drop-graph-union mutant), so a replay restores the graph it held.

   Every [snapshot_every] appends the wrapper checkpoints: the store
   seals the records logged since the last checkpoint into its durable
   image ([Persist.Store.checkpoint]), which no disk fault reaches, so
   the cadence decides what the dirty tail holds at a crash.  A
   checkpoint re-serializes nothing and no longer bounds replay: a
   restart replays the whole image and then the log, inside the restart
   hook, off the event path and at no simulated-time cost.  The image
   then replays to the state a whole snapshot would have held: the graph,
   the current d_i (an empty one written as "d+ 0 "), the committed
   prefix.

   Restore.  On a post-crash open, the wrapper parses image-then-log,
   hands the surviving state to [Etob_omega.restore] (which recomputes
   promote_i and the allocation state, and announces the restored d_i),
   re-announces the committed prefix, and rebroadcasts update(CG_i) so
   peers that progressed while this process was down resynchronize it —
   and it them.

   Reliable links.  Sender-side retransmission with per-destination
   sequence numbers, receiver-side dedup, and bounded exponential backoff
   ([ack_timeout] doubling up to [max_backoff]): every payload is framed,
   retransmitted until acknowledged, and delivered to the protocol at
   most once.  A message sent into a downtime window is therefore
   re-delivered after the restart, which re-establishes the reliable-link
   guarantee the protocol's liveness arguments need. *)

open Simulator

type config = {
  snapshot_every : int;
      (** checkpoint after this many log appends: the cadence decides what
          the dirty tail holds at a crash *)
  ack_timeout : int;  (** initial retransmission timeout, in ticks *)
  max_backoff : int;  (** retransmission backoff cap, in ticks *)
}

let default_config = { snapshot_every = 8; ack_timeout = 4; max_backoff = 32 }

type mutation = Skip_log_replay

let all_mutations = [ Skip_log_replay ]

let mutation_name = function Skip_log_replay -> "skip-log-replay"

let mutation_of_string s =
  List.find_opt (fun m -> mutation_name m = s) all_mutations

(* The reliable-link layer lives in {!Retransmit}, which the anti-entropy
   component and other subsystems reuse; this wrapper owns one link per
   incarnation: [Rlink]/[Rlink_ack] payloads, backoff, dedup. *)
let link_config config =
  { Retransmit.ack_timeout = config.ack_timeout;
    max_backoff = config.max_backoff }

(* ------------------------------------------------------------------ *)
(* Write-ahead-log records                                             *)
(* ------------------------------------------------------------------ *)

type replayed = {
  mutable r_msgs : App_msg.t App_msg.Id_map.t;
  mutable r_delivered : Dseq.t;
  mutable r_committed : Dseq.t;
}

(* "<k> <seq>" applied to [base]: its first [k] messages, then [seq]. *)
let revise base body =
  match String.index_opt body ' ' with
  | None -> None
  | Some i ->
    (match
       ( int_of_string_opt (String.sub body 0 i),
         App_msg.seq_of_wire (String.sub body (i + 1) (String.length body - i - 1)) )
     with
     | Some k, Some seq when k >= 0 && k <= Dseq.length base ->
       Some (Dseq.append (Dseq.prefix base k) seq)
     | _ -> None)

let replay_record acc line =
  let n = String.length line in
  let body k = String.sub line k (n - k) in
  let whole set =
    match App_msg.seq_of_wire (body 2) with
    | Some seq -> set (Dseq.of_list seq)
    | None -> ()
  in
  let delta base set =
    if n > 2 && line.[2] = ' ' then
      match revise base (body 3) with Some seq -> set seq | None -> ()
  in
  if n > 2 then
    match line.[0], line.[1] with
    | 'm', ' ' ->
      (match App_msg.of_wire (body 2) with
       | Some m when not (App_msg.Id_map.mem (App_msg.id m) acc.r_msgs) ->
         acc.r_msgs <- App_msg.Id_map.add (App_msg.id m) m acc.r_msgs
       | _ -> ())
    | 'd', ' ' -> whole (fun seq -> acc.r_delivered <- seq)
    | 'd', '+' -> delta acc.r_delivered (fun seq -> acc.r_delivered <- seq)
    | 'c', ' ' -> whole (fun seq -> acc.r_committed <- seq)
    | 'c', '+' -> delta acc.r_committed (fun seq -> acc.r_committed <- seq)
    | 'x', ' ' ->
      (match String.split_on_char ' ' (body 2) with
       | [ origin; sn ] ->
         (match int_of_string_opt origin, int_of_string_opt sn with
          | Some origin, Some sn ->
            acc.r_msgs <- App_msg.Id_map.remove (origin, sn) acc.r_msgs
          | _ -> ())
       | _ -> ())
    | _ -> ()

let replay (opening : Persist.Store.opening) =
  let acc =
    { r_msgs = App_msg.Id_map.empty; r_delivered = Dseq.empty;
      r_committed = Dseq.empty }
  in
  List.iter (replay_record acc) opening.Persist.Store.durable;
  List.iter (replay_record acc) opening.Persist.Store.records;
  acc

(* ------------------------------------------------------------------ *)
(* The wrapper                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  link : Retransmit.t;
  restarted : bool;  (* this incarnation came from a post-crash open *)
  replayed_msgs : int;
}

let retransmitted t = Retransmit.retransmitted t.link
let was_restarted t = t.restarted
let replayed_msgs t = t.replayed_msgs

let create ?(config = default_config) ?mutation ?etob_mutation
    ?(commits = false) ?anti_entropy ?ae_mutation ~store ~omega
    (ctx : Engine.ctx) =
  let opening = Persist.Store.open_ store in
  let amnesia = match mutation with Some Skip_log_replay -> true | None -> false in
  let epoch = (Persist.Store.stats store).Persist.Store.restarts in
  let link = Retransmit.create ~config:(link_config config) ~epoch ctx in
  let lctx =
    { ctx with
      Engine.send = Retransmit.send link;
      broadcast = Retransmit.broadcast link }
  in
  let etob_t, etob_node = Etob_omega.create ?mutation:etob_mutation lctx ~omega in
  let inner_service = Etob_omega.service etob_t in
  (* The anti-entropy layer (when enabled) sends through the raw ctx, not
     the retransmitting link: digests are periodic and deltas re-answer
     fresh digests, so the layer is its own retransmission mechanism and
     framing it would only add ack traffic.  Messages it learns flow into
     the write-ahead log through [after_event] like any other graph
     growth. *)
  let ae_node =
    match anti_entropy, ae_mutation with
    | None, None -> Engine.idle_node
    | config, mutation ->
      snd
        (Anti_entropy.create ?config ?mutation ctx
           ~graph:(fun () -> Etob_omega.graph etob_t)
           ~learn:(Etob_omega.learn etob_t))
  in
  (* Replay image-then-log into the protocol; the amnesia mutant skips
     exactly this step and restarts from scratch. *)
  let restored =
    if opening.Persist.Store.restarted && not amnesia then begin
      let acc = replay opening in
      Etob_omega.restore etob_t
        ~msgs:(List.map snd (App_msg.Id_map.bindings acc.r_msgs))
        ~delivered:(Dseq.to_list acc.r_delivered);
      Some acc
    end
    else None
  in
  let t =
    { link;
      restarted = opening.Persist.Store.restarted;
      replayed_msgs =
        (match restored with
         | None -> 0
         | Some acc -> App_msg.Id_map.cardinal acc.r_msgs) }
  in
  let commit_parts =
    if not commits then None
    else begin
      let ct, cnode =
        Commit_prefix.create lctx ~omega ~etob:inner_service
          ~promotion:(fun () -> Etob_omega.promotion etob_t)
      in
      (match restored with
       | Some acc -> Commit_prefix.restore ct acc.r_committed
       | None -> ());
      Some (ct, cnode)
    end
  in
  let replayed_ids =
    match restored with
    | None -> App_msg.Id_set.empty
    | Some acc ->
      App_msg.Id_map.fold (fun id _ ids -> App_msg.Id_set.add id ids) acc.r_msgs
        App_msg.Id_set.empty
  in
  (* The ids logged by this incarnation or replayed into it. *)
  let logged = ref replayed_ids in
  (* Every graph node is logged by the end of the event that adds it, so
     the nodes to log are the ready ones beyond [cursor] and the blocked
     ones.  That needs a CG_i that only grows; the drop-graph-union
     mutant replaces it, so it lists the whole graph instead, and its
     checkpoints reconcile the image with the graph ([imaged] is the set
     a replay would restore). *)
  let replaces_graph =
    match etob_mutation with Some Etob_omega.Drop_graph_union -> true | _ -> false
  in
  let cursor = ref (Causal_graph.ready_count (Etob_omega.graph etob_t)) in
  let imaged = ref replayed_ids in
  (* The d_i and committed prefix a replay would hold: the base of the
     next delta. *)
  let last_d =
    ref (match restored with Some acc -> acc.r_delivered | None -> Dseq.empty)
  in
  let last_c =
    ref (match restored with Some acc -> acc.r_committed | None -> Dseq.empty)
  in
  let appends = ref 0 in
  let buf = Buffer.create 256 in
  let write () = Persist.Store.append store (Buffer.contents buf) in
  let log_append () =
    write ();
    incr appends
  in
  let msg_record m =
    Buffer.clear buf;
    Buffer.add_string buf "m ";
    App_msg.add_wire buf m
  in
  let log_msg m =
    let id = App_msg.id m in
    if not (App_msg.Id_set.mem id !logged) then begin
      logged := App_msg.Id_set.add id !logged;
      if replaces_graph then imaged := App_msg.Id_set.add id !imaged;
      msg_record m;
      log_append ()
    end
  in
  (* A revision of d_i ([kind] 'd') or of the committed prefix ('c'). *)
  let log_revision kind last seq =
    let kept, fresh = Dseq.delta !last seq in
    Buffer.clear buf;
    Buffer.add_char buf kind;
    if kept > 0 then begin
      Buffer.add_string buf "+ ";
      Buffer.add_string buf (string_of_int kept)
    end;
    Buffer.add_char buf ' ';
    App_msg.add_seq_wire buf fresh;
    if Dseq.length seq > 0 then last := seq;
    log_append ()
  in
  (* d-revisions: logged on every delivery, deliberately without a sync
     barrier (see the header comment).  Registered after the restore so
     the replayed revision is not immediately re-appended. *)
  inner_service.Etob_intf.on_deliver (log_revision 'd' last_d);
  (* Log (and sync) every graph node not yet on disk. *)
  let log_new_msgs () =
    let before = !appends in
    let g = Etob_omega.graph etob_t in
    if replaces_graph then List.iter log_msg (Causal_graph.messages g)
    else begin
      let fresh = Causal_graph.fresh_ready g ~since:!cursor in
      cursor := Causal_graph.ready_count g;
      match fresh, Causal_graph.blocked g with
      | [], [] -> ()
      | fresh, blocked ->
        List.iter log_msg (List.sort App_msg.compare (List.rev_append fresh blocked))
    end;
    if !appends > before then Persist.Store.sync store
  in
  let log_commit_growth () =
    match commit_parts with
    | None -> ()
    | Some (ct, _) ->
      let c = Commit_prefix.committed ct in
      if Dseq.length c > Dseq.length !last_c then begin
        log_revision 'c' last_c c;
        Persist.Store.sync store
      end
  in
  (* Records sealed with a checkpoint so the image replays to the current
     state, as a whole snapshot of it did: the graph, for a protocol that
     replaced CG_i, and an empty d_i, which an empty whole record cannot
     restore. *)
  let reconcile () =
    if replaces_graph then begin
      let g = Etob_omega.graph etob_t in
      App_msg.Id_set.iter
        (fun ((origin, sn) as id) ->
           if not (Causal_graph.mem g id) then begin
             Buffer.clear buf;
             Printf.bprintf buf "x %d %d" origin sn;
             write ()
           end)
        !imaged;
      let msgs = Causal_graph.messages g in
      List.iter
        (fun m ->
           if not (App_msg.Id_set.mem (App_msg.id m) !imaged) then begin
             msg_record m;
             write ()
           end)
        msgs;
      imaged := App_msg.ids_of_seq msgs
    end;
    if Dseq.length (inner_service.Etob_intf.current ()) = 0
    && Dseq.length !last_d > 0 then begin
      Buffer.clear buf;
      Buffer.add_string buf "d+ 0 ";
      write ();
      last_d := Dseq.empty
    end
  in
  let maybe_checkpoint () =
    if !appends >= config.snapshot_every then begin
      appends := 0;
      reconcile ();
      Persist.Store.checkpoint store
    end
  in
  let after_event () =
    log_new_msgs ();
    log_commit_growth ();
    maybe_checkpoint ()
  in
  (* Peers may have progressed while this process was down (and its own
     unacknowledged sends died with the old incarnation): rebroadcast the
     restored graph once, through the retransmitting link. *)
  (match restored with
   | Some _ when Causal_graph.size (Etob_omega.graph etob_t) > 0 ->
     lctx.Engine.broadcast (Etob_omega.Update (Etob_omega.graph etob_t))
   | _ -> ());
  let broadcast m =
    (* Log-and-sync before the send: next_sn must survive any crash. *)
    log_msg m;
    Persist.Store.sync store;
    inner_service.Etob_intf.broadcast m;
    after_event ()
  in
  let dispatch_message ~src payload =
    etob_node.Engine.on_message ~src payload;
    ae_node.Engine.on_message ~src payload;
    (match commit_parts with
     | Some (_, cnode) -> cnode.Engine.on_message ~src payload
     | None -> ())
  in
  let on_message ~src payload =
    match payload with
    | Retransmit.Rlink { epoch; seq; inner } ->
      (match Retransmit.admit link ~src ~epoch ~seq with
       | `Stale -> ()  (* a dead incarnation's in-flight frame *)
       | `Duplicate ->
         (* Retransmission after a lost ack: re-acknowledge without
            re-delivering. *)
         ctx.Engine.send src (Retransmit.Rlink_ack { epoch; seq })
       | `Deliver ->
         dispatch_message ~src inner;
         after_event ();
         (* Acknowledge only once the new state is durable
            (log-before-ack): the sender may now stop retransmitting. *)
         ctx.Engine.send src (Retransmit.Rlink_ack { epoch; seq }))
    | Retransmit.Rlink_ack { epoch; seq } -> Retransmit.ack link ~src ~epoch ~seq
    | other ->
      (* Unframed payloads from non-recoverable peers (and the
         anti-entropy layer, which is its own retransmission mechanism):
         deliver directly. *)
      dispatch_message ~src other;
      after_event ()
  in
  let on_timer () =
    Retransmit.retry link;
    etob_node.Engine.on_timer ();
    ae_node.Engine.on_timer ();
    (match commit_parts with
     | Some (_, cnode) -> cnode.Engine.on_timer ()
     | None -> ());
    after_event ()
  in
  let on_input = function
    | Etob_intf.Broadcast_etob m ->
      (* Handled here (not forwarded to the inner node) so the broadcast
         goes through the durable path exactly once. *)
      broadcast m
    | input -> etob_node.Engine.on_input input
  in
  let service =
    { inner_service with Etob_intf.broadcast }
  in
  (t, { Engine.on_message; on_timer; on_input }, service)
