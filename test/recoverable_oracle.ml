(* Test oracle: Ec_core.Recoverable as it was before its records became
   deltas.  Every event lists the whole graph to find the nodes to log,
   every d_i and committed revision is logged whole, and every
   [snapshot_every] appends the whole state is re-serialized into a
   snapshot.  It drives Retransmit_oracle, Anti_entropy_oracle and
   Store_oracle; test_recovery's differential requires its traces to
   equal the live stack's.  Only the module paths and one comment are
   changed. *)

(* Crash-recovery wrapper for Algorithm 5 (and its committed-prefix
   replica): durable logs, checkpoint/restore, and re-established reliable
   links for restarted processes.

   The paper's model is crash-stop, so Algorithm 5 keeps everything in
   volatile memory and relies on reliable links.  Under the engine's
   crash-recovery extension both assumptions break: a restarting process
   loses its state, and every message addressed to it during a downtime
   window is gone.  This wrapper restores both invariants:

   Durability.  The wrapper owns a [Persist.Store] write-ahead log:

   - "m <msg>"  — a message known to the process (graph node).  Own
     broadcasts are logged and synced *before* the send, so the allocation
     state (next_sn) derived from them on replay can never regress — a
     regressed sn would re-issue an already-used message id and violate
     the paper's distinct-messages assumption (that is exactly the
     [Skip_log_replay] mutant, which the explorer must catch).  Messages
     learnt from update(CG_j) are logged and synced before the link-layer
     acknowledgment, the classic log-before-ack rule: once a peer stops
     retransmitting, the message must be recoverable locally.
   - "d <seq>"  — a revision of the output d_i.  Logged without a sync
     barrier: a lost suffix of d-revisions only sets the process back to
     an older adopted promotion, which the leader's periodic promote
     broadcast re-teaches — so this is where injected disk faults get to
     bite without breaking any guarantee.
   - "c <seq>"  — a committed-prefix announcement (when [commits] is on).
     Synced: a commitment is an externally visible promise that must not
     roll back across a restart.

   Every [snapshot_every] appends the whole state is checkpointed with
   [install_snapshot] (atomic, truncates the log) so replay stays short.

   Restore.  On a post-crash open, the wrapper parses snapshot-then-log,
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
open Ec_core

type config = {
  snapshot_every : int;  (** checkpoint after this many log appends *)
  ack_timeout : int;  (** initial retransmission timeout, in ticks *)
  max_backoff : int;  (** retransmission backoff cap, in ticks *)
}

let default_config = { snapshot_every = 8; ack_timeout = 4; max_backoff = 32 }

type mutation = Skip_log_replay

let all_mutations = [ Skip_log_replay ]

let mutation_name = function Skip_log_replay -> "skip-log-replay"

let mutation_of_string s =
  List.find_opt (fun m -> mutation_name m = s) all_mutations

(* The reliable-link layer lives in {!Retransmit} (factored out so the
   anti-entropy component and future subsystems reuse it); this
   wrapper owns one link per incarnation and keeps its historical framing
   behaviour — [Rlink]/[Rlink_ack] payloads, backoff, dedup — unchanged. *)
let link_config config =
  { Retransmit_oracle.ack_timeout = config.ack_timeout;
    max_backoff = config.max_backoff }

(* ------------------------------------------------------------------ *)
(* Write-ahead-log records                                             *)
(* ------------------------------------------------------------------ *)

(* One record per line: "m <msg>", "d <seq>", "c <seq>" (App_msg wire
   forms).  A snapshot is the same records joined with newlines, replayed
   before the log. *)

type replayed = {
  mutable r_msgs : App_msg.t list;  (* reversed arrival order *)
  mutable r_ids : App_msg.Id_set.t;
  mutable r_delivered : App_msg.t list;
  mutable r_committed : App_msg.t list;
}

let replay_record acc line =
  let payload tag =
    let k = String.length tag in
    if String.length line > k && String.sub line 0 k = tag
    then Some (String.sub line k (String.length line - k))
    else None
  in
  match payload "m " with
  | Some wire ->
    (match App_msg.of_wire wire with
     | Some m when not (App_msg.Id_set.mem (App_msg.id m) acc.r_ids) ->
       acc.r_msgs <- m :: acc.r_msgs;
       acc.r_ids <- App_msg.Id_set.add (App_msg.id m) acc.r_ids
     | _ -> ())
  | None ->
    (match payload "d " with
     | Some wire ->
       (match App_msg.seq_of_wire wire with
        | Some seq -> acc.r_delivered <- seq
        | None -> ())
     | None ->
       (match payload "c " with
        | Some wire ->
          (match App_msg.seq_of_wire wire with
           | Some seq -> acc.r_committed <- seq
           | None -> ())
        | None -> ()))

let replay (opening : Store_oracle.opening) =
  let acc =
    { r_msgs = []; r_ids = App_msg.Id_set.empty; r_delivered = [];
      r_committed = [] }
  in
  (match opening.Store_oracle.snapshot with
   | None -> ()
   | Some snap ->
     List.iter (replay_record acc) (String.split_on_char '\n' snap));
  List.iter (replay_record acc) opening.Store_oracle.records;
  acc

(* ------------------------------------------------------------------ *)
(* The wrapper                                                         *)
(* ------------------------------------------------------------------ *)

type t = {
  link : Retransmit_oracle.t;
  restarted : bool;  (* this incarnation came from a post-crash open *)
  replayed_msgs : int;
}

let retransmitted t = Retransmit_oracle.retransmitted t.link
let was_restarted t = t.restarted
let replayed_msgs t = t.replayed_msgs

let create ?(config = default_config) ?mutation ?etob_mutation
    ?(commits = false) ?anti_entropy ?ae_mutation ~store ~omega
    (ctx : Engine.ctx) =
  let opening = Store_oracle.open_ store in
  let amnesia = match mutation with Some Skip_log_replay -> true | None -> false in
  let epoch = (Store_oracle.stats store).Store_oracle.restarts in
  let link = Retransmit_oracle.create ~config:(link_config config) ~epoch ctx in
  let lctx =
    { ctx with
      Engine.send = Retransmit_oracle.send link;
      broadcast = Retransmit_oracle.broadcast link }
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
        (Anti_entropy_oracle.create ?config ?mutation ctx
           ~graph:(fun () -> Etob_omega.graph etob_t)
           ~learn:(Etob_omega.learn etob_t))
  in
  let logged = ref App_msg.Id_set.empty in
  let appends = ref 0 in
  (* Replay snapshot-then-log into the protocol; the amnesia mutant skips
     exactly this step and restarts from scratch. *)
  let restored =
    if opening.Store_oracle.restarted && not amnesia then begin
      let acc = replay opening in
      let msgs = List.rev acc.r_msgs in
      Etob_omega.restore etob_t ~msgs ~delivered:acc.r_delivered;
      logged := acc.r_ids;
      Some acc
    end
    else None
  in
  let t =
    { link;
      restarted = opening.Store_oracle.restarted;
      replayed_msgs =
        (match restored with
         | None -> 0
         | Some acc -> App_msg.Id_set.cardinal acc.r_ids) }
  in
  let commit_parts =
    if not commits then None
    else begin
      let ct, cnode =
        Commit_prefix.create lctx ~omega ~etob:inner_service
          ~promotion:(fun () -> Etob_omega.promotion etob_t)
      in
      (match restored with
       | Some acc -> Commit_prefix.restore ct (Dseq.of_list acc.r_committed)
       | None -> ());
      Some (ct, cnode)
    end
  in
  let log_append line =
    Store_oracle.append store line;
    incr appends
  in
  (* d-revisions: logged on every delivery, deliberately without a sync
     barrier (see the header comment).  Registered after the restore so
     the replayed revision is not immediately re-appended. *)
  inner_service.Etob_intf.on_deliver
    (fun seq -> log_append ("d " ^ App_msg.seq_to_wire (Dseq.to_list seq)));
  let log_msg m =
    if not (App_msg.Id_set.mem (App_msg.id m) !logged) then begin
      logged := App_msg.Id_set.add (App_msg.id m) !logged;
      log_append ("m " ^ App_msg.to_wire m)
    end
  in
  (* Log (and sync) every graph node not yet on disk; returns whether any
     record was written, i.e. whether a barrier was taken. *)
  let log_new_msgs () =
    let before = !appends in
    List.iter log_msg (Causal_graph.messages (Etob_omega.graph etob_t));
    if !appends > before then Store_oracle.sync store
  in
  let last_committed_len =
    ref (match restored with None -> 0 | Some acc -> List.length acc.r_committed)
  in
  let log_commit_growth () =
    match commit_parts with
    | None -> ()
    | Some (ct, _) ->
      let c = Commit_prefix.committed ct in
      if Dseq.length c > !last_committed_len then begin
        last_committed_len := Dseq.length c;
        log_append ("c " ^ App_msg.seq_to_wire (Dseq.to_list c));
        Store_oracle.sync store
      end
  in
  let maybe_snapshot () =
    if !appends >= config.snapshot_every then begin
      appends := 0;
      let lines =
        List.map (fun m -> "m " ^ App_msg.to_wire m)
          (Causal_graph.messages (Etob_omega.graph etob_t))
        @ [ "d "
            ^ App_msg.seq_to_wire (Dseq.to_list (inner_service.Etob_intf.current ())) ]
        @ (match commit_parts with
           | Some (ct, _) ->
             [ "c " ^ App_msg.seq_to_wire (Dseq.to_list (Commit_prefix.committed ct)) ]
           | None -> [])
      in
      Store_oracle.install_snapshot store (String.concat "\n" lines)
    end
  in
  let after_event () =
    log_new_msgs ();
    log_commit_growth ();
    maybe_snapshot ()
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
    Store_oracle.sync store;
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
    | Retransmit_oracle.Oracle_rlink { epoch; seq; inner } ->
      (match Retransmit_oracle.admit link ~src ~epoch ~seq with
       | `Stale -> ()  (* a dead incarnation's in-flight frame *)
       | `Duplicate ->
         (* Retransmission after a lost ack: re-acknowledge without
            re-delivering. *)
         ctx.Engine.send src (Retransmit_oracle.Oracle_rlink_ack { epoch; seq })
       | `Deliver ->
         dispatch_message ~src inner;
         after_event ();
         (* Acknowledge only once the new state is durable
            (log-before-ack): the sender may now stop retransmitting. *)
         ctx.Engine.send src (Retransmit_oracle.Oracle_rlink_ack { epoch; seq }))
    | Retransmit_oracle.Oracle_rlink_ack { epoch; seq } -> Retransmit_oracle.ack link ~src ~epoch ~seq
    | other ->
      (* Unframed payloads from non-recoverable peers (and the
         anti-entropy layer, which is its own retransmission mechanism):
         deliver directly. *)
      dispatch_message ~src other;
      after_event ()
  in
  let on_timer () =
    Retransmit_oracle.retry link;
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
