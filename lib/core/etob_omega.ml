(* Algorithm 5 of the paper (protocol "ET OB"): eventual total order
   broadcast directly from Omega, in any environment (Lemma 3).

   - On broadcastETOB(m, C(m)): add m to the local causality graph and send
     update(CG_i) to all (including self).
   - On update(CG_j): merge the graphs and extend the local promotion
     sequence (UpdatePromote) to a causal linearization of the merged graph
     keeping the previous promotion as a prefix.
   - On a local timeout, a process that trusts itself sends
     promote(promote_i) to all.
   - On promote(promote_j) from p_j: adopt the sequence iff Omega currently
     trusts p_j.

   Headline properties (Section 5): delivery takes two communication steps
   under a stable leader (update in, promote out); if Omega is stable from
   the start the protocol implements full TOB; and TOB-Causal-Order holds
   at all times, even while Omega outputs different leaders at different
   processes (partitions).

   Each step costs what is new, not the whole history (see Causal_graph):
   UnionCG visits only the sender's messages this process lacks, and
   UpdatePromote appends just the nodes that became ready since its last
   call.  promote_i and d_i are [Dseq.t]s: extending promote_i shares the
   old sequence, a promote carries it as it is, and an adopted one becomes
   d_i, so the adoption checks compare lengths first and then, for one
   leader's promotions, only the length difference. *)

open Simulator

type Msg.payload +=
  | Update of Causal_graph.t
  | Promote_seq of Dseq.t

(* Seedable single-decision mutants of the protocol, used by adversarial
   exploration (Harness.Builder) and the mutation-test harness to check
   that the checker/explorer stack actually detects the class of bug each
   mutation represents.  [None] is the faithful Algorithm 5. *)
type mutation =
  | Skip_dependency_wait
      (* UpdatePromote linearizes the whole graph instead of its
         dependency-closed part: messages whose causal past has not arrived
         are promoted anyway. *)
  | Forget_promote_prefix
      (* UpdatePromote linearizes from scratch instead of extending the
         previous promotion: revisions stop being extensions. *)
  | Drop_graph_union
      (* UnionCG replaced by overwrite: concurrently received graphs lose
         messages. *)
  | Disable_stale_guard
      (* Adopt reordered same-lineage promotions: d_i can revise backwards
         under non-FIFO links. *)

let all_mutations =
  [ Skip_dependency_wait; Forget_promote_prefix; Drop_graph_union;
    Disable_stale_guard ]

let mutation_name = function
  | Skip_dependency_wait -> "skip-dependency-wait"
  | Forget_promote_prefix -> "forget-promote-prefix"
  | Drop_graph_union -> "drop-graph-union"
  | Disable_stale_guard -> "disable-stale-guard"

let mutation_of_string s =
  List.find_opt (fun m -> mutation_name m = s) all_mutations

type t = {
  backend : Etob_intf.backend;
  tie_break : App_msg.t -> App_msg.t -> int;
  mutation : mutation option;
  mutable cg : Causal_graph.t;      (* CG_i *)
  mutable promote : Dseq.t;  (* promote_i *)
  mutable since : int;  (* ready nodes of CG_i that promote_i has placed *)
  mutable early : App_msg.Id_set.t;
  (* Ids placed in promote_i before they were ready nodes of CG_i: only a
     restored d_i does that (see [restore]), so this is almost always
     empty.  They must not be appended again once they become ready. *)
}

let broadcast t m =
  (* The dependencies C(m) travel inside m itself; the full graph travels in
     the update so receivers always hold every dependency of every node. *)
  Etob_intf.record_broadcast t.backend m;
  t.cg <- Causal_graph.add t.cg m;
  (Etob_intf.ctx_of t.backend).Engine.broadcast (Update t.cg)

let promotion t = t.promote

(* Replace promote_i by a sequence computed from scratch. *)
let set_promotion t seq =
  t.promote <- Dseq.of_list seq;
  t.since <- Causal_graph.ready_count t.cg

(* UpdatePromote: extend the promotion sequence to a causal linearization
   of the (dependency-closed part of the) current graph.  The dependency
   wait: only the part of the graph whose causal past has fully arrived is
   promotable.  A message can carry a dependency this process has never
   seen as a graph node (its deps come from an adopted promote, and the
   dependency's own update may still be in flight); promoting it now would
   lock it into the prefix ahead of the dependency and permanently violate
   causal order.

   The faithful protocol only ever adds to CG_i, and promote_i always holds
   every node that was ready at the previous call, so the extension is the
   nodes that became ready since then ([Causal_graph.promote_fresh]).  The
   mutants that break either invariant re-linearize from scratch. *)
let update_promote t =
  match t.mutation with
  | None | Some Disable_stale_guard ->
    let fresh =
      Causal_graph.promote_fresh ~tie_break:t.tie_break t.cg ~since:t.since
        ~placed:(fun id -> App_msg.Id_set.mem id t.early)
    in
    t.since <- Causal_graph.ready_count t.cg;
    t.promote <- Dseq.append t.promote fresh
  | Some (Skip_dependency_wait | Forget_promote_prefix | Drop_graph_union) ->
    let promotable =
      match t.mutation with
      | Some Skip_dependency_wait -> t.cg
      | _ -> Causal_graph.ready t.cg
    in
    let prefix =
      match t.mutation with
      | Some Forget_promote_prefix -> []
      | _ -> Dseq.to_list t.promote
    in
    set_promotion t (Causal_graph.linearize ~tie_break:t.tie_break promotable ~prefix)

(* Anti-entropy entry point (see Anti_entropy): merge a batch of messages
   learnt out-of-band — a digest-exchange delta, not an update(CG_j) — into
   the graph and re-run UpdatePromote, exactly as if their updates had
   arrived.  Idempotent: already-known messages change nothing. *)
let learn t msgs =
  t.cg <- List.fold_left Causal_graph.add t.cg msgs;
  update_promote t

let create ?(tie_break = Causal_graph.default_tie_break) ?mutation
    (ctx : Engine.ctx) ~omega =
  let stale_guard =
    match mutation with Some Disable_stale_guard -> false | _ -> true
  in
  let t =
    { backend = Etob_intf.backend ctx;
      tie_break;
      mutation;
      cg = Causal_graph.empty;
      promote = Dseq.empty;
      since = 0;
      early = App_msg.Id_set.empty }
  in
  let on_message ~src payload =
    match payload with
    | Update cg_j ->
      (match t.mutation with
       | Some Drop_graph_union -> t.cg <- cg_j
       | _ -> t.cg <- Causal_graph.union t.cg cg_j);
      update_promote t
    | Promote_seq seq ->
      (* Adopt only from the currently trusted leader, and ignore stale
         promotions: UpdatePromote makes one leader's promotions totally
         ordered by the prefix relation, so an incoming sequence that is a
         proper prefix of the current output is an older promotion arriving
         out of order (the links of Section 2 are reliable but not FIFO).
         Without this guard a reordered pair of promotes would revise d_i
         backwards even under a stable leader, violating claim (P2). *)
      let delivered = Etob_intf.current_of t.backend in
      if omega () = src
      && not (Dseq.equal seq delivered)
      && not (stale_guard && Dseq.is_prefix seq delivered)
      then Etob_intf.set_delivered t.backend seq
    | _ -> ()
  in
  let on_timer () =
    if omega () = ctx.Engine.self then ctx.Engine.broadcast (Promote_seq t.promote)
  in
  let on_input = function
    | Etob_intf.Broadcast_etob m -> broadcast t m
    | _ -> ()
  in
  let node = { Engine.on_message; on_timer; on_input } in
  (t, node)

(* Crash-recovery: reinstate the state replayed from a stable store (see
   Recoverable).  [msgs] are the known messages (graph nodes), [delivered]
   the last durable value of d_i.  Everything else is recomputed the same
   way the live protocol would: promote_i re-linearizes the dependency-
   closed graph over the delivered prefix, and the allocation state
   (next_sn, last own broadcast) is derived from the own messages among
   [msgs] — which the wrapper logs durably before sending, precisely so
   sequence numbers never regress across a restart.  The restored d_i is
   announced as one output revision, marking the recovery in the trace. *)
let restore t ~msgs ~delivered =
  t.cg <- List.fold_left Causal_graph.add Causal_graph.empty msgs;
  let ready = Causal_graph.ready t.cg in
  set_promotion t (Causal_graph.linearize ~tie_break:t.tie_break ready ~prefix:delivered);
  t.early <-
    App_msg.ids_of_seq
      (List.filter (fun m -> not (Causal_graph.mem ready (App_msg.id m))) delivered);
  let self = (Etob_intf.ctx_of t.backend).Engine.self in
  let own_sns =
    List.filter_map
      (fun m -> if m.App_msg.origin = self then Some m.App_msg.sn else None)
      (msgs @ delivered)
  in
  let next_sn = List.fold_left (fun acc sn -> max acc (sn + 1)) 0 own_sns in
  let last_own =
    if next_sn = 0 then None else Some (self, next_sn - 1)
  in
  Etob_intf.restore_backend t.backend ~next_sn ~last_own;
  Etob_intf.set_delivered t.backend (Dseq.of_list delivered)

let service t = Etob_intf.service_of t.backend ~broadcast:(fun m -> broadcast t m)

let graph t = t.cg
