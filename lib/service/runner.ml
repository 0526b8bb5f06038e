(* Run a client population against a replicated service, in one engine.

   Process layout: replicas occupy procs [0, r) and clients [r, r + c).
   The replica-group protocols (Omega, Algorithm 5, Paxos) are built with a
   *shimmed* ctx whose [n] is [r] and whose [broadcast] spans only the
   replicas, so quorum arithmetic and leader election are oblivious to the
   client processes sharing the engine.  The endpoint component uses the
   real ctx to talk to clients.

   The setup's delay and fault models (partitions included) apply to the
   replica fabric only; client<->endpoint links are constant unit delay and
   fault-free.  Clients therefore always reach a live endpoint, and any
   unavailability they observe is the protocol's — which is exactly what
   the E22 availability gate wants to measure.  Replica crash schedules
   extend over the widened process space untouched; clients never fail.

   Replicas serve a Kv machine behind the first-occurrence {!Dedup} filter,
   so cross-endpoint retry duplicates are dropped at apply time.  The
   runner re-derives each replica's deduplicated state from its raw log and
   checks the machine agrees — the "zero duplicate applies" CI gate. *)

open Simulator
open Simulator.Types
open Replication

module Dkv = Dedup.Make (Machines.Kv)
module Committed = Committed_replica.Make (Dkv)
module Plain = Replica.Make (Dkv)

type replica_view = {
  rv_log : unit -> Command.t list;
  rv_state : unit -> Dkv.state;
}

type handle = Replica_handle of replica_view | Client_handle of Client.t

type outcome = {
  trace : Trace.t;
  digest : string;
  report : Metrics.t;
  replicas : int;
  horizon : time;
  dedup_ok : bool;
  duplicates_delivered : int;
  suppressed : int;
}

let find_in map key = Machines.String_map.find_opt key map

(* Extend the replica-side crash/recovery schedule over the widened
   process space; clients never fail. *)
let widen_pattern base ~r ~n_total =
  let p = ref (Failures.none ~n:n_total) in
  for q = 0 to r - 1 do
    (match Failures.crash_time base q with
     | Some t -> p := Failures.crash_at !p q t
     | None -> ());
    List.iter
      (fun (at, recover_at) -> p := Failures.crash_recover_at !p q ~at ~recover_at)
      (Failures.downtimes base q)
  done;
  !p

let engine_config (setup : Harness.Stacks.setup) ~(spec : Harness.Service_spec.t) =
  let r = setup.n in
  let n_total = r + spec.clients in
  let base = Harness.Stacks.engine_config setup in
  let fabric_only_delay =
    Net.per_run (fun () ->
        let fabric = Net.instantiate base.delay in
        fun ~src ~dst ~now ~rng ->
          if src < r && dst < r then fabric ~src ~dst ~now ~rng else 1)
  in
  let fabric_only_faults =
    match Net.instantiate_faults base.faults with
    | None -> Net.no_faults
    | Some _ ->
      Net.fault_per_run (fun () ->
          match Net.instantiate_faults base.faults with
          | None -> fun ~src:_ ~dst:_ ~now:_ ~rng:_ -> Net.Deliver
          | Some f ->
            fun ~src ~dst ~now ~rng ->
              if src < r && dst < r then f ~src ~dst ~now ~rng else Net.Deliver)
  in
  { base with
    n = n_total;
    pattern = widen_pattern base.pattern ~r ~n_total;
    delay = fabric_only_delay;
    faults = fabric_only_faults;
    sink = None (* metrics and the digest need the recorded trace *) }

let replica_node setup impl (spec : Harness.Service_spec.t) ctx =
  let r = (setup : Harness.Stacks.setup).n in
  let rctx =
    Engine.
      { ctx with
        n = r;
        broadcast =
          (fun payload ->
            for q = 0 to r - 1 do
              ctx.send q payload
            done) }
  in
  let omega, omega_node = Harness.Stacks.omega_module setup rctx in
  let protocol_nodes, view, views =
    match (impl : Harness.Stacks.etob_impl) with
    | Algorithm_5 ->
      let etob, etob_node = Ec_core.Etob_omega.create rctx ~omega in
      let rep, rep_node =
        Committed.create rctx
          ~etob:(Ec_core.Etob_omega.service etob)
          ~omega
          ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
      in
      let view =
        { rv_log = (fun () -> Committed.speculative_log rep);
          rv_state = (fun () -> Committed.speculative_state rep) }
      in
      let views =
        Endpoint.
          { weak_find =
              (fun key -> find_in (Dkv.inner (Committed.speculative_state rep)) key);
            strong_find =
              (fun key -> find_in (Dkv.inner (Committed.committed_state rep)) key);
            weak_has =
              (fun ~client ~rid ->
                Dkv.has (Committed.speculative_state rep) ~client ~rid);
            strong_has =
              (fun ~client ~rid ->
                Dkv.has (Committed.committed_state rep) ~client ~rid);
            submit = Committed.submit rep }
      in
      ([ etob_node; rep_node ], view, views)
    | Paxos_baseline ->
      let paxos, paxos_node = Consensus.Paxos_tob.create rctx ~omega in
      let rep, rep_node =
        Plain.create rctx ~etob:(Consensus.Paxos_tob.service paxos)
      in
      (* One applied log: the strong and weak views coincide. *)
      let view =
        { rv_log = (fun () -> Plain.log rep); rv_state = (fun () -> Plain.state rep) }
      in
      let views =
        Endpoint.
          { weak_find = (fun key -> find_in (Dkv.inner (Plain.state rep)) key);
            strong_find = (fun key -> find_in (Dkv.inner (Plain.state rep)) key);
            weak_has = (fun ~client ~rid -> Dkv.has (Plain.state rep) ~client ~rid);
            strong_has = (fun ~client ~rid -> Dkv.has (Plain.state rep) ~client ~rid);
            submit = Plain.submit rep }
      in
      ([ paxos_node; rep_node ], view, views)
    | Algorithm_1_over_4 ->
      invalid_arg
        "Service.Runner: the service layer runs over Algorithm 5 or the Paxos \
         baseline"
  in
  let _, ep_node = Endpoint.create ctx ~spec ~views in
  (* Endpoint last: its polls must see this step's deliveries. *)
  (Engine.stack ((omega_node :: protocol_nodes) @ [ ep_node ]), Replica_handle view)

let dedup_check view =
  let log = view.rv_log () in
  let state = view.rv_state () in
  let replayed = Machines.replay (module Machines.Kv) (Dedup.filter log) in
  String.equal (Machines.Kv.digest replayed) (Machines.Kv.digest (Dkv.inner state))
  && Dkv.suppressed state = Dedup.duplicates log

let run ~setup ~spec ~impl =
  let r = (setup : Harness.Stacks.setup).n in
  let spec =
    match Harness.Service_spec.validate spec with
    | Ok spec -> spec
    | Error msg -> invalid_arg ("Service.Runner: " ^ msg)
  in
  let cfg = engine_config setup ~spec in
  let make_node ctx =
    if Engine.(ctx.self) < r then replica_node setup impl spec ctx
    else
      let client, node =
        Client.create ctx ~spec ~replicas:r ~index:(Engine.(ctx.self) - r)
      in
      (node, Client_handle client)
  in
  let trace, handles = Engine.run_with cfg ~make_node ~inputs:[] in
  let views =
    Array.to_list handles
    |> List.filter_map (function Replica_handle v -> Some v | _ -> None)
  in
  let horizon = (setup : Harness.Stacks.setup).deadline in
  { trace;
    digest = Trace.digest trace;
    report = Metrics.of_trace ~spec ~horizon trace;
    replicas = r;
    horizon;
    dedup_ok = List.for_all dedup_check views;
    duplicates_delivered =
      List.fold_left (fun acc v -> acc + Dedup.duplicates (v.rv_log ())) 0 views;
    suppressed =
      List.fold_left (fun acc v -> acc + Dkv.suppressed (v.rv_state ())) 0 views }

let run_builder b =
  match (b : Harness.Builder.t).service with
  | None -> Error "spec has no service line"
  | Some spec ->
    (match b.stack with
     | Harness.Builder.Etob ((Algorithm_5 | Paxos_baseline) as impl) ->
       Ok (run ~setup:(Harness.Builder.setup_of b) ~spec ~impl)
     | _ ->
       Error
         "the service layer runs over stack etob alg5 or the paxos baseline")
