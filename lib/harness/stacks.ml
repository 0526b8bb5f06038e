(* Hand-wired stacks: protocols, detectors, workloads and the engine, glued
   together process by process.  The one API for runs a declarative
   [Builder.t] cannot describe (a hand-built failure pattern or sink, raw
   engine inputs, protocol handles back from the run), and the layer
   [Builder.run] dispatches to.  Nothing here knows about adversity plans
   or spec files. *)

open Simulator
open Simulator.Types
open Ec_core

(* Where each process's Omega module comes from: a history oracle (the
   paper's model) or the heartbeat-based emulation (a running system). *)
type omega_source =
  | Oracle of { stabilize_at : time; pre : Detectors.Omega.pre_behaviour }
  | Elected of { initial_timeout : int }

type setup = {
  n : int;
  seed : int;
  deadline : time;
  timer_period : int;
  delay : Net.model;
  faults : Net.fault_model;
  pattern : Failures.pattern;
  omega : omega_source;
  sink : Sink.t option;
}

let default ~n ~deadline =
  { n;
    seed = 42;
    deadline;
    timer_period = 2;
    delay = Net.constant 1;
    faults = Net.no_faults;
    pattern = Failures.none ~n;
    omega = Oracle { stabilize_at = 0; pre = Detectors.Omega.Self_trust };
    sink = None }

let engine_config setup =
  { Engine.n = setup.n;
    pattern = setup.pattern;
    delay = setup.delay;
    faults = setup.faults;
    timer_period = setup.timer_period;
    seed = setup.seed;
    deadline = setup.deadline;
    sink = setup.sink }

(* Per-process Omega module: a query closure plus the protocol component
   that maintains it (idle for oracles). *)
let omega_module setup =
  match setup.omega with
  | Oracle { stabilize_at; pre } ->
    let oracle = Detectors.Omega.make ~pre setup.pattern ~stabilize_at in
    fun ctx -> (Detectors.Omega.module_of oracle ctx, Engine.idle_node)
  | Elected { initial_timeout } ->
    fun ctx ->
      let election, node = Detectors.Omega_election.create ctx ~initial_timeout in
      ((fun () -> Detectors.Omega_election.leader election), node)

(* The nominal stabilization time tau_Omega of the setup's detector; None
   for the emulation (its stabilization is a run property, not a config). *)
let omega_stabilization setup =
  match setup.omega with
  | Oracle { stabilize_at; _ } -> Some stabilize_at
  | Elected _ -> None

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A [Post tag] input asks the process to broadcast a fresh message with
   genuine causal dependencies (allocated through the service), which is
   what realistic clients do; tests that need hand-crafted dependencies use
   Etob_intf.Broadcast_etob directly. *)
type Io.input += Post of string

let post_driver (service : Etob_intf.service) =
  { Engine.on_message = (fun ~src:_ _ -> ());
    on_timer = (fun () -> ());
    on_input = (function
      | Post tag -> service.Etob_intf.broadcast (service.Etob_intf.fresh_msg ~tag ())
      | Etob_intf.Broadcast_etob m -> service.Etob_intf.broadcast m
      | _ -> ()) }

(* [spread_posts ~n ~count ~from_time ~every] posts one message at a time
   from round-robin senders: the generic broadcast workload. *)
let spread_posts ~n ~count ~from_time ~every =
  List.init count (fun i ->
      (from_time + (i * every), i mod n, Post (Printf.sprintf "m%d" i)))

(* ------------------------------------------------------------------ *)
(* Stacks                                                              *)
(* ------------------------------------------------------------------ *)

type etob_impl = Algorithm_5 | Paxos_baseline | Algorithm_1_over_4

(* One process's ETOB implementation over [omega]: its service handle and
   protocol component.  [mutation] seeds a bug into Algorithm 5 (ignored
   by the other stacks — the mutation harness targets Algorithm 5
   only). *)
let etob_impl_node ?mutation impl ctx ~omega =
  match impl with
  | Algorithm_5 ->
    let t, node = Etob_omega.create ?mutation ctx ~omega in
    (Etob_omega.service t, node)
  | Paxos_baseline ->
    let t, node = Consensus.Paxos_tob.create ctx ~omega in
    (Consensus.Paxos_tob.service t, node)
  | Algorithm_1_over_4 ->
    let ec, ec_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
    let t, node = Ec_to_etob.create ctx ~ec:(Ec_omega.service ec) in
    (Ec_to_etob.service t, Engine.combine ec_node node)

(* Build one process of the chosen ETOB implementation; returns the node
   and the ETOB service handle. *)
let etob_node ?mutation setup impl =
  let omega_of = omega_module setup in
  fun ctx ->
    let omega, omega_node = omega_of ctx in
    let service, proto_node = etob_impl_node ?mutation impl ctx ~omega in
    (Engine.stack [ omega_node; proto_node; post_driver service ], service)

(* Run [make_node] on every process and keep only the trace. *)
let run_trace setup ~inputs make_node =
  fst (Engine.run_with (engine_config setup) ~make_node ~inputs)

let run_etob ?(inputs = []) ?mutation setup impl =
  run_trace setup ~inputs (etob_node ?mutation setup impl)

let etob_report setup trace =
  Properties.etob_report (Properties.etob_run_of_trace setup.pattern trace)

(* Algorithm 5 plus the anti-entropy catch-up component: the
   partition-hardened crash-stop stack.  AE reads the protocol's graph and
   feeds digest-exchange deltas back through [Etob_omega.learn], so an
   isolated replica resynchronizes after a lossy partition heals. *)
let etob_ae_node ?mutation ?ae_config ?ae_mutation setup =
  let omega_of = omega_module setup in
  fun ctx ->
    let omega, omega_node = omega_of ctx in
    let t, node = Etob_omega.create ?mutation ctx ~omega in
    let ae, ae_node =
      Anti_entropy.create ?config:ae_config ?mutation:ae_mutation ctx
        ~graph:(fun () -> Etob_omega.graph t)
        ~learn:(Etob_omega.learn t)
    in
    ( Engine.stack [ omega_node; node; ae_node; post_driver (Etob_omega.service t) ],
      (t, ae) )

let run_etob_ae ?(inputs = []) ?mutation ?ae_config ?ae_mutation setup =
  Engine.run_with (engine_config setup)
    ~make_node:(etob_ae_node ?mutation ?ae_config ?ae_mutation setup)
    ~inputs

(* The crash-recovery stack: Algorithm 5 under the Recoverable wrapper
   (durable log + retransmission links), one stable store per process.
   The driver here handles [Post] only: the wrapper's own node intercepts
   Broadcast_etob (so the durable path runs exactly once), and stacking
   the full [post_driver] beside it would dispatch every broadcast
   twice. *)
let recoverable_post_driver (service : Etob_intf.service) =
  { Engine.on_message = (fun ~src:_ _ -> ());
    on_timer = (fun () -> ());
    on_input = (function
      | Post tag -> service.Etob_intf.broadcast (service.Etob_intf.fresh_msg ~tag ())
      | _ -> ()) }

let recoverable_node ?rconfig ?mutation ?etob_mutation ?commits ?ae
    ?ae_mutation setup ~stores =
  let omega_of = omega_module setup in
  fun ctx ->
    let omega, omega_node = omega_of ctx in
    let t, node, service =
      Recoverable.create ?config:rconfig ?mutation ?etob_mutation ?commits
        ?anti_entropy:ae ?ae_mutation ~store:stores.(ctx.Engine.self) ~omega
        ctx
    in
    (Engine.stack [ omega_node; node; recoverable_post_driver service ], t)

let run_recoverable ?(inputs = []) ?rconfig ?mutation ?etob_mutation ?commits
    ?ae ?ae_mutation ?stores setup =
  let stores =
    match stores with
    | Some stores -> stores
    | None -> Persist.Store.pool ~n:setup.n
  in
  let trace, handles =
    Engine.run_with (engine_config setup)
      ~make_node:(recoverable_node ?rconfig ?mutation ?etob_mutation ?commits
                    ?ae ?ae_mutation setup ~stores)
      ~inputs
  in
  (trace, handles, stores)

(* The leaderless gossip-ordering baseline: no Omega anywhere. *)
let run_gossip_order ?(inputs = []) setup =
  run_trace setup ~inputs (fun ctx ->
      let t, node = Gossip_order.create ctx in
      (Engine.combine node (post_driver (Gossip_order.service t)), ()))

(* Algorithm 5 plus the Section 7 committed-prefix indication component. *)
let run_etob_with_commits ?(inputs = []) setup =
  let omega_of = omega_module setup in
  run_trace setup ~inputs (fun ctx ->
      let omega, omega_node = omega_of ctx in
      let t, etob_node = Etob_omega.create ctx ~omega in
      let service = Etob_omega.service t in
      let _, commit_node =
        Commit_prefix.create ctx ~omega ~etob:service
          ~promotion:(fun () -> Etob_omega.promotion t)
      in
      let nodes = [ omega_node; etob_node; commit_node; post_driver service ] in
      (Engine.stack nodes, ()))

(* The EC stacks: [layers ctx ~omega] builds the protocol layers under test
   and returns their EC service, which the self-driving proposer drives. *)
let run_ec_driven ~inputs setup ~propose_value ~max_instance layers =
  let omega_of = omega_module setup in
  run_trace setup ~inputs (fun ctx ->
      let omega, omega_node = omega_of ctx in
      let service, nodes = layers ctx ~omega in
      let _, driver_node =
        Ec_driver.attach service
          ~propose_value:(propose_value ctx.Engine.self) ~max_instance
      in
      (Engine.stack ((omega_node :: nodes) @ [ driver_node ]), ()))

(* Bare EC (Algorithm 4) with the self-driving proposer. *)
let run_ec_omega ?(inputs = []) setup ~propose_value ~max_instance =
  run_ec_driven ~inputs setup ~propose_value ~max_instance (fun ctx ~omega ->
      let ec, ec_node = Ec_omega.create ctx ~omega in
      (Ec_omega.service ec, [ ec_node ]))

(* Multivalued EC through the binary lift over binary Algorithm 4. *)
let run_ec_lifted ?(inputs = []) setup ~propose_value ~max_instance =
  run_ec_driven ~inputs setup ~propose_value ~max_instance (fun ctx ~omega ->
      let binary, binary_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
      let lift, lift_node =
        Binary_lift.create ctx ~binary:(Ec_omega.service binary)
      in
      (Binary_lift.service lift, [ binary_node; lift_node ]))

(* EC obtained through Algorithm 2 over an ETOB implementation. *)
let run_ec_via_etob ?(inputs = []) setup impl ~propose_value ~max_instance =
  run_ec_driven ~inputs setup ~propose_value ~max_instance (fun ctx ~omega ->
      let etob_service, etob_node = etob_impl_node impl ctx ~omega in
      let ec, ec_node = Etob_to_ec.create ctx ~etob:etob_service in
      (Etob_to_ec.service ec, [ etob_node; ec_node ]))

(* EIC obtained through Algorithm 6 over Algorithm 4, driven like EC. *)
let run_eic_over_ec ?(inputs = []) setup ~propose_value ~max_instance =
  let omega_of = omega_module setup in
  run_trace setup ~inputs (fun ctx ->
      let omega, omega_node = omega_of ctx in
      let ec, ec_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
      let eic, eic_node = Ec_to_eic.create ctx ~ec:(Ec_omega.service ec) in
      let eic_service = Ec_to_eic.service eic in
      (* Drive the EIC usage assumption: propose instance l+1 after the
         first response to instance l. *)
      let proposed = ref 0 in
      let responded = Hashtbl.create 16 in
      let propose_next () =
        let next = !proposed + 1 in
        if next <= max_instance then begin
          proposed := next;
          eic_service.Eic_intf.propose ~instance:next
            (propose_value ctx.Engine.self ~instance:next)
        end
      in
      eic_service.Eic_intf.on_decide (fun (d : Eic_intf.decision) ->
          if not (Hashtbl.mem responded d.Eic_intf.instance) then begin
            Hashtbl.add responded d.Eic_intf.instance ();
            if d.Eic_intf.instance = !proposed then propose_next ()
          end);
      let driver =
        { Engine.on_message = (fun ~src:_ _ -> ());
          on_timer = (fun () -> if !proposed = 0 then propose_next ());
          on_input = (fun _ -> ()) }
      in
      (Engine.stack [ omega_node; ec_node; eic_node; driver ], ()))

(* EC recovered through Algorithm 7 over (Algorithm 6 over Algorithm 4). *)
let run_ec_via_eic ?(inputs = []) setup ~propose_value ~max_instance =
  run_ec_driven ~inputs setup ~propose_value ~max_instance (fun ctx ~omega ->
      let ec0, ec0_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
      let eic, eic_node = Ec_to_eic.create ctx ~ec:(Ec_omega.service ec0) in
      let ec, ec_node = Eic_to_ec.create ctx ~eic:(Ec_to_eic.service eic) in
      (Eic_to_ec.service ec, [ ec0_node; eic_node; ec_node ]))

let () =
  Io.register_input_pp (fun ppf -> function
    | Post tag -> Fmt.pf ppf "post(%s)" tag; true
    | _ -> false)
