(* Quickstart: a replicated counter over eventual total order broadcast.

   Three processes run Algorithm 5 (ETOB from Omega) and a counter state
   machine on top.  Clients submit increments at different replicas; once
   the broadcast layer stabilizes, every replica has applied the same
   sequence and holds the same value.

     dune exec examples/quickstart.exe *)

open Simulator
open Replication

module Counter_replica = Replica.Make (Machines.Counter)

let () =
  print_endline "quickstart: a replicated counter over ETOB (Algorithm 5)";
  let n = 3 in
  (* Omega as an oracle that stabilizes at time 0: the common case of a
     stable deployment.  Swap in `Elected { initial_timeout = 6 }` to run
     the heartbeat-based leader election instead. *)
  let setup =
    { (Harness.Stacks.default ~n ~deadline:100) with
      omega = Harness.Stacks.Oracle { stabilize_at = 0;
                                      pre = Detectors.Omega.Self_trust } }
  in
  (* Each process: the ETOB protocol plus a counter replica on top. *)
  let make_node ctx =
    let proto_node, etob =
      Harness.Stacks.etob_node setup Harness.Stacks.Algorithm_5 ctx
    in
    let replica, replica_node = Counter_replica.create ctx ~etob in
    (Engine.stack [ proto_node; replica_node ], replica)
  in
  (* The workload: three clients, one increment each. *)
  let inputs =
    [ (5, 0, Replica.Submit (Command.incr 3));
      (8, 1, Replica.Submit (Command.incr 4));
      (12, 2, Replica.Submit (Command.incr 35)) ]
  in
  let trace, replicas =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  Array.iteri
    (fun p replica ->
       Format.printf "  replica p%d: value = %d, applied %d commands@." p
         (Counter_replica.state replica)
         (List.length (Counter_replica.log replica)))
    replicas;
  (* And the formal view: the run satisfies the ETOB specification. *)
  let report = Harness.Stacks.etob_report setup trace in
  Format.printf "  broadcast layer: %a@." Ec_core.Properties.pp_etob_report report;
  if Ec_core.Properties.is_strong_tob report then
    print_endline "  (omega was stable from the start, so the run is even strong TOB)"
