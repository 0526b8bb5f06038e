(* An eventually consistent key-value store, Dynamo-style.

   Five replicas run a KV state machine over ETOB (Algorithm 5), with the
   heartbeat-based Omega emulation — no oracle anywhere, every component is
   a running protocol.  A crash and concurrent writes to the same key show
   the divergence window and the convergence the paper's abstractions
   guarantee.

     dune exec examples/kv_store.exe *)

open Simulator
open Replication

module Kv_replica = Replica.Make (Machines.Kv)

let () =
  print_endline "kv_store: 5 replicas, elected leader, one crash, conflicting writes";
  let n = 5 in
  let pattern = Failures.of_crashes ~n [ (0, 70) ] in
  let setup =
    { (Harness.Stacks.default ~n ~deadline:300) with
      pattern;
      delay = Net.uniform ~min:1 ~max:3;
      (* A real leader election: p0 leads until it crashes at t=70, then the
         survivors elect p1. *)
      omega = Harness.Stacks.Elected { initial_timeout = 6 } }
  in
  let make_node ctx =
    let proto_node, etob =
      Harness.Stacks.etob_node setup Harness.Stacks.Algorithm_5 ctx
    in
    let replica, replica_node = Kv_replica.create ctx ~etob in
    (Engine.stack [ proto_node; replica_node ], replica)
  in
  let put t p k v = (t, p, Replica.Submit (Command.put k v)) in
  let inputs =
    [ put 20 1 "user" "alice";
      put 25 3 "user" "bob";  (* conflicting write to the same key *)
      put 40 2 "cart" "3-items";
      put 100 1 "status" "post-crash";  (* after the leader crashed *)
      put 120 4 "cart" "4-items" ]
  in
  let trace, replicas =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  print_endline "final replica states:";
  Array.iteri
    (fun p replica ->
       if Failures.is_correct pattern p then
         Format.printf "  p%d: {%s}@." p (Kv_replica.digest replica))
    replicas;
  let run = Convergence.run_of_trace pattern trace in
  Format.printf "converged: %b, convergence time: %d@."
    (Convergence.converged run) (Convergence.convergence_time run);
  Format.printf "divergence window: %d ticks; visible rollbacks: %d@."
    (Convergence.divergence_ticks ~from_time:20 run)
    (Convergence.total_rollbacks run);
  print_endline "";
  print_endline "The conflicting writes to \"user\" were ordered the same way at";
  print_endline "every replica (last-writer-in-the-total-order wins), the crash of";
  print_endline "the elected leader was absorbed by re-election, and writes issued";
  print_endline "after the crash still committed: Omega alone suffices."
