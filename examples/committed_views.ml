(* Committed vs speculative reads: the Section 7 extension, end to end.

   A replicated KV store over Algorithm 5 exposes two views at every
   replica: the speculative state (applies the full delivered sequence —
   fresh, revisable while leaders disagree) and the committed state
   (applies only the majority-certified prefix — possibly stale, never
   rolled back).  A partition makes the difference visible: the minority
   side's speculative view contains its own writes immediately, while its
   committed view withholds them until the heal.

     dune exec examples/committed_views.exe *)

open Simulator
open Replication

module Dual = Committed_replica.Make (Machines.Kv)

let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ]
let heal = 60

let () =
  print_endline "committed_views: speculative vs committed reads across a partition";
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  let setup =
    { (Harness.Stacks.default ~n:5 ~deadline:150) with
      delay = Net.partitioned spec ~base:(Net.constant 1);
      omega = Harness.Stacks.Oracle
          { stabilize_at = heal; pre = Detectors.Omega.Blockwise blocks } }
  in
  (* Probe the two views at chosen instants via handles collected here. *)
  let probes : (int * int * string * string) list ref = ref [] in
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    let prober =
      { Engine.idle_node with
        on_input = (function
          | Io.String_input "probe" ->
            probes := (ctx.Engine.now (), ctx.Engine.self,
                       Dual.speculative_digest replica,
                       Dual.committed_digest replica) :: !probes
          | _ -> ()) }
    in
    (Engine.stack [ omega_node; etob_node; replica_node; prober ], replica)
  in
  let inputs =
    [ (10, 0, Replica.Submit (Command.put "seen-by" "majority"));
      (12, 3, Replica.Submit (Command.put "drafted-by" "minority"));
      (* Probe both sides during the partition and after healing. *)
      (45, 0, Io.String_input "probe"); (45, 3, Io.String_input "probe");
      (120, 0, Io.String_input "probe"); (120, 3, Io.String_input "probe") ]
  in
  let trace, replicas =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  List.iter
    (fun (t, p, speculative, committed) ->
       Format.printf "  t=%3d p%d  speculative {%s}@." t p speculative;
       Format.printf "            committed   {%s}@." committed)
    (List.rev !probes);
  Format.printf "@.final states (all replicas):@.";
  Array.iteri
    (fun p r ->
       Format.printf "  p%d: speculative {%s} / committed {%s}@." p
         (Dual.speculative_digest r) (Dual.committed_digest r))
    replicas;
  Format.printf "@.committed view monotone everywhere: %b@."
    (Committed_replica.committed_monotone setup.Harness.Stacks.pattern trace);
  print_endline "";
  print_endline "During the partition (t=45), p3's speculative view already shows";
  print_endline "its local draft while its committed view withholds it: nothing is";
  print_endline "certified without a majority of acknowledgments.  After healing,";
  print_endline "both views converge — and no committed read was ever rolled back."
