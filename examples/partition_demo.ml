(* Partition demo: eventual consistency vs strong consistency under a
   network partition — the motivation of the paper in one run.

   Five processes split into a majority block {p0,p1,p2} and a minority
   block {p3,p4} from t=5 to t=60.  During the partition, Omega outputs a
   different leader on each side (the Blockwise pre-behaviour).  Both
   blocks keep writing.

   - Over ETOB (Algorithm 5), BOTH sides keep delivering — including the
     minority — and converge shortly after the partition heals.
   - Over the Paxos baseline, only proposals that reach a majority commit:
     the minority side is unavailable for the whole partition.

     dune exec examples/partition_demo.exe *)

open Simulator
open Ec_core

let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ]
let heal = 60

let setup () =
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n:5 ~deadline:180) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = Harness.Stacks.Oracle
        { stabilize_at = heal; pre = Detectors.Omega.Blockwise blocks } }

let inputs =
  [ (10, 0, Harness.Stacks.Post "maj-write-1");
    (15, 3, Harness.Stacks.Post "min-write-1");
    (25, 1, Harness.Stacks.Post "maj-write-2");
    (30, 4, Harness.Stacks.Post "min-write-2") ]

let describe name trace pattern =
  let run = Properties.etob_run_of_trace pattern trace in
  Format.printf "@.%s:@." name;
  print_string (Harness.Timeline.render ~width:64 ~pattern trace);
  let show_at t =
    Format.printf "  t=%3d  d_p0 = %a@." t App_msg.pp_seq (Properties.d_at run 0 t);
    Format.printf "         d_p3 = %a@." App_msg.pp_seq (Properties.d_at run 3 t)
  in
  show_at 50;   (* during the partition *)
  show_at 120;  (* well after healing *)
  let report = Properties.etob_report run in
  Format.printf "  convergence time: %d (partition healed at %d)@."
    (Properties.etob_convergence_time report) heal;
  Format.printf "  causal order: %s; agreement: %s@."
    (if report.Properties.causal_order.Properties.ok then "held throughout" else "VIOLATED")
    (if report.Properties.agreement.Properties.ok then "ok" else "VIOLATED")

let () =
  print_endline "partition demo: 5 processes, minority block {p3,p4}, heal at t=60";
  let s = setup () in
  let etob_trace = Harness.Stacks.run_etob ~inputs s Harness.Stacks.Algorithm_5 in
  describe "ETOB (Algorithm 5)" etob_trace s.Harness.Stacks.pattern;
  let s = setup () in
  let paxos_trace = Harness.Stacks.run_etob ~inputs s Harness.Stacks.Paxos_baseline in
  describe "strong TOB (Paxos baseline)" paxos_trace s.Harness.Stacks.pattern;
  print_endline "";
  print_endline "Note how at t=50 the ETOB minority side has delivered its own";
  print_endline "writes (availability under partition), while under Paxos the";
  print_endline "minority delivers nothing it initiated until the heal.  This";
  print_endline "availability gap is exactly the failure detector Sigma: strong";
  print_endline "consistency needs Omega + Sigma, eventual consistency only Omega."
