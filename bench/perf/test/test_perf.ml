(* Negative controls for the E24 benchmark's own checks, plus the traced
   rebuild's faithfulness at a tiny size. *)

open Ec_core
open Perfbench

let msg ?(deps = []) origin sn = App_msg.make ~origin ~sn ~deps ()

(* A chain a -> b -> c plus an independent d: every final sequence below
   is checked against these four broadcasts on three processes. *)
let a = msg 0 0
let b = msg 1 0 ~deps:[ (0, 0) ]
let c = msg 2 0 ~deps:[ (1, 0) ]
let d = msg 0 1 ~deps:[ (0, 0) ]
let broadcasts = [ a; b; c; d ]
let good = [ a; b; d; c ]
let errors seq =
  Check.final_state_errors ~broadcasts ~finals:[ (0, seq); (1, seq); (2, seq) ]

let check_final () =
  Alcotest.(check (list string)) "a correct final state passes" [] (errors good);
  let rejects what seq =
    Alcotest.(check bool) ("rejects " ^ what) true (errors seq <> [])
  in
  rejects "a dropped message" [ a; b; d ];
  rejects "a duplicated message" [ a; b; d; c; b ];
  rejects "a dependant ahead of its dependency" [ a; c; b; d ];
  Alcotest.(check bool)
    "rejects disagreement" true
    (Check.final_state_errors ~broadcasts ~finals:[ (0, good); (1, [ a; d; b; c ]) ]
     <> [])

let check_golden () =
  let golden = Check.parse_golden "# comment\nalg5-long 1 0123abcd\n" in
  Alcotest.(check (option string))
    "matching fingerprint" None
    (Check.golden_error ~golden ~workload:"alg5-long" ~seed:1 "0123abcd");
  Alcotest.(check (option string))
    "unpinned seed" None
    (Check.golden_error ~golden ~workload:"alg5-long" ~seed:2 "ffff");
  let perturbed = Check.parse_golden "alg5-long 1 0123abce\n" in
  Alcotest.(check bool)
    "perturbed golden line fails" true
    (Check.golden_error ~golden:perturbed ~workload:"alg5-long" ~seed:1 "0123abcd"
     <> None);
  Alcotest.(check (list string))
    "committed golden pins every workload at seed 1" Workloads.names
    (List.filter (fun w -> List.mem_assoc (w, 1) Check.golden) Workloads.names)

let tiny name = Workloads.run ~sizes:Workloads.tiny name ~seed:1 ~trace:true ~tmp:"."
let names_units = List.map (fun (n, _, u) -> (n, u))

(* The traced rebuild reproduces the untraced run (fingerprint equality is
   one of the unit's checks), and every workload reports the same
   per-layer metrics. *)
let traced_equals_untraced name () =
  let r = tiny name in
  Alcotest.(check (list string)) "no failed check" [] r.Workloads.errors;
  Alcotest.(check bool) "did work" true (r.Workloads.events > 0 && r.Workloads.ops > 0);
  Alcotest.(check (list (pair string string)))
    "per-layer metrics"
    (names_units (tiny "alg5-long").Workloads.layers)
    (names_units r.Workloads.layers)

(* BENCHMARK.json names exactly the metrics the benchmark prints. *)
let benchmark_json () =
  let text = In_channel.with_open_text "../../../BENCHMARK.json" In_channel.input_all in
  let re = Str.regexp {|"name": "\([^"]*\)", "unit": "\([^"]*\)"|} in
  let rec declared pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> List.rev acc
    | _ ->
      declared (Str.match_end ())
        ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
  in
  let r = tiny "alg5-long" in
  Alcotest.(check (list (pair string string)))
    "metric names and units"
    (names_units (List.map fst (Workloads.end_to_end r) @ r.Workloads.layers))
    (declared 0 [])

let () =
  Alcotest.run "perf"
    [ ( "checks",
        [ Alcotest.test_case "final-state check" `Quick check_final;
          Alcotest.test_case "golden fingerprints" `Quick check_golden;
          Alcotest.test_case "BENCHMARK.json metrics" `Quick benchmark_json ] );
      ( "traced",
        List.map
          (fun name -> Alcotest.test_case name `Quick (traced_equals_untraced name))
          Workloads.names ) ]
