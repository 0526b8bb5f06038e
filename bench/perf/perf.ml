(* E24 performance ledger: the benchmark's command line.

     perf.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1]

   For each workload (all four without --workload) the coordinator runs
   units, each in a fresh child process (this executable with --unit).
   For the first half of T seconds every unit takes a fresh seed, S,
   S + 1, ...; for the second half the same seeds run again, in order.
   Each end-to-end metric is the median over the seeds of the seed's best
   unit: bursts of load on the host only ever slow a unit down, and the
   two runs of a seed are far apart in time.  Per-layer metrics (--trace
   1) are medians over all units.  The last line of output is one JSON
   object with the verdict and the metrics; the exit code is 1 when any
   check failed. *)

open Perfbench

let min_seeds = 3

(* Scratch directory: soak journals, span dumps. *)
let tmp = "_perf"

(* {2 Child side} *)

let child ~workload ~seed ~trace =
  let r = Workloads.run workload ~seed ~trace ~tmp in
  Printf.printf "ops %d\nfailed %d\nfingerprint %s\n" r.Workloads.ops r.Workloads.failed
    r.Workloads.fingerprint;
  List.iter
    (fun e -> Printf.printf "error %s\n" (String.map (function '\n' -> ' ' | c -> c) e))
    r.Workloads.errors;
  let metric better (name, v, unit) =
    Printf.printf "metric %s %.17g %s %s\n" name v unit better
  in
  if trace then List.iter (metric "-") r.Workloads.layers
  else
    List.iter
      (function
        | m, `Higher -> metric "higher" m
        | m, `Lower -> metric "lower" m)
      (Workloads.end_to_end r)

(* {2 Coordinator side} *)

type report = {
  seed : int;
  ops : int;
  failed : int;
  fingerprint : string;
  metrics : (string * float * string * string) list;  (** name, value, unit, better *)
  errors : string list;
}

let parse ~seed out =
  List.fold_left
    (fun r line ->
       match String.split_on_char ' ' line with
       | [ "ops"; n ] -> { r with ops = int_of_string n }
       | [ "failed"; n ] -> { r with failed = int_of_string n }
       | [ "fingerprint"; fp ] -> { r with fingerprint = fp }
       | [ "metric"; name; v; unit; better ] ->
         { r with metrics = r.metrics @ [ (name, float_of_string v, unit, better) ] }
       | "error" :: words -> { r with errors = r.errors @ [ String.concat " " words ] }
       | _ -> r)
    { seed; ops = 0; failed = 0; fingerprint = "-"; metrics = []; errors = [] }
    (String.split_on_char '\n' out)

let spawn ~workload ~seed ~trace =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [| exe; "--unit"; workload; "--seed"; string_of_int seed; "--trace";
       (if trace then "1" else "0") |]
  in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let r = parse ~seed out in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> r
  | _ -> { r with errors = r.errors @ [ Printf.sprintf "unit at seed %d failed" seed ] }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* End-to-end metrics: the median over seeds of each seed's best value.
   Per-layer metrics: the median over units. *)
let summarize = function
  | [] -> []
  | first :: _ as units ->
    let by_seed =
      List.map
        (fun s -> List.filter (fun u -> u.seed = s) units)
        (List.sort_uniq Int.compare (List.map (fun u -> u.seed) units))
    in
    List.map
      (fun (name, _, unit, better) ->
         let values us =
           List.concat_map
             (fun u ->
                List.filter_map
                  (fun (n, v, _, _) -> if n = name then Some v else None)
                  u.metrics)
             us
         in
         let best pick =
           median
             (List.filter_map
                (fun us ->
                   match values us with
                   | [] -> None
                   | v :: vs -> Some (List.fold_left pick v vs))
                by_seed)
         in
         let v =
           match better with
           | "higher" -> best Float.max
           | "lower" -> best Float.min
           | _ -> median (values units)
         in
         (name, v, unit))
      first.metrics

let json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
             Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
          metrics))

let run_workload ~workload ~seed ~seconds ~trace =
  let start = Tracer.now () in
  let elapsed () = Tracer.now () - start in
  let budget = seconds * 1_000_000_000 in
  let unit k = spawn ~workload ~seed:(seed + k) ~trace in
  let rec fresh k acc =
    if k >= min_seeds && elapsed () >= budget / 2 then (k, acc)
    else fresh (k + 1) (unit k :: acc)
  in
  let seeds, units = fresh 0 [] in
  let rec again i acc =
    if elapsed () >= budget then acc else again (i + 1) (unit (i mod seeds) :: acc)
  in
  let units = List.rev (again 0 units) in
  let errors = List.concat_map (fun u -> u.errors) units in
  let attempted = List.fold_left (fun acc u -> acc + u.ops) 0 units in
  let failed = List.fold_left (fun acc u -> acc + u.failed) 0 units in
  let correct = errors = [] && attempted > 0 in
  let metrics = summarize units in
  List.iter (fun e -> Printf.printf "%s: FAILED %s\n" workload e) errors;
  Printf.printf "%s: %d units over seeds %d..%d; seed %d fingerprint %s\n" workload
    (List.length units) seed
    (seed + seeds - 1)
    seed (List.hd units).fingerprint;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %-32s %14.6g %s\n" workload name v unit)
    metrics;
  print_endline (json ~correct ~attempted ~failed metrics);
  correct

let () =
  let workload = ref None and unit = ref None in
  let seed = ref 1 and seconds = ref 10 and trace = ref false in
  let set_trace = function
    | "0" -> trace := false
    | "1" -> trace := true
    | v -> raise (Arg.Bad ("--trace takes 0 or 1, got " ^ v))
  in
  let known w =
    if List.mem w Workloads.names then w
    else
      raise
        (Arg.Bad
           ("unknown workload " ^ w ^ "; known: " ^ String.concat ", " Workloads.names))
  in
  let spec =
    [ ( "--workload",
        Arg.String (fun w -> workload := Some (known w)),
        "W run one workload" );
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "T seconds per workload (default 10)");
      ("--trace", Arg.String set_trace, "0|1 per-layer metrics (traced variant)");
      ( "--unit",
        Arg.String (fun w -> unit := Some (known w)),
        "W (internal) run one unit" ) ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1]";
  match !unit with
  | Some w -> child ~workload:w ~seed:!seed ~trace:!trace
  | None ->
    if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
    let workloads = match !workload with Some w -> [ w ] | None -> Workloads.names in
    let run w =
      run_workload ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace
    in
    exit (if List.for_all Fun.id (List.map run workloads) then 0 else 1)
