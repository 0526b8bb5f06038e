(* Convergence analysis of replicated-service runs.

   Works on the [Replica.Applied] output history: per replica, the series
   of state digests over time.  Measures the divergence windows (periods
   where correct replicas report different digests while quiescent) and the
   convergence time, the quantities experiment E9 reports. *)

open Simulator
open Simulator.Types

type run = {
  r_pattern : Failures.pattern;
  r_horizon : time;
  (* Per process, chronological (time, (command count, digest)). *)
  r_series : (time * (int * string)) list array;
}

let run_of_trace pattern trace =
  { r_pattern = pattern;
    r_horizon = Trace.last_time trace;
    r_series =
      Trace.series trace (function
        | Replica.Applied { count; digest; _ } -> Some (count, digest)
        | _ -> None) }

let digest_at run p t =
  let rec scan best = function
    | [] -> best
    | (t', (_, d)) :: rest -> if t' <= t then scan d rest else best
  in
  scan "<initial>" run.r_series.(p)

let final_digest run p =
  List.fold_left (fun _ (_, (_, d)) -> d) "<initial>" run.r_series.(p)

(* All correct replicas end the run in the same state. *)
let converged run =
  match Failures.correct run.r_pattern with
  | [] -> true
  | p :: rest -> List.for_all (fun q -> final_digest run q = final_digest run p) rest

(* The earliest time from which all correct replicas always agree on the
   digest (evaluated at state-change instants).  [r_horizon + 1] if they
   never converge. *)
let convergence_time run =
  let correct = Failures.correct run.r_pattern in
  let times =
    List.sort_uniq compare
      (Array.to_list run.r_series |> List.concat_map (List.map fst))
  in
  let agree_at t =
    match correct with
    | [] -> true
    | p :: rest -> List.for_all (fun q -> digest_at run q t = digest_at run p t) rest
  in
  if not (converged run) then run.r_horizon + 1
  else List.fold_left (fun tau t -> if agree_at t then tau else max tau (t + 1)) 0 times

(* Total ticks (within [from_time, horizon]) during which some pair of
   correct replicas disagreed: the divergence window E9 reports. *)
let divergence_ticks ?(from_time = 0) run =
  let correct = Failures.correct run.r_pattern in
  let disagree_at t =
    match correct with
    | [] -> false
    | p :: rest -> List.exists (fun q -> digest_at run q t <> digest_at run p t) rest
  in
  let rec count t acc =
    if t > run.r_horizon then acc
    else count (t + 1) (if disagree_at t then acc + 1 else acc)
  in
  count from_time 0

(* Number of times a replica's applied log was revised non-monotonically
   (its command count decreased or its digest changed without the count
   growing): rollbacks visible to clients before stabilization. *)
let rollback_count run p =
  let rec scan acc prev = function
    | [] -> acc
    | (_, (c, d)) :: rest ->
      (match prev with
       | Some (c0, d0) when c < c0 || (c = c0 && d <> d0) ->
         scan (acc + 1) (Some (c, d)) rest
       | Some _ | None -> scan acc (Some (c, d)) rest)
  in
  scan 0 None run.r_series.(p)

let total_rollbacks run =
  List.fold_left (fun acc p -> acc + rollback_count run p) 0
    (Failures.correct run.r_pattern)
