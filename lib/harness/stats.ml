(* Small descriptive statistics over integer samples (latencies, counts),
   shared by the benchmark tables. *)

type t = {
  count : int;
  mean : float;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
}

let of_list samples =
  match samples with
  | [] -> None
  | _ ->
    let sorted = Array.of_list samples in
    Array.sort Int.compare sorted;
    let count = Array.length sorted in
    let sum = List.fold_left ( + ) 0 samples in
    let pct permille = Simulator.Sink.nearest_rank sorted ~permille in
    Some
      { count;
        mean = float_of_int sum /. float_of_int count;
        min = sorted.(0);
        max = sorted.(count - 1);
        p50 = pct 500;
        p95 = pct 950 }

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.1f min=%d p50=%d p95=%d max=%d" t.count t.mean t.min
    t.p50 t.p95 t.max
