(* The failure-detector sample DAG G of Appendix B.2.

   A vertex [p, d, k] records that p's k-th query of its detector module
   returned d; an edge (u, v) records that u's sample was taken, and known
   to v's process, before v was taken.  The communication task of Figure 1
   makes the local DAGs of correct processes converge to a common infinite
   DAG with properties (1)-(4) of Appendix B.2.

   We build the DAG synthetically from a failure pattern and a sampler:
   process p takes its k-th sample at time [k * period + p] (while alive),
   and an edge (u, v) exists iff u was sampled at least [gossip] ticks
   before v (its sample had time to propagate), or u and v belong to the
   same process with u earlier.  This satisfies all four CHT properties —
   including transitivity — and is deterministic, which is what the tests
   and the extraction benches need.  A prefix of the DAG (what is visible
   at a given time) models the local DAG G_p(t) of a correct process. *)

open Simulator
open Simulator.Types

type vertex = {
  v_id : int;  (* global creation order: the CHT "m-based" vertex order *)
  v_proc : proc_id;
  v_index : int;  (* k: this is v_proc's k-th sample *)
  v_time : time;
  v_value : Fd_value.t;
}

module Int_set = Set.Make (Int)

type t = {
  pattern : Failures.pattern;
  gossip : int;
  vertices : vertex array;  (* sorted by v_id, i.e. by (v_time, v_proc) *)
  (* [None]: the edge relation is the synthetic gossip-time rule below.
     [Some preds]: explicit predecessor id sets, as exported from the
     engine-run communication task (Dag_protocol). *)
  explicit_preds : Int_set.t array option;
}

let build ~pattern ~sampler ~period ~gossip ~rounds =
  if period < 1 then invalid_arg "Dag.build: period must be >= 1";
  if gossip < 1 then invalid_arg "Dag.build: gossip must be >= 1";
  let n = Failures.n pattern in
  let cells = ref [] in
  for k = 1 to rounds do
    for p = 0 to n - 1 do
      let time = (k * period) + p in
      if Failures.is_alive pattern p time then
        cells := (time, p, k) :: !cells
    done
  done;
  let compare_cell (t1, p1, k1) (t2, p2, k2) =
    let c = Int.compare t1 t2 in
    if c <> 0 then c
    else
      let c = Int.compare p1 p2 in
      if c <> 0 then c else Int.compare k1 k2
  in
  let ordered = List.sort compare_cell (List.rev !cells) in
  let vertices =
    Array.of_list
      (List.mapi
         (fun i (time, p, k) ->
            { v_id = i; v_proc = p; v_index = k; v_time = time;
              v_value = sampler p time })
         ordered)
  in
  { pattern; gossip; vertices; explicit_preds = None }

(* A DAG with explicit edges, e.g. exported from the engine-run
   communication task.  [edges] are (pred id, succ id) pairs over the given
   vertex array (ids must equal array positions); the same-process sample
   order is added implicitly. *)
let of_explicit ~pattern ~vertices ~edges =
  Array.iteri
    (fun i v ->
       if v.v_id <> i then invalid_arg "Dag.of_explicit: ids must match positions")
    vertices;
  let preds = Array.make (Array.length vertices) Int_set.empty in
  List.iter
    (fun (u, v) ->
       if u < 0 || v < 0 || u >= Array.length vertices || v >= Array.length vertices
       then invalid_arg "Dag.of_explicit: edge out of range";
       preds.(v) <- Int_set.add u preds.(v))
    edges;
  Array.iteri
    (fun i v ->
       Array.iteri
         (fun j u ->
            if u.v_proc = v.v_proc && u.v_index < v.v_index then
              preds.(i) <- Int_set.add j preds.(i))
         vertices)
    vertices;
  { pattern; gossip = 1; vertices; explicit_preds = Some preds }

let vertices t = Array.to_list t.vertices
let vertex t id = t.vertices.(id)
let size t = Array.length t.vertices

let pattern t = t.pattern

(* Edge relation: explicit when present; otherwise the synthetic rule —
   same process in sample order, or enough time for gossip. *)
let has_edge t u v =
  match t.explicit_preds with
  | Some preds -> Int_set.mem u.v_id preds.(v.v_id)
  | None ->
    (u.v_proc = v.v_proc && u.v_index < v.v_index)
    || u.v_time + t.gossip <= v.v_time

(* Renumber ids to array positions and per-process sample indices to 1..k,
   so a filtered DAG is again a well-formed DAG; explicit edges (if any)
   are remapped and restricted to the kept vertices. *)
let renumber t kept =
  let old_to_new = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.add old_to_new v.v_id i) kept;
  let next_index = Hashtbl.create 8 in
  let vertices =
    Array.of_list
      (List.mapi
         (fun i v ->
            let k = 1 + Option.value ~default:0 (Hashtbl.find_opt next_index v.v_proc) in
            Hashtbl.replace next_index v.v_proc k;
            { v with v_id = i; v_index = k })
         kept)
  in
  let explicit_preds =
    Option.map
      (fun preds ->
         Array.of_list
           (List.map
              (fun v ->
                 Int_set.fold
                   (fun old acc ->
                      match Hashtbl.find_opt old_to_new old with
                      | Some fresh -> Int_set.add fresh acc
                      | None -> acc)
                   preds.(v.v_id) Int_set.empty)
              kept))
      t.explicit_preds
  in
  { pattern = t.pattern; gossip = t.gossip; vertices; explicit_preds }

(* The prefix of the DAG visible by [horizon]: the CHT local DAG G_p(t),
   identical at all correct processes up to gossip lag. *)
let prefix t ~horizon =
  renumber t (List.filter (fun v -> v.v_time <= horizon) (Array.to_list t.vertices))

(* A window of the DAG: the samples taken during [from_horizon, to_horizon],
   reinterpreted as a fresh run starting at the window.  The emulation loop
   slides this window forward: once it passes all crashes and detector
   stabilizations, the window contains only stable samples of correct
   processes, which is how the bounded reduction realizes CHT's "valencies
   eventually stabilize" on finite budgets. *)
let window t ~from_horizon ~to_horizon =
  renumber t
    (List.filter
       (fun v -> from_horizon <= v.v_time && v.v_time <= to_horizon)
       (Array.to_list t.vertices))

(* The candidate next steps along a path whose last vertex is [last]: for
   every process, its [width] earliest unused samples reachable from [last]
   (every vertex when the path is empty).  Restricting to a small [width]
   keeps simulation trees tractable while still offering, per process,
   several different detector values for the same automaton state — which is
   what forks and hooks are made of. *)
let extensions t ~last ~used ~width =
  let ok v =
    (not (List.mem v.v_id used))
    && (match last with None -> true | Some u -> has_edge t u v)
  in
  let per_proc = Hashtbl.create 8 in
  Array.iter
    (fun v ->
       if ok v then begin
         let sofar = Option.value ~default:[] (Hashtbl.find_opt per_proc v.v_proc) in
         if List.length sofar < width then
           Hashtbl.replace per_proc v.v_proc (sofar @ [ v ])
       end)
    t.vertices;
  (* detlint: sorted — accumulation order is discarded by the v_id sort below *)
  Hashtbl.fold (fun _ vs acc -> vs @ acc) per_proc []
  |> List.sort (fun a b -> Int.compare a.v_id b.v_id)

(* CHT property checks (Appendix B.2), used by the test suite. *)

(* (1a) every vertex was sampled while its process was alive, with the value
   the history prescribes. *)
let check_sampling t ~sampler =
  Array.for_all
    (fun v ->
       Failures.is_alive t.pattern v.v_proc v.v_time
       && Fd_value.equal v.v_value (sampler v.v_proc v.v_time))
    t.vertices

(* (1b)+(2) edges respect time and same-process sample order is total. *)
let check_order t =
  let ok = ref true in
  Array.iter
    (fun u ->
       Array.iter
         (fun v ->
            if has_edge t u v then begin
              if u.v_time >= v.v_time then ok := false
            end;
            if u.v_proc = v.v_proc && u.v_index < v.v_index && not (has_edge t u v)
            then ok := false)
         t.vertices)
    t.vertices;
  !ok

(* (3) transitivity. *)
let check_transitive t =
  let vs = t.vertices in
  let ok = ref true in
  Array.iter
    (fun u ->
       Array.iter
         (fun v ->
            if has_edge t u v then
              Array.iter
                (fun w -> if has_edge t v w && not (has_edge t u w) then ok := false)
                vs)
         vs)
    vs;
  !ok

(* (4) fairness on the built prefix: every correct process has a sample
   after every vertex that is old enough to gossip to it. *)
let check_fairness t ~rounds ~period =
  let horizon = rounds * period in
  List.for_all
    (fun p ->
       let last_sample =
         Array.fold_left
           (fun acc v -> if v.v_proc = p then max acc v.v_time else acc)
           (-1) t.vertices
       in
       last_sample >= horizon - period)
    (Failures.correct t.pattern)
