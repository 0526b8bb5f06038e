(* Failure-detector values as they appear in CHT samples.

   The reduction of Section 4 works for an arbitrary detector D; the sample
   DAG stores D's outputs opaquely.  We cover the two ranges our target
   algorithms consume: leader outputs (Omega) and suspicion lists (<>P). *)

open Simulator.Types

type t =
  | Leader of proc_id
  | Suspects of proc_id list

let leader p = Leader p
let suspects ps = Suspects (List.sort_uniq Int.compare ps)

let compare a b =
  match a, b with
  | Leader p, Leader q -> Int.compare p q
  | Suspects ps, Suspects qs -> List.compare Int.compare ps qs
  | Leader _, Suspects _ -> -1
  | Suspects _, Leader _ -> 1

let equal a b = compare a b = 0

(* The process this value designates as leader: direct for Omega; for a
   suspicion list, the classical reduction "trust the smallest unsuspected
   process" (falling back to [self] if everyone is suspected). *)
let trusted ~n ~self = function
  | Leader p -> p
  | Suspects suspects ->
    let rec find p =
      if p >= n then self else if List.mem p suspects then find (p + 1) else p
    in
    find 0
