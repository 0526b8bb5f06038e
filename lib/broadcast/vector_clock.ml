(* Vector clocks: the standard witness of the causal (happens-before) order.

   The paper's TOB-Causal-Order property is stated on explicit dependency
   sets C(m); vector clocks give an equivalent, mechanically checkable
   encoding of the same order, used by the causal-broadcast substrate and by
   the causal-order run checkers. *)

open Simulator.Types

type t = int array

let zero ~n =
  if n < 1 then invalid_arg "Vector_clock.zero: n must be >= 1";
  Array.make n 0

let size t = Array.length t

let get t p =
  if not (is_valid_proc ~n:(Array.length t) p) then
    invalid_arg "Vector_clock.get: bad proc";
  t.(p)

let tick t p =
  if not (is_valid_proc ~n:(Array.length t) p) then
    invalid_arg "Vector_clock.tick: bad proc";
  let t' = Array.copy t in
  t'.(p) <- t'.(p) + 1;
  t'

let merge a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_clock.merge: size mismatch";
  Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let leq a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_clock.leq: size mismatch";
  let rec go i = i >= Array.length a || (a.(i) <= b.(i) && go (i + 1)) in
  go 0

let equal a b = leq a b && leq b a
let lt a b = leq a b && not (equal a b)
let concurrent a b = (not (leq a b)) && not (leq b a)

let sum t = Array.fold_left ( + ) 0 t

let to_list = Array.to_list
let of_list l = Array.of_list l

let pp ppf t =
  Fmt.pf ppf "<%a>" Fmt.(list ~sep:comma int) (Array.to_list t)
