(* The leader failure detector Omega (Section 2).

   At each process, Omega outputs the id of a process; if a correct process
   exists, there is a time after which Omega outputs the id of the same
   correct process at every correct process.  Everything before that time is
   unconstrained, so the oracle takes an explicit adversarial pre-behaviour;
   all the paper's algorithms must work no matter what that prefix does. *)

open Simulator
open Simulator.Types

type pre_behaviour =
  | Self_trust
  | Fixed of proc_id
  | Rotating of int
  | Blockwise of proc_id list list
  | Seeded of int

type t = {
  pattern : Failures.pattern;
  stabilize_at : time;
  pre : pre_behaviour;
  leader : proc_id;
}

let make ?(pre = Self_trust) pattern ~stabilize_at =
  let leader =
    match Failures.min_correct pattern with
    | Some p -> p
    | None -> invalid_arg "Omega.make: no correct process in pattern"
  in
  (match pre with
   | Fixed p when not (is_valid_proc ~n:(Failures.n pattern) p) ->
     invalid_arg "Omega.make: Fixed leader out of range"
   | Rotating period when period < 1 ->
     invalid_arg "Omega.make: Rotating period must be >= 1"
   | Self_trust | Fixed _ | Rotating _ | Blockwise _ | Seeded _ -> ());
  { pattern; stabilize_at; pre; leader }

let leader t = t.leader

(* A cheap deterministic hash for the Seeded pre-behaviour. *)
let mix seed self now =
  let h = (seed * 0x9E3779B1) lxor (self * 0x85EBCA77) lxor (now * 0xC2B2AE3D) in
  let h = (h lxor (h lsr 13)) * 0x27D4EB2F in
  abs (h lxor (h lsr 16))

let min_alive_in t block now =
  let alive = List.filter (fun p -> Failures.is_alive t.pattern p now) block in
  match alive with [] -> None | p :: _ -> Some p

let pre_output t ~self ~now =
  let n = Failures.n t.pattern in
  match t.pre with
  | Self_trust -> self
  | Fixed p -> p
  | Rotating period -> now / period mod n
  | Seeded seed -> mix seed self now mod n
  | Blockwise blocks ->
    let rec find = function
      | [] -> t.leader
      | b :: rest -> if List.mem self b then
          (match min_alive_in t b now with Some p -> p | None -> t.leader)
        else find rest
    in
    find blocks

let query t ~self ~now =
  if now >= t.stabilize_at then t.leader else pre_output t ~self ~now

(* Capture the oracle as a per-process closure over the engine clock; this is
   how protocol nodes consult their local failure-detector module. *)
let module_of t (ctx : Engine.ctx) () = query t ~self:ctx.self ~now:(ctx.now ())
