(* Suspicion-list failure detectors: the eventually perfect detector <>P and
   the perfect detector P (Chandra & Toueg).

   <>P: eventually the output at every correct process is exactly the set of
   faulty processes (strong completeness + eventual strong accuracy).

   P: never suspects a process before it crashes (strong accuracy), and
   every crashed process is eventually suspected by every correct process
   (strong completeness).  We model detection with a fixed lag.

   These detectors are strictly stronger than Omega; they appear in tests
   (Omega is extractable from them) and in the related-work experiments
   (Serafini et al. use <>P to boost eventual linearizability). *)

open Simulator
open Simulator.Types

type eventually_perfect = {
  ep_pattern : Failures.pattern;
  ep_stabilize_at : time;
  ep_seed : int;
}

let eventually_perfect ?(seed = 7) pattern ~stabilize_at =
  { ep_pattern = pattern; ep_stabilize_at = stabilize_at; ep_seed = seed }

let mix seed self now q =
  let h =
    (seed * 0x9E3779B1) lxor (self * 0x85EBCA77) lxor (now * 0xC2B2AE3D)
    lxor (q * 0x165667B1)
  in
  let h = (h lxor (h lsr 13)) * 0x27D4EB2F in
  abs (h lxor (h lsr 16))

let query_ep t ~self ~now =
  if now >= t.ep_stabilize_at then Failures.faulty t.ep_pattern
  else
    (* Noisy prefix: suspect a pseudo-random subset of the other processes. *)
    List.filter
      (fun q -> q <> self && mix t.ep_seed self now q mod 3 = 0)
      (all_procs (Failures.n t.ep_pattern))

type perfect = {
  p_pattern : Failures.pattern;
  p_lag : int;
}

let perfect pattern ~lag =
  if lag < 0 then invalid_arg "Suspicions.perfect: negative lag";
  { p_pattern = pattern; p_lag = lag }

let query_p t ~self:_ ~now =
  List.filter
    (fun q ->
       match Failures.crash_time t.p_pattern q with
       | None -> false
       | Some tc -> now >= tc + t.p_lag)
    (all_procs (Failures.n t.p_pattern))

(* Omega is weaker than <>P: trust the smallest unsuspected process.  After
   <>P stabilizes, every correct process trusts the smallest correct one. *)
let omega_from_ep t ~self ~now =
  let suspects = query_ep t ~self ~now in
  let trusted =
    List.filter (fun q -> not (List.mem q suspects)) (all_procs (Failures.n t.ep_pattern))
  in
  match trusted with p :: _ -> p | [] -> self
