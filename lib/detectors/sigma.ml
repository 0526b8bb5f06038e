(* The quorum failure detector Sigma (Delporte-Gallet, Fauconnier, Guerraoui).

   Sigma outputs a set of processes at each process such that (i) any two
   sets output at any times by any processes intersect, and (ii) eventually
   every set output at a correct process contains only correct processes.

   The paper's headline gap result is that Omega + Sigma is the weakest
   detector for (strong) consistency in any environment, while Omega alone
   suffices for eventual consistency: Sigma is exactly the price of strong
   consistency.  We provide the oracle so tests and benches can exhibit that
   gap explicitly.

   Construction: every quorum output before stabilization contains a fixed
   anchor (the smallest-id correct process) plus possibly faulty padding;
   from the stabilization time on, the output is exactly the correct set.
   Since the anchor is correct, it belongs to every quorum ever output, so
   any two quorums intersect. *)

open Simulator
open Simulator.Types

type t = {
  pattern : Failures.pattern;
  stabilize_at : time;
  anchor : proc_id;
}

let make pattern ~stabilize_at =
  match Failures.min_correct pattern with
  | None -> invalid_arg "Sigma.make: no correct process in pattern"
  | Some anchor -> { pattern; stabilize_at; anchor }

let query t ~self ~now =
  if now >= t.stabilize_at then Failures.correct t.pattern
  else begin
    (* A deterministic, time-varying padded quorum: the anchor plus roughly
       half of the other processes, chosen by a rolling window, so early
       quorums genuinely differ between processes and times. *)
    let n = Failures.n t.pattern in
    let width = (n / 2) + 1 in
    let start = (self + now) mod n in
    let padded = List.init width (fun i -> (start + i) mod n) in
    List.sort_uniq compare (t.anchor :: padded)
  end
