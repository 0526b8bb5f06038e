(* Deterministic splitmix64 pseudo-random generator.

   Every run of the simulator is a pure function of its configuration, so all
   randomness (delays, adversarial choices, workload generation) flows through
   this generator rather than [Stdlib.Random].  Splitmix64 is simple, fast and
   splittable, which lets independent subsystems (network, scheduler,
   workload) draw from statistically independent streams derived from one
   seed. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* The Int64 arithmetic below boxes its intermediates.  That is pinned:
   splitmix64 over boxed Int64 is the generator every committed golden
   trace and digest was drawn from, so changing the representation (e.g.
   to untagged int tricks) would change every stream.  The boxes are
   allowlisted one by one and charged to the E23 bytes-per-event budget
   instead. *)
let next_int64 t =
  (* detlint: allow A1 splitmix64's int64 boxing is pinned by golden-stream compatibility; charged to the E23 budget *)
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  (* detlint: allow A1 splitmix64's int64 boxing is pinned by golden-stream compatibility; charged to the E23 budget *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  (* detlint: allow A1 splitmix64's int64 boxing is pinned by golden-stream compatibility; charged to the E23 budget *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (* detlint: allow A1 splitmix64's int64 boxing is pinned by golden-stream compatibility; charged to the E23 budget *)
  Int64.logxor z (Int64.shift_right_logical z 31)

(* OCaml ints are 63-bit on 64-bit platforms: keep 62 random bits so the
   conversion can never wrap negative. *)
let next_nonneg t =
  (* detlint: allow A1 one boxed shift per draw, pinned by golden-stream compatibility; charged to the E23 budget *)
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  (* detlint: allow A1 bad-bound misuse raises on the error path only *)
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next_nonneg t mod bound

let in_range t ~min ~max =
  (* detlint: allow A1 bad-range misuse raises on the error path only *)
  if max < min then invalid_arg "Rng.in_range: max < min";
  min + int t (max - min + 1)

let split t =
  let seed = Int64.to_int (next_int64 t) in
  { state = Int64.of_int seed }

let shuffle t xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr
