(* Deterministic splitmix64 pseudo-random generator.

   Every run of the simulator is a pure function of its configuration, so all
   randomness (delays, adversarial choices, workload generation) flows through
   this generator rather than [Stdlib.Random].  Splitmix64 is simple, fast and
   splittable, which lets independent subsystems (network, scheduler,
   workload) draw from statistically independent streams derived from one
   seed. *)

(* The state is one int64 held in an 8-byte cell, read and written with
   [Bytes.get_int64_ne]/[set_int64_ne]: a mutable [int64] record field
   would box every new state.  [next_int64] is inlined into its callers,
   so its intermediates and its result stay in registers and a draw
   allocates nothing.  A stream depends on splitmix64's [Int64] values
   alone, not on how they are held, so golden traces and digests pin the
   arithmetic below and nothing else. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

(* alloclint rates each [Int64] operation as a boxing call by name (rule
   A1) and an unlisted stdlib function as unknown (A2); here the native
   compiler keeps every one of them unboxed, which E23 measures. *)
let[@inline] next_int64 t =
  (* detlint: allow A2 reads the state cell unboxed: a bounds check and a load *)
  let s = Bytes.get_int64_ne t 0 in
  (* detlint: allow A1 unboxed: the sum is stored and mixed, never escapes *)
  let z = Int64.add s golden_gamma in
  (* detlint: allow A2 writes the state cell unboxed: a bounds check and a store *)
  Bytes.set_int64_ne t 0 z;
  (* detlint: allow A1 unboxed: the mix's intermediates stay in registers *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  (* detlint: allow A1 unboxed: the mix's intermediates stay in registers *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  (* detlint: allow A1 unboxed: inlined, the result reaches its caller's conversion in a register *)
  Int64.logxor z (Int64.shift_right_logical z 31)

(* OCaml ints are 63-bit on 64-bit platforms: keep 62 random bits so the
   conversion can never wrap negative. *)
let next_nonneg t =
  (* detlint: allow A1 unboxed: the shift reads and feeds registers *)
  Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  (* detlint: allow A1 bad-bound misuse raises on the error path only *)
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next_nonneg t mod bound

let in_range t ~min ~max =
  (* detlint: allow A1 bad-range misuse raises on the error path only *)
  if max < min then invalid_arg "Rng.in_range: max < min";
  min + int t (max - min + 1)

let split t = create (Int64.to_int (next_int64 t))

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
