(** Deterministic splitmix64 pseudo-random generator.

    Every run of the simulator is a pure function of its configuration, so all
    randomness (delays, adversarial choices, workload generation) flows
    through this generator rather than [Stdlib.Random]. *)

type t

val create : int -> t
(** [create seed] is a fresh generator; equal seeds give equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val in_range : t -> min:int -> max:int -> int
(** [in_range t ~min ~max] is uniform in [\[min, max\]] (inclusive). *)

val split : t -> t
(** [split t] is a new generator whose stream is statistically independent of
    the remainder of [t]'s stream. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher–Yates shuffle. *)
