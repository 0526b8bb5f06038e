(** Descriptive statistics over integer samples, for benchmark tables. *)

type t = {
  count : int;
  mean : float;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
}

val of_list : int list -> t option
(** [None] on an empty sample list.  [p50] and [p95] are nearest-rank
    quantiles ({!Simulator.Sink.nearest_rank}). *)

val pp : Format.formatter -> t -> unit
