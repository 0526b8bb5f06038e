(** The closed-loop client state machine: seeded arrival processes
    (closed / open-loop / bursty), per-attempt deadlines, capped
    exponential backoff with seeded jitter, bounded retry budgets over an
    idempotent request id, ack-based crash suspicion driving session
    migration, and the strong-to-speculative degradation breaker
    (DESIGN.md §16).  All timing comes from the engine's clock and all
    randomness from the per-process {!Simulator.Rng}. *)

open Simulator

type t

val create :
  Engine.ctx ->
  spec:Harness.Service_spec.t ->
  replicas:int ->
  index:int ->
  t * Engine.node
(** [index] is the client's rank in the population (pins it to replica
    [index mod replicas]); [ctx.self] is its process id and request
    provenance. *)
