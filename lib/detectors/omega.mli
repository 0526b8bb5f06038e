(** The leader failure detector Omega (Section 2 of the paper).

    At each process, Omega outputs a process id; if a correct process exists,
    there is a time after which it outputs the id of the same correct process
    at every correct process.  The prefix before that time is unconstrained,
    so the oracle takes an explicit adversarial pre-behaviour.

    Under crash-recovery patterns ({!Failures.crash_recover_at}), correct
    means {e eventually up forever}: downtime windows do not disqualify a
    process from leadership, so the stabilized output may name a process
    that is currently down — legitimate, since Omega's specification only
    constrains the eventual output, and the protocols above it must ride
    out a down leader the same way they ride out the unstable prefix. *)

open Simulator
open Simulator.Types

type pre_behaviour =
  | Self_trust  (** every process trusts itself before stabilization *)
  | Fixed of proc_id  (** everyone trusts a fixed (possibly faulty) process *)
  | Rotating of int  (** leader rotates: [(now / period) mod n] *)
  | Blockwise of proc_id list list
      (** each block trusts its own smallest alive member — the output of
          Omega during a partition *)
  | Seeded of int  (** deterministic pseudo-random noise *)

type t

val make : ?pre:pre_behaviour -> Failures.pattern -> stabilize_at:time -> t
(** [make pattern ~stabilize_at] is an Omega history for [pattern] whose
    output at every process from [stabilize_at] on is the smallest-id correct
    process.  Raises [Invalid_argument] if the pattern has no correct
    process.  Default pre-behaviour is [Self_trust]. *)

val leader : t -> proc_id
(** The eventual leader (smallest-id correct process). *)

val query : t -> self:proc_id -> now:time -> proc_id
(** The value output by the Omega module of [self] at time [now]. *)

val module_of : t -> Engine.ctx -> unit -> proc_id
(** [module_of t ctx] is the local failure-detector module of process
    [ctx.self]: a closure protocols query once per step. *)
