(** A message-passing emulation of Omega: heartbeats, adaptive timeouts, and
    trust in the smallest unsuspected process.  Converges in any run whose
    delays are eventually bounded (partial synchrony).

    Caveat — one-way partitions ({!Simulator.Net.oneway_partition}): the
    election trusts whoever it {e hears from}, so under an asymmetric cut
    the two sides can disagree forever-while-it-lasts: a process whose
    heartbeats are dropped outbound still hears the leader (and happily
    follows it) while the leader's side suspects {e it} — harmless — but
    when the {e leader's} outbound direction is cut, the deaf side elects
    a second leader while the leader keeps trusting itself.  Omega's spec
    only requires convergence after the cut heals (delays become bounded
    again, timeouts adapt); during the window, split leadership is
    expected and is exactly what ETOB's safety properties must absorb.
    The explorer's one-way adversities exercise this against the oracle
    detector; pair this module with them deliberately when studying
    detector-level divergence. *)

open Simulator
open Simulator.Types

type Msg.payload += Heartbeat

type t

val create : Engine.ctx -> initial_timeout:int -> t * Engine.node
(** [create ctx ~initial_timeout] is the election state together with the
    protocol component to stack into the process's node.  Query {!leader}
    at any point for the current trusted process. *)

val leader : t -> proc_id
(** The smallest currently unsuspected process (self if all suspected). *)

val false_suspicions : t -> int
(** How many times a suspicion was retracted (each retraction doubles the
    per-process timeout). *)
