(** Committed-prefix indications on top of ETOB — the extension sketched in
    Section 7 of the paper: during stable periods (a majority of correct
    processes trusting one correct leader), a growing prefix of the
    delivered sequence is marked as not subject to further change. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Commit_ack of { seq : Dseq.t }
  | Commit_mark of { seq : Dseq.t }

type Io.output += Committed of Dseq.t
(** Recorded whenever the locally known committed prefix grows. *)

type t

val create :
  Engine.ctx ->
  omega:(unit -> proc_id) ->
  etob:Etob_intf.service ->
  promotion:(unit -> Dseq.t) ->
  t * Engine.node
(** Stack onto an Algorithm-5 process.  [promotion] exposes the local
    promotion sequence (see {!Etob_omega.promotion}); only a process that
    currently trusts itself certifies commitments, from a majority of
    current acknowledgments of its own prefixes. *)

val committed : t -> Dseq.t
(** The longest locally known committed prefix. *)

val restore : t -> Dseq.t -> unit
(** Crash-recovery: reinstate a durably logged commitment and re-announce
    it (no-op for the empty prefix).  Used by {!Recoverable}. *)
