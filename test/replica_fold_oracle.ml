(* Test oracle: the replica's whole refold, as [Replica] and
   [Committed_replica] ran it on every revision before their fold became
   incremental, kept as the reference the incremental [Replica.Fold] is
   checked against (test_replication's fold properties): decode every tag
   of the sequence, skipping those that do not decode, and apply the
   commands from the machine's initial state. *)

open Replication

let decode_log seq =
  List.filter_map (fun m -> Command.of_tag m.Ec_core.App_msg.tag) seq

(* The state and the applied log of a sequence. *)
let refold (type s) (module M : Machines.MACHINE with type state = s) seq =
  let log = decode_log seq in
  (List.fold_left M.apply M.init log, log)
