(** Network messages with an extensible payload type.

    Each protocol library defines its own payload constructors; the engine
    treats payloads opaquely.  Protocol components ignore payloads they do
    not recognize, which allows stacking several protocols on one node. *)

open Types

type payload = ..

type envelope = {
  src : proc_id;
  dst : proc_id;
  payload : payload;
  sent_at : time;
  uid : int;
}
(** A message in transit. [uid] is unique within a run. *)
