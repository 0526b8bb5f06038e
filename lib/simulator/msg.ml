(* Network messages.

   The payload type is extensible: each protocol library defines its own
   constructors (e.g. [Promote], [Push], [Update]) and the engine treats
   payloads opaquely.  A well-formed protocol component silently ignores
   payloads it does not recognize, which is what allows protocol stacking
   (e.g. an ETOB layer and an Omega-election layer sharing one node). *)

open Types

type payload = ..

type envelope = {
  src : proc_id;
  dst : proc_id;
  payload : payload;
  sent_at : time;
  uid : int;  (* globally unique per run; preserves definability of traces *)
}
