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

let pp_payload_hook : (Format.formatter -> payload -> bool) list ref = ref []

let register_payload_pp f = pp_payload_hook := f :: !pp_payload_hook

let pp_payload ppf p =
  let rec try_hooks = function
    | [] -> Fmt.string ppf "<payload>"
    | h :: rest -> if h ppf p then () else try_hooks rest
  in
  try_hooks !pp_payload_hook
