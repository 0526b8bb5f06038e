(** The client/endpoint wire protocol (requests, acks, replies) and the
    observable service events.  Everything the metrics, CI gates and the
    determinism digest consume is an [Io.output] here, so the service layer
    is judged purely on the trace (DESIGN.md §16). *)

open Simulator
open Simulator.Types

type op = Write of { key : string; value : string } | Read of { key : string }

type Msg.payload +=
  | Request of { client : proc_id; rid : int; strong : bool; op : op }
      (** One attempt of client request [rid]; retries reuse the id, so the
          request is idempotent end to end. *)
  | Ack of { rid : int }
      (** Immediate receipt from the endpoint.  Its absence — not a slow
          reply — is the client's crash signal: only un-acked attempts count
          towards session migration, so a partitioned-but-alive endpoint
          keeps its pinned clients. *)
  | Reply of {
      rid : int;
      ok : bool;
      overloaded : bool;  (** load-shed by admission control *)
      strong : bool;  (** served from the committed (vs speculative) view *)
      value : string option;
    }

type Io.output +=
  | Attempt of {
      client : proc_id;
      rid : int;
      attempt : int;  (** 1-based *)
      endpoint : proc_id;
      strong : bool;
    }
  | Completed of {
      client : proc_id;
      rid : int;
      ok : bool;
      overloaded : bool;  (** the final attempt failed by shedding *)
      write : bool;
      strong : bool;  (** mode of the final attempt *)
      latency : int;  (** completion time minus first-attempt time *)
      attempts : int;
      endpoint : proc_id;  (** endpoint of the final attempt *)
    }
  | Shed of { endpoint : proc_id }  (** admission control refused a write *)
  | Duplicate_submit of { endpoint : proc_id; client : proc_id; rid : int }
      (** A retry reached an endpoint that already watches or re-submitted a
          command for this rid — the replica-side dedup observable. *)
  | Migrated of { client : proc_id; from_endpoint : proc_id; to_endpoint : proc_id }
  | Breaker of { client : proc_id; opened : bool }
