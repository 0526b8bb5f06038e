(* The client/endpoint wire protocol and the observable service events.

   Requests and replies travel as ordinary simulator messages, so they ride
   the same delay and fault models as the protocol fabric.  Every
   client-visible milestone (attempt, completion, shed, migration, breaker
   transition) is an [Io.output], which makes the whole service layer a
   function of the trace: metrics, CI gates and the determinism digest all
   read the same history. *)

open Simulator
open Simulator.Types

type op = Write of { key : string; value : string } | Read of { key : string }

type Msg.payload +=
  | Request of { client : proc_id; rid : int; strong : bool; op : op }
  | Ack of { rid : int }
  | Reply of {
      rid : int;
      ok : bool;
      overloaded : bool;
      strong : bool;
      value : string option;
    }

type Io.output +=
  | Attempt of {
      client : proc_id;
      rid : int;
      attempt : int;
      endpoint : proc_id;
      strong : bool;
    }
  | Completed of {
      client : proc_id;
      rid : int;
      ok : bool;
      overloaded : bool;
      write : bool;
      strong : bool;
      latency : int;
      attempts : int;
      endpoint : proc_id;
    }
  | Shed of { endpoint : proc_id }
  | Duplicate_submit of { endpoint : proc_id; client : proc_id; rid : int }
  | Migrated of { client : proc_id; from_endpoint : proc_id; to_endpoint : proc_id }
  | Breaker of { client : proc_id; opened : bool }

let mode strong = if strong then "strong" else "weak"

let () =
  Io.register_output_text (fun () b _ -> function
    | Attempt { client; rid; attempt; endpoint; strong } ->
      Printf.bprintf b "c%d#%d attempt %d -> r%d %s" client rid attempt endpoint
        (mode strong);
      true
    | Completed { client; rid; ok; overloaded; write; strong; latency; attempts;
                  endpoint } ->
      Printf.bprintf b "c%d#%d %s%s %s %s lat=%d tries=%d r%d" client rid
        (if ok then "done" else "gave-up")
        (if overloaded then "(overloaded)" else "")
        (if write then "put" else "get")
        (mode strong) latency attempts endpoint;
      true
    | Shed { endpoint } ->
      Printf.bprintf b "r%d sheds" endpoint;
      true
    | Duplicate_submit { endpoint; client; rid } ->
      Printf.bprintf b "r%d dup c%d#%d" endpoint client rid;
      true
    | Migrated { client; from_endpoint; to_endpoint } ->
      Printf.bprintf b "c%d migrates r%d -> r%d" client from_endpoint to_endpoint;
      true
    | Breaker { client; opened } ->
      Printf.bprintf b "c%d breaker %s" client (if opened then "opens" else "closes");
      true
    | _ -> false)
