(* Test oracle: the trace text as Format laid it out before every entry
   was written directly.  The whole trace is one vertical box, each input
   and output goes through the Format printer its library registered, and
   every revision of every sequence is printed whole.  The printers are
   kept verbatim, dispatched on the constructor instead of through a
   registry, as the reference [Trace.text], [Trace.pp_entry] and the
   streaming sinks' text are checked against. *)

open Simulator
open Simulator.Types
open Ec_core
open Replication
open Service.Wire

let pp_dseq ppf t = App_msg.pp_seq ppf (Dseq.to_list t)

let mode strong = if strong then "strong" else "weak"

let pp_input ppf = function
  | Io.Tick_input -> Fmt.string ppf "tick"
  | Io.String_input s -> Fmt.pf ppf "in:%s" s
  | Etob_intf.Broadcast_etob m -> Fmt.pf ppf "broadcastETOB(%a)" App_msg.pp m
  | Ec_intf.Propose_ec { instance; value } ->
    Fmt.pf ppf "proposeEC_%d(%a)" instance Value.pp value
  | Eic_intf.Propose_eic { instance; value } ->
    Fmt.pf ppf "proposeEIC_%d(%a)" instance Value.pp value
  | Harness.Stacks.Post tag -> Fmt.pf ppf "post(%s)" tag
  | Session.Session_step -> Fmt.string ppf "session-step"
  | Session.Session_step_for s -> Fmt.pf ppf "session-step(s%d)" s
  | Replica.Submit c -> Fmt.pf ppf "submit(%a)" Command.pp c
  | _ -> Fmt.string ppf "<input>"

let pp_output ppf = function
  | Io.String_output s -> Fmt.pf ppf "out:%s" s
  | Etob_intf.Etob_broadcast m -> Fmt.pf ppf "etob-bcast(%a)" App_msg.pp m
  | Etob_intf.Etob_deliver seq -> Fmt.pf ppf "d_i:=%a" pp_dseq seq
  | Commit_prefix.Committed seq -> Fmt.pf ppf "committed:%a" pp_dseq seq
  | Ec_intf.Proposed_ec { layer; instance; value } ->
    Fmt.pf ppf "%s:proposedEC_%d(%a)" layer instance Value.pp value
  | Ec_intf.Decide_ec { layer; instance; value } ->
    Fmt.pf ppf "%s:decideEC_%d(%a)" layer instance Value.pp value
  | Eic_intf.Proposed_eic { instance; value } ->
    Fmt.pf ppf "proposedEIC_%d(%a)" instance Value.pp value
  | Eic_intf.Decide_eic { instance; value } ->
    Fmt.pf ppf "decideEIC_%d(%a)" instance Value.pp value
  | Session.Session_write { session; value } -> Fmt.pf ppf "s%d writes %d" session value
  | Session.Session_read { session; view; value } ->
    Fmt.pf ppf "s%d reads[%s] %a" session view Fmt.(option ~none:(any "-") int) value
  | Committed_replica.Applied_committed { machine; count; digest } ->
    Fmt.pf ppf "applied-committed[%s] %d cmds -> %s" machine count digest
  | Replica.Applied { machine; count; digest } ->
    Fmt.pf ppf "applied[%s] %d cmds -> %s" machine count digest
  | Attempt { client; rid; attempt; endpoint; strong } ->
    Fmt.pf ppf "c%d#%d attempt %d -> r%d %s" client rid attempt endpoint
      (mode strong)
  | Completed { client; rid; ok; overloaded; write; strong; latency; attempts;
                endpoint } ->
    Fmt.pf ppf "c%d#%d %s%s %s %s lat=%d tries=%d r%d" client rid
      (if ok then "done" else "gave-up")
      (if overloaded then "(overloaded)" else "")
      (if write then "put" else "get")
      (mode strong) latency attempts endpoint
  | Shed { endpoint } -> Fmt.pf ppf "r%d sheds" endpoint
  | Duplicate_submit { endpoint; client; rid } ->
    Fmt.pf ppf "r%d dup c%d#%d" endpoint client rid
  | Migrated { client; from_endpoint; to_endpoint } ->
    Fmt.pf ppf "c%d migrates r%d -> r%d" client from_endpoint to_endpoint
  | Breaker { client; opened } ->
    Fmt.pf ppf "c%d breaker %s" client (if opened then "opens" else "closes")
  | _ -> Fmt.string ppf "<output>"

let pp_entry ppf = function
  | Trace.In { t; proc; input } ->
    Fmt.pf ppf "[%4d] %a <- %a" t pp_proc proc pp_input input
  | Trace.Out { t; proc; output } ->
    Fmt.pf ppf "[%4d] %a -> %a" t pp_proc proc pp_output output

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,(sent=%d delivered=%d dropped=%d steps=%d end=%d)@]"
    (Fmt.list pp_entry) (Trace.entries t) (Trace.sent t) (Trace.delivered t)
    (Trace.dropped t) (Trace.steps t) (Trace.last_time t)

let text t = Format.asprintf "%a" pp t
