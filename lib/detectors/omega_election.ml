(* A message-passing emulation of Omega for partially synchronous runs.

   Oracles (Omega.t) are histories computed from the failure pattern; this
   module instead *implements* Omega the way a deployed system would: each
   process heartbeats on its local timeout, suspects processes whose
   heartbeats are overdue, and trusts the smallest unsuspected process.
   Timeouts grow adaptively on every false suspicion (the classical
   Chandra–Toueg trick), so in any run whose message delays are eventually
   bounded the emulation converges: eventually all correct processes trust
   the same correct process.

   In a fully asynchronous run no implementation of Omega exists (this is
   exactly why Omega is treated as an oracle in the paper); the emulation is
   provided to close the loop between the abstract results and a runnable
   system, and to feed the ablation benchmark (oracle vs emulated Omega). *)

open Simulator
open Simulator.Types

type Msg.payload += Heartbeat

type t = {
  ctx : Engine.ctx;
  last_heard : time array;     (* last heartbeat receipt per process *)
  timeout : int array;         (* current adaptive timeout per process *)
  suspected : bool array;
  mutable false_suspicions : int;
}

let leader t =
  let rec find p =
    if p >= t.ctx.Engine.n then t.ctx.Engine.self
    else if not t.suspected.(p) then p
    else find (p + 1)
  in
  find 0

let false_suspicions t = t.false_suspicions

let create (ctx : Engine.ctx) ~initial_timeout =
  if initial_timeout < 1 then
    invalid_arg "Omega_election.create: initial_timeout must be >= 1";
  let t =
    { ctx;
      last_heard = Array.make ctx.Engine.n (ctx.Engine.now ());
      timeout = Array.make ctx.Engine.n initial_timeout;
      suspected = Array.make ctx.Engine.n false;
      false_suspicions = 0 }
  in
  let on_timer () =
    let now = ctx.Engine.now () in
    ctx.Engine.broadcast Heartbeat;
    List.iter
      (fun p ->
         if p <> ctx.Engine.self
         && (not t.suspected.(p))
         && now - t.last_heard.(p) > t.timeout.(p)
         then t.suspected.(p) <- true)
      (all_procs ctx.Engine.n)
  in
  let on_message ~src payload =
    match payload with
    | Heartbeat ->
      t.last_heard.(src) <- ctx.Engine.now ();
      if t.suspected.(src) then begin
        (* False suspicion: rehabilitate and back off the timeout. *)
        t.suspected.(src) <- false;
        t.false_suspicions <- t.false_suspicions + 1;
        t.timeout.(src) <- t.timeout.(src) * 2
      end
    | _ -> ()
  in
  let node = { Engine.on_message; on_timer; on_input = (fun _ -> ()) } in
  (t, node)
