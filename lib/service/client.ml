(* The closed-loop client: arrivals, retries, backoff, migration and the
   degradation breaker — the robustness loop every request travels.

   One client process drives one logical request at a time through a small
   state machine:

     Idle --(arrival)--> Waiting --(ok reply)-----------------> Idle
                            |  ^                                  ^
            (deadline/shed) |  | (resend at backoff expiry)       |
                            v  |                                  |
                          Backoff --(budget exhausted)------------+

   Retries reuse the request id, so the request stays idempotent end to
   end; the per-attempt backoff is capped exponential with seeded jitter.
   Crash suspicion is ack-based: only attempts that receive no Ack at all
   count towards the migration streak, so a partitioned-but-alive endpoint
   keeps its pinned clients and the availability gap stays a protocol
   property, not a routing artifact.  Strong-mode failures feed a circuit
   breaker (closed -> open -> half-open probe, cooldown doubling up to 8x);
   while the breaker is open the client degrades committed-prefix requests
   to the speculative path — the graceful-degradation switch of
   DESIGN.md §16. *)

open Simulator
open Simulator.Types
open Harness

type breaker = Closed | Open_until of time | Half_open

type inflight = {
  rid : int;
  op : Wire.op;
  write : bool;
  mutable strong : bool;  (* mode of the current attempt *)
  mutable attempt : int;  (* 1-based *)
  first_sent : time;
  mutable sent_at : time;
  mutable acked : bool;
  mutable endpoint : proc_id;
}

type phase = Idle | Waiting of inflight | Backoff of inflight

type t = {
  ctx : Engine.ctx;
  spec : Service_spec.t;
  replicas : int;
  mutable pin : proc_id;
  mutable phase : phase;
  mutable next_at : time;  (* arrival (Idle) or resend (Backoff) time *)
  mutable rid_next : int;
  mutable dead_streak : int;  (* consecutive fully-unacked attempts *)
  mutable strong_fails : int;  (* consecutive strong-mode failures *)
  mutable breaker : breaker;
  mutable cooldown : int;
  mutable sched : time;  (* open-loop arrival cursor *)
  mutable burst_left : int;
}

(* Uniform in [1, 2m-1]: jitter with mean m, never zero. *)
let draw_mean t m = 1 + Rng.int t.ctx.rng (max 1 ((2 * m) - 1))

let schedule_next t ~now =
  (match t.spec.arrival with
   | Service_spec.Closed { think } -> t.next_at <- now + draw_mean t think
   | Service_spec.Open_loop { gap } ->
     (* Paced independently of completions; a lagging loop collapses the
        backlog to back-to-back rather than replaying it. *)
     t.sched <- max t.sched now;
     t.sched <- t.sched + draw_mean t gap;
     t.next_at <- t.sched
   | Service_spec.Bursty { burst; gap } ->
     if t.burst_left > 0 then begin
       t.burst_left <- t.burst_left - 1;
       t.next_at <- now
     end
     else begin
       t.burst_left <- burst - 1;
       t.next_at <- now + gap
     end);
  t.phase <- Idle

(* The mode of the next attempt, advancing an expired cooldown to the
   half-open probe state. *)
let attempt_strong t ~now =
  if not t.spec.strong then false
  else
    match t.breaker with
    | Closed | Half_open -> true
    | Open_until until ->
      if now >= until then begin
        t.breaker <- Half_open;
        true
      end
      else false

let send_attempt t (inf : inflight) ~now =
  inf.attempt <- inf.attempt + 1;
  inf.strong <- attempt_strong t ~now;
  inf.sent_at <- now;
  inf.acked <- false;
  inf.endpoint <- t.pin;
  t.ctx.output
    (Wire.Attempt
       { client = t.ctx.self; rid = inf.rid; attempt = inf.attempt;
         endpoint = t.pin; strong = inf.strong });
  t.ctx.send t.pin
    (Wire.Request { client = t.ctx.self; rid = inf.rid; strong = inf.strong;
                    op = inf.op });
  t.phase <- Waiting inf

let start_request t ~now =
  let rid = t.rid_next in
  t.rid_next <- rid + 1;
  let key =
    if Rng.int t.ctx.rng 100 < t.spec.skew_pct then "hot"
    else Printf.sprintf "k%d" (Rng.int t.ctx.rng t.spec.keys)
  in
  let write = Rng.int t.ctx.rng 100 < t.spec.write_pct in
  let op =
    if write then
      Wire.Write { key; value = Printf.sprintf "v%d.%d" t.ctx.self rid }
    else Wire.Read { key }
  in
  let inf =
    { rid; op; write; strong = false; attempt = 0; first_sent = now;
      sent_at = now; acked = false; endpoint = t.pin }
  in
  send_attempt t inf ~now

let finish t (inf : inflight) ~now ~ok ~overloaded =
  t.ctx.output
    (Wire.Completed
       { client = t.ctx.self; rid = inf.rid; ok; overloaded; write = inf.write;
         strong = inf.strong; latency = now - inf.first_sent;
         attempts = inf.attempt; endpoint = inf.endpoint });
  schedule_next t ~now

(* Feed one strong-mode attempt result to the circuit breaker. *)
let breaker_feed t ~now ~ok ~strong =
  if strong then
    if ok then begin
      t.strong_fails <- 0;
      match t.breaker with
      | Half_open ->
        t.breaker <- Closed;
        t.cooldown <- t.spec.breaker_cooldown;
        t.ctx.output (Wire.Breaker { client = t.ctx.self; opened = false })
      | Closed | Open_until _ -> ()
    end
    else
      match t.breaker with
      | Half_open ->
        (* Failed probe: reopen, doubling the cooldown up to 8x. *)
        t.cooldown <- min (2 * t.cooldown) (8 * t.spec.breaker_cooldown);
        t.breaker <- Open_until (now + t.cooldown);
        t.ctx.output (Wire.Breaker { client = t.ctx.self; opened = true })
      | Closed ->
        t.strong_fails <- t.strong_fails + 1;
        if t.strong_fails >= t.spec.breaker_k then begin
          t.breaker <- Open_until (now + t.cooldown);
          t.ctx.output (Wire.Breaker { client = t.ctx.self; opened = true })
        end
      | Open_until _ -> ()

let attempt_failed t (inf : inflight) ~now ~overloaded =
  (* Crash suspicion: only silent attempts count.  A shed or a timed-out
     strong reply still proves the endpoint alive. *)
  if inf.acked then t.dead_streak <- 0
  else begin
    t.dead_streak <- t.dead_streak + 1;
    if t.dead_streak >= t.spec.migrate_after && t.replicas > 1 then begin
      let from_endpoint = t.pin in
      t.pin <- (t.pin + 1) mod t.replicas;
      t.dead_streak <- 0;
      t.ctx.output
        (Wire.Migrated { client = t.ctx.self; from_endpoint; to_endpoint = t.pin })
    end
  end;
  breaker_feed t ~now ~ok:false ~strong:inf.strong;
  if inf.attempt <= t.spec.retries then begin
    let exp = min 20 (inf.attempt - 1) in
    let base = min t.spec.backoff_cap (t.spec.backoff_base * (1 lsl exp)) in
    let span = base * t.spec.jitter_pct / 100 in
    let jitter = if span <= 0 then 0 else Rng.int t.ctx.rng (span + 1) in
    t.next_at <- now + base + jitter;
    t.phase <- Backoff inf
  end
  else finish t inf ~now ~ok:false ~overloaded

let succeed t (inf : inflight) ~now =
  breaker_feed t ~now ~ok:true ~strong:inf.strong;
  t.dead_streak <- 0;
  finish t inf ~now ~ok:true ~overloaded:false

let on_message t ~src payload =
  let now = t.ctx.now () in
  match payload with
  | Wire.Ack { rid } ->
    (match t.phase with
     | Waiting inf when inf.rid = rid && src = inf.endpoint ->
       inf.acked <- true;
       t.dead_streak <- 0
     | _ -> ())
  | Wire.Reply { rid; ok; overloaded; _ } ->
    (match t.phase with
     | Waiting inf when inf.rid = rid ->
       if ok then succeed t inf ~now
       else attempt_failed t inf ~now ~overloaded
     | Backoff inf when inf.rid = rid && ok ->
       (* A slow success overtook its own timeout: the operation did
          complete, so count it and cancel the retry. *)
       succeed t inf ~now
     | _ -> ())
  | _ -> ()

let on_timer t () =
  let now = t.ctx.now () in
  match t.phase with
  | Idle -> if now >= t.next_at then start_request t ~now
  | Backoff inf -> if now >= t.next_at then send_attempt t inf ~now
  | Waiting inf ->
    if now >= inf.sent_at + t.spec.req_deadline then
      attempt_failed t inf ~now ~overloaded:false

let create ctx ~spec ~replicas ~index =
  let mean_gap =
    match (spec : Service_spec.t).arrival with
    | Service_spec.Closed { think } -> think
    | Service_spec.Open_loop { gap } -> gap
    | Service_spec.Bursty { gap; _ } -> gap
  in
  let t =
    { ctx; spec; replicas;
      pin = index mod replicas;
      phase = Idle;
      (* Stagger first arrivals so a population doesn't fire in lockstep. *)
      next_at = 1 + Rng.int ctx.rng (mean_gap + 1);
      rid_next = 0;
      dead_streak = 0;
      strong_fails = 0;
      breaker = Closed;
      cooldown = spec.breaker_cooldown;
      sched = 0;
      burst_left =
        (match spec.arrival with
         | Service_spec.Bursty { burst; _ } -> burst - 1
         | _ -> 0) }
  in
  t.sched <- t.next_at;
  let node =
    Engine.
      { on_message = on_message t;
        on_timer = on_timer t;
        on_input = (fun _ -> ()) }
  in
  (t, node)
