(* The discrete-event simulation engine.

   This is the executable form of the computational model of Section 2: each
   process is a deterministic automaton whose steps are triggered by message
   deliveries, periodic local timeouts (the paper's "on local timeout"
   clauses) and external inputs.  A step runs atomically: it may consult a
   failure detector (protocols capture a detector closure at construction
   time), update local state, send messages and produce outputs.

   Admissibility (Section 2): every correct process takes infinitely many
   steps, and every message sent to a correct process is eventually
   received.  The engine realizes both on any finite horizon: timers fire
   forever at every alive process, and every send is assigned a finite
   delay, so only the configured deadline truncates the run.

   Runtime notes.  A run takes its steps from two sources.  Everything
   known before the first step (each process's first timer fire, the
   Crash/Recover pair of every downtime window, every input) is the
   pre-run schedule: two arrays sorted stably by time, read by a cursor.
   What the run schedules itself, deliveries and timer chains, goes into
   a mutable bucket queue ([Pqueue]: a FIFO list per tick) driven in
   place, so the queue holds about what is in flight, not the whole input
   history.  [event_loop] gives a tie to the schedule, which makes the
   order exactly the stable (time, seq) order of one queue holding both
   (DESIGN.md §24, §26).  test/engine_oracle.ml keeps that one queue, and
   test_simulator compares the two engines step by step; the queue's own
   order is differentially tested against the original persistent heap.
   Observability goes through exactly one [Sink.t]: by default a [Sink.
   recorder] over the returned trace (the historical behaviour), or the
   caller's sink from [config.sink] — in which case the returned trace
   stays empty and the caller observes the run through the sink alone. *)

open Types

type ctx = {
  self : proc_id;
  n : int;
  now : unit -> time;
  send : proc_id -> Msg.payload -> unit;
  broadcast : Msg.payload -> unit;
  output : Io.output -> unit;
  rng : Rng.t;
}

type node = {
  on_message : src:proc_id -> Msg.payload -> unit;
  on_timer : unit -> unit;
  on_input : Io.input -> unit;
}

let idle_node =
  { on_message = (fun ~src:_ _ -> ()); on_timer = (fun () -> ()); on_input = (fun _ -> ()) }

(* Run two protocol components side by side on the same process.  Both see
   every event; components ignore payloads and inputs that are not theirs. *)
let combine a b =
  { on_message = (fun ~src payload -> a.on_message ~src payload; b.on_message ~src payload);
    on_timer = (fun () -> a.on_timer (); b.on_timer ());
    on_input = (fun input -> a.on_input input; b.on_input input) }

let stack nodes = List.fold_left combine idle_node nodes

type event =
  | Deliver of Msg.envelope
  | Timer of proc_id
  | External_input of proc_id * Io.input
  | Crash of proc_id  (* entry into a downtime window of the pattern *)
  | Recover of proc_id  (* end of a downtime window: restart the process *)

type config = {
  n : int;
  pattern : Failures.pattern;
  delay : Net.model;
  faults : Net.fault_model;
  timer_period : int;
  seed : int;
  deadline : time;
  sink : Sink.t option;
}

let default_config ~n ~deadline =
  { n;
    pattern = Failures.none ~n;
    delay = Net.constant 1;
    faults = Net.no_faults;
    timer_period = 2;
    seed = 42;
    deadline;
    sink = None }

let check_config config =
  if config.n < 2 then invalid_arg "Engine.run: n must be >= 2";
  if Failures.n config.pattern <> config.n then
    invalid_arg "Engine.run: pattern size does not match n";
  if config.timer_period < 1 then invalid_arg "Engine.run: timer_period must be >= 1";
  if config.deadline < 1 then invalid_arg "Engine.run: deadline must be >= 1"

type state = {
  config : config;
  sink : Sink.t;
  delay : Net.delay_fn;  (* instantiated once for this run *)
  faults : Net.fault_fn option;  (* None = pure reliable links *)
  net_rng : Rng.t;
  queue : event Pqueue.t;  (* mutated in place *)
  mutable clock : time;
  mutable next_uid : int;
}

(* An event past the deadline is never taken ([event_loop] stops at the
   first one), so it is not queued: the queued priorities then lie
   between the clock and the deadline, which bounds the queue's ring
   however long a delay, timer period or partition is (DESIGN.md §26).
   Its delay was drawn already, so [net_rng]'s stream is unchanged. *)
let schedule state ~at event =
  if at <= state.config.deadline then Pqueue.insert state.queue ~prio:at event

let alive state p = Failures.is_alive state.config.pattern p state.clock

(* Schedule one copy of a sent envelope after its own delay draw. *)
let deliver state (env : Msg.envelope) =
  let now = env.sent_at in
  let delay =
    Net.delay_of state.delay ~src:env.src ~dst:env.dst ~now ~rng:state.net_rng
  in
  schedule state ~at:(now + delay) (Deliver env)

(* One send path: a fault is drawn only when a fault model exists, so a
   fault-free run consumes [net_rng] exactly as the pre-fault engine. *)
let make_ctx state p =
  let send dst payload =
    let now = state.clock in
    let uid = state.next_uid in
    state.next_uid <- uid + 1;
    let env = { Msg.src = p; dst; payload; sent_at = now; uid } in
    state.sink.Sink.on_send env;
    match state.faults with
    | None -> deliver state env
    | Some faults ->
      (match Net.fault_of faults ~src:p ~dst ~now ~rng:state.net_rng with
       | Net.Deliver -> deliver state env
       | Net.Drop -> state.sink.Sink.on_drop ~at:now env
       | Net.Duplicate extra -> for _ = 0 to extra do deliver state env done)
  in
  { self = p;
    n = state.config.n;
    now = (fun () -> state.clock);
    send;
    broadcast = (fun payload -> for q = 0 to state.config.n - 1 do send q payload done);
    output = (fun o -> state.sink.Sink.on_output ~at:state.clock ~proc:p o);
    rng = Rng.create (state.config.seed lxor (0x5157 * (p + 1)));
  }

(* One event's worth of work: the per-event step of the engine loop,
   hoisted to the top level so alloclint can hold it (and everything it
   reaches) to the zero-allocation contract.  The steady-state paths
   (Deliver, Timer) allocate nothing themselves: timer events come from
   the preallocated [timer_events] array, the queue entry was already
   removed by the caller, and the remaining calls cross into the sink,
   node and revival closures — the three extension boundaries, each
   allowlisted below and charged to the E23 bytes-per-event budget.

   [revive] rebuilds a node after a downtime window ([make_node] over a
   fresh ctx); [pairs]/[nodes]/[timer_running] are the per-run arrays
   owned by [run_with]. *)
let dispatch state nodes pairs timer_running timer_events ~revive ~at event =
  match event with
  | Deliver env ->
    if alive state env.Msg.dst then begin
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_deliver ~at env;
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_step ~at ~proc:env.Msg.dst;
      (* detlint: allow A2 protocol automata are the workload boundary; charged to the E23 bytes-per-event budget *)
      nodes.(env.Msg.dst).on_message ~src:env.Msg.src env.Msg.payload
    end
    else
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_drop ~at env
  | Timer p ->
    if alive state p then begin
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_step ~at ~proc:p;
      (* detlint: allow A2 protocol automata are the workload boundary; charged to the E23 bytes-per-event budget *)
      nodes.(p).on_timer ();
      schedule state ~at:(at + state.config.timer_period) timer_events.(p)
    end
    else timer_running.(p) <- false
  | External_input (p, input) ->
    if alive state p then begin
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_input ~at ~proc:p input;
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_step ~at ~proc:p;
      (* detlint: allow A2 protocol automata are the workload boundary; charged to the E23 bytes-per-event budget *)
      nodes.(p).on_input input
    end
  | Crash p ->
    (* Drop the in-flight volatile state: the old automaton is
       discarded; only what it put into its stable store (see
       lib/persist) survives to the restart.  Deliveries, timers
       and inputs during the window are already suppressed by the
       [alive] guards above. *)
    nodes.(p) <- idle_node;
    (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
    state.sink.Sink.on_crash ~at ~proc:p
  | Recover p ->
    (* Restart hook: re-run the caller's [make_node] for p.  The
       fresh automaton starts from its initial state (plus whatever
       it replays from stable storage inside [make_node]); its ctx
       draws from a freshly re-seeded per-process rng, so runs stay
       deterministic.  Skipped if a permanent crash precedes the
       restart. *)
    if alive state p then begin
      (* detlint: allow A2 sink callbacks are the observability boundary; charged to the E23 bytes-per-event budget *)
      state.sink.Sink.on_recover ~at ~proc:p;
      (* detlint: allow A2 node revival after a downtime window is off the steady-state event path *)
      let pair = revive p in
      pairs.(p) <- pair;
      nodes.(p) <- fst pair;
      if not timer_running.(p) then begin
        timer_running.(p) <- true;
        schedule state
          ~at:(at + 1 + (p mod state.config.timer_period))
          timer_events.(p)
      end
    end

(* The event loop: one [dispatch] per event, until the next event lies
   past the deadline (it is never taken, which is observably identical to
   taking and discarding it).  Two sources feed it.  The pre-run schedule
   ([times]/[events], read from index [next] on) holds every event known
   before the first step; the queue holds what the run itself schedules
   up to the deadline, deliveries and the timer chains.  A tie goes to the schedule: in one
   (time, seq) queue each of its events would carry a smaller seq than
   any event scheduled while running, so taking it first is exactly that
   queue's pop order.  The head is read with min_prio/min_value and
   discarded with remove_min, so the loop builds no option or pair. *)
let rec event_loop state nodes pairs timer_running timer_events ~revive times
    events next =
  let queue = state.queue in
  if next < Array.length times
  && (Pqueue.is_empty queue || times.(next) <= Pqueue.min_prio queue)
  then begin
    let at = times.(next) in
    if at <= state.config.deadline then begin
      state.clock <- at;
      dispatch state nodes pairs timer_running timer_events ~revive ~at
        events.(next);
      event_loop state nodes pairs timer_running timer_events ~revive times
        events (next + 1)
    end
  end
  else if not (Pqueue.is_empty queue) then begin
    let at = Pqueue.min_prio queue in
    if at <= state.config.deadline then begin
      let event = Pqueue.min_value queue in
      Pqueue.remove_min queue;
      state.clock <- at;
      dispatch state nodes pairs timer_running timer_events ~revive ~at event;
      event_loop state nodes pairs timer_running timer_events ~revive times
        events next
    end
  end

(* The pre-run schedule as two arrays, sorted stably by time.  Events are
   listed in scheduling order: each process's first timer fire, staggered
   so processes are not in lockstep; the Crash/Recover pair of every
   downtime window of the pattern; then the inputs, in list order.
   Stability keeps that order among equal times, the order one (time,
   seq) queue would pop them in.  With the loop's tie rule, a process
   restarted at t sees the deliveries of t, and an input at a first
   timer's tick follows the timer. *)
let pre_run_schedule config timer_events ~inputs =
  let windows = Failures.recovery_events config.pattern in
  let size = config.n + (2 * List.length windows) + List.length inputs in
  let times = Array.make size 0 and events = Array.make size timer_events.(0) in
  let k = ref 0 in
  let add at event =
    times.(!k) <- at;
    events.(!k) <- event;
    incr k
  in
  for p = 0 to config.n - 1 do
    add (1 + (p mod config.timer_period)) timer_events.(p)
  done;
  List.iter
    (fun (p, at, recover_at) -> add at (Crash p); add recover_at (Recover p))
    windows;
  List.iter
    (fun (t, p, input) ->
       if t < 0 then invalid_arg "Engine.run: negative input time";
       add t (External_input (p, input)))
    inputs;
  let order = Array.init size Fun.id in
  Array.stable_sort (fun i j -> Int.compare times.(i) times.(j)) order;
  (Array.map (fun i -> times.(i)) order, Array.map (fun i -> events.(i)) order)

let run_with config ~make_node ~inputs =
  check_config config;
  let trace = Trace.create ~n:config.n in
  let sink =
    match config.sink with None -> Sink.recorder trace | Some s -> s
  in
  let state =
    { config;
      sink;
      delay = Net.instantiate config.delay;
      faults = Net.instantiate_faults config.faults;
      net_rng = Rng.create (config.seed lxor 0x6e65);
      queue = Pqueue.create ();
      clock = 0;
      next_uid = 0 }
  in
  let pairs =
    Array.init config.n (fun p -> make_node (make_ctx state p))
  in
  let nodes = Array.map fst pairs in
  let revive p = make_node (make_ctx state p) in
  (* Timer events never carry state beyond the process id, so one
     preallocated event per process serves every tick of the run: the
     steady-state timer chain allocates nothing. *)
  let timer_events = Array.init config.n (fun p -> Timer p) in
  (* Whether process p currently has a pending Timer event in the queue.
     A timer chain dies when it fires while its process is down; Recover
     starts a fresh chain only if the old one is gone, so a short downtime
     window never doubles the timer rate. *)
  let timer_running = Array.make config.n true in
  let times, events = pre_run_schedule config timer_events ~inputs in
  event_loop state nodes pairs timer_running timer_events ~revive times events
    0;
  (trace, Array.map snd pairs)

let run config ~make_node ~inputs =
  let trace, _ =
    run_with config ~make_node:(fun ctx -> (make_node ctx, ())) ~inputs
  in
  trace
