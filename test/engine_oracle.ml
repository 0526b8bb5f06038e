(* Test oracle: the engine's event loop as it was written before the
   pre-run schedule became a sorted cursor beside the heap.  Every event
   known before the first step (each process's first timer fire, the
   Crash/Recover pair of every downtime window, every input) goes into
   one (time, seq) queue, the same queue the run's deliveries and timer
   chains go into, and each step pops that queue's head.  The queue is
   the persistent leftist heap [Pqueue_persistent], so the oracle shares
   neither its loop nor its heap with [Simulator.Engine].  test_simulator
   runs both on random configurations and requires the same trace text,
   counters and sink event log.  [make_ctx] and [dispatch] are copies of
   the engine's, [broadcast] still walking [all_procs]. *)

open Simulator
open Simulator.Types

type event =
  | Deliver of Msg.envelope
  | Timer of proc_id
  | External_input of proc_id * Io.input
  | Crash of proc_id
  | Recover of proc_id

type state = {
  config : Engine.config;
  sink : Sink.t;
  delay : Net.delay_fn;
  faults : Net.fault_fn option;
  net_rng : Rng.t;
  mutable queue : event Pqueue_persistent.t;
  mutable clock : time;
  mutable next_uid : int;
}

let schedule state ~at event =
  state.queue <- Pqueue_persistent.insert state.queue ~prio:at event

let alive state p = Failures.is_alive state.config.pattern p state.clock

let deliver state (env : Msg.envelope) =
  let now = env.sent_at in
  let delay =
    Net.delay_of state.delay ~src:env.src ~dst:env.dst ~now ~rng:state.net_rng
  in
  schedule state ~at:(now + delay) (Deliver env)

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
  { Engine.self = p;
    n = state.config.n;
    now = (fun () -> state.clock);
    send;
    broadcast = (fun payload -> List.iter (fun q -> send q payload) (all_procs state.config.n));
    output = (fun o -> state.sink.Sink.on_output ~at:state.clock ~proc:p o);
    rng = Rng.create (state.config.seed lxor (0x5157 * (p + 1)));
  }

let dispatch state nodes pairs timer_running ~revive ~at event =
  match event with
  | Deliver env ->
    if alive state env.Msg.dst then begin
      state.sink.Sink.on_deliver ~at env;
      state.sink.Sink.on_step ~at ~proc:env.Msg.dst;
      nodes.(env.Msg.dst).Engine.on_message ~src:env.Msg.src env.Msg.payload
    end
    else state.sink.Sink.on_drop ~at env
  | Timer p ->
    if alive state p then begin
      state.sink.Sink.on_step ~at ~proc:p;
      nodes.(p).Engine.on_timer ();
      schedule state ~at:(at + state.config.timer_period) (Timer p)
    end
    else timer_running.(p) <- false
  | External_input (p, input) ->
    if alive state p then begin
      state.sink.Sink.on_input ~at ~proc:p input;
      state.sink.Sink.on_step ~at ~proc:p;
      nodes.(p).Engine.on_input input
    end
  | Crash p ->
    nodes.(p) <- Engine.idle_node;
    state.sink.Sink.on_crash ~at ~proc:p
  | Recover p ->
    if alive state p then begin
      state.sink.Sink.on_recover ~at ~proc:p;
      let pair = revive p in
      pairs.(p) <- pair;
      nodes.(p) <- fst pair;
      if not timer_running.(p) then begin
        timer_running.(p) <- true;
        schedule state
          ~at:(at + 1 + (p mod state.config.timer_period))
          (Timer p)
      end
    end

let run_with (config : Engine.config) ~make_node ~inputs =
  Engine.check_config config;
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
      queue = Pqueue_persistent.empty;
      clock = 0;
      next_uid = 0 }
  in
  let pairs = Array.init config.n (fun p -> make_node (make_ctx state p)) in
  let nodes = Array.map fst pairs in
  let revive p = make_node (make_ctx state p) in
  let timer_running = Array.make config.n true in
  List.iter
    (fun p -> schedule state ~at:(1 + (p mod config.timer_period)) (Timer p))
    (all_procs config.n);
  List.iter
    (fun (p, at, recover_at) ->
       schedule state ~at (Crash p);
       schedule state ~at:recover_at (Recover p))
    (Failures.recovery_events config.pattern);
  List.iter
    (fun (t, p, input) ->
       if t < 0 then invalid_arg "Engine.run: negative input time";
       schedule state ~at:t (External_input (p, input)))
    inputs;
  let rec loop () =
    match Pqueue_persistent.pop state.queue with
    | Some ((at, event), rest) when at <= config.deadline ->
      state.queue <- rest;
      state.clock <- at;
      dispatch state nodes pairs timer_running ~revive ~at event;
      loop ()
    | _ -> ()
  in
  loop ();
  (trace, Array.map snd pairs)
