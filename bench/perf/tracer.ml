(* Span recorder for the traced run.

   Spans nest: the engine run contains process steps, a step contains its
   protocol component's handler and the sends it makes, a send contains
   the net-model draws and the sink calls.  Each span's self time (its
   duration minus its children's) is charged to its kind as the span
   closes, so per-layer totals cost O(1) per span whatever the run length.
   The first [capacity] spans are also kept, name/start/stop/parent, in
   preallocated arrays and written out as TSV for offline inspection.

   One process, one domain: the recorder is global state, reset per run. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span kinds, one per layer boundary the traced run wraps. *)
let k_run = 0
let k_node = 1
let k_proto_msg = 2
let k_proto_timer = 3
let k_proto_input = 4
let k_send = 5
let k_net_delay = 6
let k_net_fault = 7
let k_sink = 8
let kinds = 9

let kind_name =
  [| "run"; "node"; "proto.msg"; "proto.timer"; "proto.input"; "send";
     "net.delay"; "net.fault"; "sink" |]

let self_ns = Array.make kinds 0
let count = Array.make kinds 0

let max_depth = 64
let stk_kind = Array.make max_depth 0
let stk_start = Array.make max_depth 0
let stk_child = Array.make max_depth 0
let stk_id = Array.make max_depth 0
let depth = ref (-1)

let capacity = 1 lsl 16
let sp_kind = Array.make capacity 0
let sp_start = Array.make capacity 0
let sp_stop = Array.make capacity 0
let sp_parent = Array.make capacity 0
let spans = ref 0

(* A growable int series (per-event timestamps, per-message self times). *)
type series = { mutable data : int array; mutable len : int }

let series () = { data = Array.make 4096 0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let step_times = series ()
let msg_self = series ()

let reset () =
  Array.fill self_ns 0 kinds 0;
  Array.fill count 0 kinds 0;
  depth := -1;
  spans := 0;
  step_times.len <- 0;
  msg_self.len <- 0

let enter k =
  let d = !depth + 1 in
  depth := d;
  let id = !spans in
  spans := id + 1;
  stk_kind.(d) <- k;
  stk_child.(d) <- 0;
  stk_id.(d) <- id;
  if id < capacity then begin
    sp_kind.(id) <- k;
    sp_parent.(id) <- (if d = 0 then -1 else stk_id.(d - 1))
  end;
  stk_start.(d) <- now ()

(* Close the innermost span; returns its self time in ns. *)
let leave () =
  let stop = now () in
  let d = !depth in
  let k = stk_kind.(d) in
  let dur = stop - stk_start.(d) in
  let self = dur - stk_child.(d) in
  self_ns.(k) <- self_ns.(k) + self;
  count.(k) <- count.(k) + 1;
  let id = stk_id.(d) in
  if id < capacity then begin
    sp_start.(id) <- stk_start.(d);
    sp_stop.(id) <- stop
  end;
  depth := d - 1;
  if d > 0 then stk_child.(d - 1) <- stk_child.(d - 1) + dur;
  self

let leave_ () = ignore (leave ())

(* {2 Wrappers for the layer boundaries} *)

open Simulator

(* The protocol component inside the process stack (see [wrap_node]):
   message self times also feed the per-message series. *)
let wrap_proto (n : Engine.node) =
  { Engine.on_message =
      (fun ~src payload ->
        enter k_proto_msg;
        n.Engine.on_message ~src payload;
        push msg_self (leave ()));
    on_timer =
      (fun () ->
        enter k_proto_timer;
        n.Engine.on_timer ();
        leave_ ());
    on_input =
      (fun input ->
        enter k_proto_input;
        n.Engine.on_input input;
        leave_ ()) }

let wrap_node (n : Engine.node) =
  { Engine.on_message =
      (fun ~src payload ->
        enter k_node;
        n.Engine.on_message ~src payload;
        leave_ ());
    on_timer =
      (fun () ->
        enter k_node;
        n.Engine.on_timer ();
        leave_ ());
    on_input =
      (fun input ->
        enter k_node;
        n.Engine.on_input input;
        leave_ ()) }

let wrap_ctx (c : Engine.ctx) =
  { c with
    Engine.send =
      (fun dst payload ->
        enter k_send;
        c.Engine.send dst payload;
        leave_ ());
    broadcast =
      (fun payload ->
        enter k_send;
        c.Engine.broadcast payload;
        leave_ ()) }

let wrap_delay model =
  Net.per_run (fun () ->
      let f = Net.instantiate model in
      fun ~src ~dst ~now ~rng ->
        enter k_net_delay;
        let d = f ~src ~dst ~now ~rng in
        leave_ ();
        d)

(* [Net.no_faults] must stay itself: the engine takes its fault-free send
   path only for that value. *)
let wrap_faults model =
  match Net.instantiate_faults model with
  | None -> Net.no_faults
  | Some _ ->
    Net.fault_per_run (fun () ->
        match Net.instantiate_faults model with
        | None -> fun ~src:_ ~dst:_ ~now:_ ~rng:_ -> Net.Deliver
        | Some f ->
          fun ~src ~dst ~now ~rng ->
            enter k_net_fault;
            let v = f ~src ~dst ~now ~rng in
            leave_ ();
            v)

(* A recorder into [trace] whose every callback is a sink span; [on_step]
   also stamps the per-event series before it enters. *)
let recorder trace =
  let s = Sink.recorder trace in
  { Sink.on_input =
      (fun ~at ~proc input ->
        enter k_sink;
        s.Sink.on_input ~at ~proc input;
        leave_ ());
    on_output =
      (fun ~at ~proc output ->
        enter k_sink;
        s.Sink.on_output ~at ~proc output;
        leave_ ());
    on_send =
      (fun env ->
        enter k_sink;
        s.Sink.on_send env;
        leave_ ());
    on_deliver =
      (fun ~at env ->
        enter k_sink;
        s.Sink.on_deliver ~at env;
        leave_ ());
    on_drop =
      (fun ~at env ->
        enter k_sink;
        s.Sink.on_drop ~at env;
        leave_ ());
    on_step =
      (fun ~at ~proc ->
        push step_times (now ());
        enter k_sink;
        s.Sink.on_step ~at ~proc;
        leave_ ());
    on_crash =
      (fun ~at ~proc ->
        enter k_sink;
        s.Sink.on_crash ~at ~proc;
        leave_ ());
    on_recover =
      (fun ~at ~proc ->
        enter k_sink;
        s.Sink.on_recover ~at ~proc;
        leave_ ()) }

(* Engine config for a traced run: net models and sink wrapped; the
   returned trace is the one the recorder fills. *)
let config (cfg : Engine.config) =
  let trace = Trace.create ~n:cfg.Engine.n in
  ( { cfg with
      Engine.delay = wrap_delay cfg.Engine.delay;
      faults = wrap_faults cfg.Engine.faults;
      sink = Some (recorder trace) },
    trace )

(* {2 Aggregation across runs} *)

(* Totals of everything the per-layer metrics need, accumulated over the
   traced runs of one unit. *)
type totals = {
  t_self : int array;
  t_count : int array;
  mutable events : int;
  mutable sends : int;
  mutable q1_ns : int;  (** time of the first quarter of each run's events *)
  mutable q4_ns : int;  (** time of the last quarter *)
  mutable q_n : int;  (** events per quarter, summed over runs *)
  mutable mq1_ns : int;  (** protocol self time, first quarter of the messages *)
  mutable mq4_ns : int;  (** protocol self time, last quarter *)
  mutable mq_n : int;  (** messages per quarter, summed over runs *)
}

let totals () =
  { t_self = Array.make kinds 0;
    t_count = Array.make kinds 0;
    events = 0;
    sends = 0;
    q1_ns = 0;
    q4_ns = 0;
    q_n = 0;
    mq1_ns = 0;
    mq4_ns = 0;
    mq_n = 0 }

(* Fold the finished run into [t]: step-cost slope from the event
   timestamps (first vs last quarter), message-cost slope from the
   per-message self times. *)
let absorb t trace =
  for k = 0 to kinds - 1 do
    t.t_self.(k) <- t.t_self.(k) + self_ns.(k);
    t.t_count.(k) <- t.t_count.(k) + count.(k)
  done;
  t.events <- t.events + Trace.steps trace;
  t.sends <- t.sends + Trace.sent trace;
  let e = step_times.len and q = step_times.len / 4 in
  if q > 0 then begin
    t.q1_ns <- t.q1_ns + (step_times.data.(q) - step_times.data.(0));
    t.q4_ns <- t.q4_ns + (step_times.data.(e - 1) - step_times.data.(e - 1 - q));
    t.q_n <- t.q_n + q
  end;
  let m = msg_self.len and q = msg_self.len / 4 in
  if q > 0 then begin
    for i = 0 to q - 1 do
      t.mq1_ns <- t.mq1_ns + msg_self.data.(i);
      t.mq4_ns <- t.mq4_ns + msg_self.data.(m - 1 - i)
    done;
    t.mq_n <- t.mq_n + q
  end

(* Run [f] as one traced engine run: reset, open the run span, fold the
   result into [t]. *)
let traced_run t f =
  reset ();
  enter k_run;
  let trace = f () in
  leave_ ();
  absorb t trace;
  trace

let write_tsv path =
  let n = min !spans capacity in
  let base = if n > 0 then sp_start.(0) else 0 in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "id\tname\tstart_ns\tstop_ns\tparent\n";
      for i = 0 to n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i kind_name.(sp_kind.(i))
          (sp_start.(i) - base) (sp_stop.(i) - base) sp_parent.(i)
      done)
