(* Network delay models.

   The paper assumes reliable links between every pair of processes in an
   asynchronous system: messages sent to correct processes are eventually
   received, but with no bound on delay.  A delay model assigns every send a
   finite positive delay, so eventual delivery holds by construction;
   asynchrony and partitions are modelled as (finitely) large delays.

   A [model] is what run configurations carry.  Most models are stateless
   pure functions shared freely across runs; stateful models (e.g. [fifo])
   carry a creation thunk instead, which the engine forces once per
   [Engine.run] so that no per-run mutable state ever leaks from one run
   into the next.  This is what keeps runs pure functions of their
   configuration even when one configuration value is reused for a whole
   seed sweep, including sweeps executing in parallel domains. *)

open Types

type delay_fn = src:proc_id -> dst:proc_id -> now:time -> rng:Rng.t -> int

type model =
  | Stateless of delay_fn
  | Per_run of (unit -> delay_fn)

let per_run mk = Per_run mk

let instantiate = function Stateless f -> f | Per_run mk -> mk ()

(* Map a delay_fn transformer over a model, preserving statefulness. *)
let lift f = function
  | Stateless g -> Stateless (f g)
  | Per_run mk -> Per_run (fun () -> f (mk ()))

let constant d =
  if d < 1 then invalid_arg "Net.constant: delay must be >= 1";
  Stateless (fun ~src:_ ~dst:_ ~now:_ ~rng:_ -> d)

let uniform ~min ~max =
  if min < 1 || max < min then invalid_arg "Net.uniform: need 1 <= min <= max";
  Stateless (fun ~src:_ ~dst:_ ~now:_ ~rng -> Rng.in_range rng ~min ~max)

(* A partition separates the processes into blocks during [from, until).
   Messages crossing blocks during the partition are delayed until just
   after the partition heals (plus their base delay), which models a
   partition in an asynchronous system with reliable links: nothing is lost,
   everything is late. *)
type partition_spec = {
  blocks : proc_id list list;
  from_time : time;
  until_time : time;
}

let block_index blocks p =
  let rec find i = function
    | [] -> None
    | b :: rest -> if List.mem p b then Some i else find (i + 1) rest
  in
  find 0 blocks

let same_block_of blocks p q =
  match block_index blocks p, block_index blocks q with
  | Some i, Some j -> i = j
  | _, _ -> true (* processes outside every block are unaffected *)

let same_block spec p q = same_block_of spec.blocks p q

let partitioned spec ~base =
  if spec.until_time < spec.from_time then
    invalid_arg "Net.partitioned: until_time < from_time";
  lift
    (fun base ~src ~dst ~now ~rng ->
       let d = base ~src ~dst ~now ~rng in
       if now >= spec.from_time && now < spec.until_time
          && not (same_block spec src dst)
       then spec.until_time - now + d
       else d)
    base

(* Multi-window schedules: a list of disjoint [(from, until)] windows in
   increasing order, as the lossy and flapping partitions cut. *)
let check_schedule ~name windows =
  let rec go prev = function
    | [] -> ()
    | (f, u) :: rest ->
      if u < f then invalid_arg (name ^ ": window with until < from");
      if f < prev then
        invalid_arg (name ^ ": windows must be disjoint and increasing");
      go u rest
  in
  go min_int windows

let window_closing windows now =
  List.find_map
    (fun (f, u) -> if now >= f && now < u then Some u else None)
    windows

(* Alternating up/down windows: the partition is down (cut) for [down]
   ticks, then up (healed) for [up] ticks, starting down at [from_time],
   clipped to [until_time] — a flapping bridge.  [repeating_windows
   ~from_time ~until_time ~down ~up] is the schedule of the cut spans. *)
let repeating_windows ~from_time ~until_time ~down ~up =
  if down < 1 || up < 1 then
    invalid_arg "Net.repeating_windows: down and up must be >= 1";
  if until_time < from_time then
    invalid_arg "Net.repeating_windows: until_time < from_time";
  let rec go t acc =
    if t >= until_time then List.rev acc
    else
      let u = min until_time (t + down) in
      go (u + up) ((t, u) :: acc)
  in
  go from_time []

let in_window ~from_time ~until_time now = now >= from_time && now < until_time

(* [only = None] means every link; otherwise only the listed directed
   (src, dst) pairs are affected. *)
let on_link only src dst =
  match only with None -> true | Some links -> List.mem (src, dst) links

(* An asynchrony burst: during [from, until), delays are inflated by
   [factor], which exercises the "no bound on delay between steps" clause
   without a structured partition.  [only] confines it to chosen directed
   links, so an adversary can slow exactly one channel (e.g. the leader's
   promotes to one follower) while the rest of the network stays fast. *)
let slow_links ?only ~from_time ~until_time ~factor base =
  if factor < 1 then invalid_arg "Net.slow_links: factor must be >= 1";
  if until_time < from_time then invalid_arg "Net.slow_links: until < from";
  lift
    (fun base ~src ~dst ~now ~rng ->
       let d = base ~src ~dst ~now ~rng in
       if in_window ~from_time ~until_time now && on_link only src dst then
         d * factor
       else d)
    base

(* Partial synchrony with a global stabilization time (Dwork-Lynch-
   Stockmeyer): before [gst], delays are chaotic up to [chaos_max]; from
   [gst] on, every delay is bounded by [bound].  This is the environment
   in which timeout-based Omega emulations are actually justified — fully
   asynchronous runs admit no Omega implementation at all, which is why
   the paper treats Omega as an oracle. *)
let partial_synchrony ~gst ~bound ~chaos_max =
  if bound < 1 || chaos_max < bound then
    invalid_arg "Net.partial_synchrony: need 1 <= bound <= chaos_max";
  Stateless
    (fun ~src:_ ~dst:_ ~now ~rng ->
       if now >= gst then 1 + Rng.int rng bound
       else 1 + Rng.int rng chaos_max)

(* A stateful FIFO wrapper: per ordered pair (src, dst), a message never
   overtakes an earlier one — its delivery time is clamped to strictly
   after the previous message's.  The paper's links are reliable but not
   FIFO; this wrapper lets experiments isolate how much of a protocol's
   behaviour depends on ordering (e.g. the stale-promote guard of
   Algorithm 5 becomes unnecessary under FIFO).  The clamp table is
   allocated inside the per-run thunk, so one [fifo] model value can be
   reused across any number of runs without cross-run contamination. *)
let fifo_fn ~(base : delay_fn) : delay_fn =
  let last_arrival : (proc_id * proc_id, time) Hashtbl.t = Hashtbl.create 64 in
  fun ~src ~dst ~now ~rng ->
    let d = base ~src ~dst ~now ~rng in
    let arrival = now + max 1 d in
    let arrival =
      match Hashtbl.find_opt last_arrival (src, dst) with
      | Some prev when arrival <= prev -> prev + 1
      | Some _ | None -> arrival
    in
    Hashtbl.replace last_arrival (src, dst) arrival;
    arrival - now

let fifo ~base = Per_run (fun () -> fifo_fn ~base:(instantiate base))

let delay_of (f : delay_fn) ~src ~dst ~now ~rng =
  (* detlint: allow A2 the delay model is the experiment's plug-in point; model cost is governed by the E23 bytes-per-event budget *)
  let d = f ~src ~dst ~now ~rng in
  if d < 1 then 1 else d

(* ------------------------------------------------------------------ *)
(* Link faults                                                         *)
(* ------------------------------------------------------------------ *)

(* Delay models keep the paper's reliable-links assumption: every send
   eventually arrives.  Fault models deliberately step OUTSIDE that model —
   they drop or duplicate individual sends — and exist for the adversarial
   explorer: windowed faults that heal before the run ends let eventual
   properties recover while safety properties must survive the abuse.
   [No_faults] is distinguished structurally so the engine can skip fault
   evaluation entirely (and consume no randomness) on the default path,
   keeping historical runs byte-identical. *)

type fault = Deliver | Drop | Duplicate of int (* extra copies, >= 1 *)

type fault_fn = src:proc_id -> dst:proc_id -> now:time -> rng:Rng.t -> fault

type fault_model =
  | No_faults
  | Fault_stateless of fault_fn
  | Fault_per_run of (unit -> fault_fn)

let no_faults = No_faults
let fault_of_fn f = Fault_stateless f
let fault_per_run mk = Fault_per_run mk

let instantiate_faults = function
  | No_faults -> None
  | Fault_stateless f -> Some f
  | Fault_per_run mk -> Some (mk ())

let check_window ~name ~from_time ~until_time =
  if from_time < 0 then invalid_arg (name ^ ": negative from_time");
  if until_time < from_time then invalid_arg (name ^ ": until_time < from_time")

(* Drop each message sent inside the window with probability [pct]/100
   ([pct = 100] drops deterministically and consumes no randomness). *)
let drop_window ?only ~from_time ~until_time pct =
  check_window ~name:"Net.drop_window" ~from_time ~until_time;
  if pct < 1 || pct > 100 then invalid_arg "Net.drop_window: pct must be in [1, 100]";
  Fault_stateless
    (fun ~src ~dst ~now ~rng ->
       if in_window ~from_time ~until_time now
       && on_link only src dst
       && (pct = 100 || Rng.int rng 100 < pct)
       then Drop
       else Deliver)

(* Deliver [copies] extra copies of each message sent inside the window,
   each with an independently drawn delay. *)
let duplicate_window ?only ~from_time ~until_time copies =
  check_window ~name:"Net.duplicate_window" ~from_time ~until_time;
  if copies < 1 then invalid_arg "Net.duplicate_window: copies must be >= 1";
  Fault_stateless
    (fun ~src ~dst ~now ~rng:_ ->
       if in_window ~from_time ~until_time now && on_link only src dst then
         Duplicate copies
       else Deliver)

(* Lossy partitions: unlike [partitioned] (which buffers cross-block
   sends until heal — reliable links, just late), these *drop* every
   cross-block send inside the window.  Nothing is retransmitted at this
   layer; recovery is the protocol's problem (re-gossip, anti-entropy),
   which is exactly what the partition-hardening machinery exercises.
   Deterministic: no randomness is consumed. *)
let lossy_partition_windows ~blocks ~windows =
  check_schedule ~name:"Net.lossy_partition_windows" windows;
  Fault_stateless
    (fun ~src ~dst ~now ~rng:_ ->
       match window_closing windows now with
       | Some _ when not (same_block_of blocks src dst) -> Drop
       | _ -> Deliver)

let lossy_partition spec =
  check_window ~name:"Net.lossy_partition" ~from_time:spec.from_time
    ~until_time:spec.until_time;
  lossy_partition_windows ~blocks:spec.blocks
    ~windows:[ (spec.from_time, spec.until_time) ]

(* A one-way (asymmetric) partition: during the window, sends from a
   member of [from_block] to a process outside it are dropped, while the
   reverse direction still flows.  This is the adversary against which
   timeout-based leader emulations misbehave: a process may keep hearing
   a leader it cannot answer. *)
let oneway_partition ~from_block ~from_time ~until_time =
  check_window ~name:"Net.oneway_partition" ~from_time ~until_time;
  Fault_stateless
    (fun ~src ~dst ~now ~rng:_ ->
       if in_window ~from_time ~until_time now
       && List.mem src from_block
       && not (List.mem dst from_block)
       then Drop
       else Deliver)

(* A flapping lossy partition: the cut is down for [period] ticks, up for
   [period] ticks, repeating over [from_time, until_time). *)
let flapping_partition ~blocks ~from_time ~until_time ~period =
  if period < 1 then invalid_arg "Net.flapping_partition: period must be >= 1";
  check_window ~name:"Net.flapping_partition" ~from_time ~until_time;
  lossy_partition_windows ~blocks
    ~windows:(repeating_windows ~from_time ~until_time ~down:period ~up:period)

let is_no_faults = function No_faults -> true | _ -> false

(* Combine fault models: any Drop wins, Duplicate extras add up.  Every
   component is evaluated on every send so randomness consumption does not
   depend on earlier components' answers. *)
let compose_faults models =
  match List.filter (fun m -> not (is_no_faults m)) models with
  | [] -> No_faults
  | [ m ] -> m
  | ms ->
    Fault_per_run
      (fun () ->
         let fs =
           List.map (fun m -> Option.get (instantiate_faults m)) ms
         in
         fun ~src ~dst ~now ~rng ->
           List.fold_left
             (fun acc f ->
                let v = f ~src ~dst ~now ~rng in
                match acc, v with
                | Drop, _ | _, Drop -> Drop
                | Duplicate a, Duplicate b -> Duplicate (a + b)
                | Duplicate a, Deliver | Deliver, Duplicate a -> Duplicate a
                | Deliver, Deliver -> Deliver)
             Deliver fs)

let fault_of (f : fault_fn) ~src ~dst ~now ~rng =
  (* detlint: allow A2 the fault model is the experiment's plug-in point; model cost is governed by the E23 bytes-per-event budget *)
  match f ~src ~dst ~now ~rng with
  | Duplicate k when k < 1 -> Deliver
  | v -> v
