(* Crash recovery and anti-entropy that cost what is new, tested against
   the whole-history versions they replaced and on the cases random plans
   rarely reach:

   - differential: [Recoverable], [Anti_entropy], [Retransmit] and
     [Persist.Store] against their oracles (Recoverable_oracle and the
     modules it drives, which log every revision whole, re-serialize the
     whole state at each checkpoint, summarize the whole graph and walk
     every pending frame), trace for trace;
   - wal records: crashes whose dirty tail holds several d deltas, a
     revision that truncates d_i, a restart replaying the image and then
     deltas;
   - anti-entropy: digests with gaps, and origins a peer has never seen;
   - retransmission: frames below the watermark and out of order above
     it;
   - wire: [App_msg.add_wire] against the Printf encoder it replaced. *)

open Simulator
open Ec_core
module Builder = Harness.Builder
module Adversity = Harness.Adversity
module Stacks = Harness.Stacks

(* ------------------------------------------------------------------ *)
(* Differential: the live layers against their oracles                 *)
(* ------------------------------------------------------------------ *)

(* Stacks' driver for the recoverable stack: [Post] only, since the
   wrapper's node takes Broadcast_etob itself. *)
let recoverable_post_driver (service : Etob_intf.service) =
  { Engine.on_message = (fun ~src:_ _ -> ());
    on_timer = (fun () -> ());
    on_input =
      (function
        | Stacks.Post tag ->
          service.Etob_intf.broadcast (service.Etob_intf.fresh_msg ~tag ())
        | _ -> ()) }

let oracle_ae_mutation =
  Option.map (function Anti_entropy.Skip_digest -> Anti_entropy_oracle.Skip_digest)

(* What [Builder.run] wires for [b], on the oracle modules. *)
let oracle_trace (b : Builder.t) =
  let setup = Builder.setup_of b in
  let omega_of = Stacks.omega_module setup in
  let ae_mutation = oracle_ae_mutation b.Builder.ae_mutation in
  let make_node =
    match b.Builder.stack with
    | Builder.Etob_ae ->
      fun ctx ->
        let omega, omega_node = omega_of ctx in
        let t, node = Etob_omega.create ?mutation:b.Builder.mutation ctx ~omega in
        let _, ae_node =
          Anti_entropy_oracle.create ?mutation:ae_mutation ctx
            ~graph:(fun () -> Etob_omega.graph t)
            ~learn:(Etob_omega.learn t)
        in
        Engine.stack
          [ omega_node; node; ae_node; Stacks.post_driver (Etob_omega.service t) ]
    | Builder.Recoverable { ae } ->
      let stores = Array.init setup.Stacks.n (fun _ -> Store_oracle.create ()) in
      List.iter
        (function
          | Adversity.Disk_fault { proc; kind } ->
            Option.iter (Store_oracle.arm_fault stores.(proc))
              (Store_oracle.fault_of_string (Persist.Store.fault_to_string kind))
          | _ -> ())
        b.Builder.plan;
      let mutation =
        Option.map
          (function Recoverable.Skip_log_replay -> Recoverable_oracle.Skip_log_replay)
          b.Builder.rmutation
      in
      let anti_entropy = if ae then Some Anti_entropy_oracle.default_config else None in
      fun ctx ->
        let omega, omega_node = omega_of ctx in
        let _, node, service =
          Recoverable_oracle.create ?mutation ?etob_mutation:b.Builder.mutation
            ?commits:b.Builder.commits ?anti_entropy ?ae_mutation
            ~store:stores.(ctx.Engine.self) ~omega ctx
        in
        Engine.stack [ omega_node; node; recoverable_post_driver service ]
    | Builder.Etob _ | Builder.Gossip -> invalid_arg "oracle_trace: no oracle wiring"
  in
  fst
    (Engine.run_with (Stacks.engine_config setup)
       ~make_node:(fun ctx -> (make_node ctx, ()))
       ~inputs:(Builder.inputs b))

let outcome run =
  match run () with
  | trace -> Ok (Trace.text trace, Trace.digest trace)
  | exception e -> Error (Printexc.to_string e)

(* Every stack these layers ride, faithful or under a seeded mutant of
   any of them, with and without commits, over plain plans, recovery
   plans (crashes, downtime windows, torn/lose/corrupt disk faults) and
   message-losing partitions composed with recovery. *)
let differential_gen =
  let open QCheck.Gen in
  let maybe all = oneofl (None :: List.map Option.some all) in
  let* stack =
    oneofl
      [ Builder.Etob_ae; Builder.Recoverable { ae = false };
        Builder.Recoverable { ae = true } ]
  in
  let recovery, ae =
    match stack with
    | Builder.Recoverable { ae } -> (true, ae)
    | _ -> (false, true)
  in
  let* n = int_range 3 5 and* seed = int_range 0 10_000 in
  let deadline = 240 in
  let* plan =
    oneof
      [ Builder.plan_gen ~n ~deadline; Builder.recovery_plan_gen ~n ~deadline;
        Builder.partition_recovery_plan_gen ~n ~deadline ]
  in
  let* mutation = maybe Etob_omega.all_mutations in
  let* ae_mutation = if ae then maybe Anti_entropy.all_mutations else return None in
  let* rmutation = if recovery then maybe Recoverable.all_mutations else return None in
  let* commits = if recovery then oneofl [ None; Some true ] else return None in
  return
    ( { (Builder.create ~seed ~n ~deadline
           ~delay:(Builder.Uniform { min_d = 1; max_d = 3 }) stack)
        with
        Builder.workload = Builder.Auto_posts { count = 12; stretch = recovery };
        plan; mutation; ae_mutation; rmutation },
      commits )

let print_case (b, commits) =
  Builder.to_string b ^ if commits = Some true then "commits\n" else ""

let prop_matches_oracle =
  QCheck.Test.make ~name:"recovery: traces equal the whole-history oracle's"
    ~count:400
    (QCheck.make ~print:print_case differential_gen)
    (fun (b, commits) ->
       let b = { b with Builder.commits } in
       let live () =
         match (Builder.run b).Builder.trace with
         | Some trace -> trace
         | None -> assert false
       in
       outcome live = outcome (fun () -> oracle_trace b))

(* ------------------------------------------------------------------ *)
(* WAL records end to end: crashes with several d deltas dirty         *)
(* ------------------------------------------------------------------ *)

(* E17's shape (n=4, p1 down from tick 40 to 80, uniform 1-3 tick
   links, 12 posts from tick 8) with the posts one tick apart, at seed
   4: p1's last sync comes before several adopted promotions, so its
   dirty tail at the crash holds several d records, all deltas. *)
let crash_run fault =
  let n = 4 and proc = 1 and at = 40 and recover_at = 80 in
  let setup =
    { (Stacks.default ~n ~deadline:300) with
      seed = 4;
      delay = Net.uniform ~min:1 ~max:3;
      pattern = Failures.crash_recover_at (Failures.none ~n) proc ~at ~recover_at }
  in
  let inputs = Stacks.spread_posts ~n ~count:12 ~from_time:8 ~every:1 in
  let stores = Persist.Store.pool ~n in
  Option.iter (Persist.Store.arm_fault stores.(proc)) fault;
  let trace, _, stores = Stacks.run_recoverable ~inputs ~stores setup in
  let revisions =
    List.filter_map
      (fun (t, p, o) ->
         match o with
         | Etob_intf.Etob_deliver seq when p = proc -> Some (t, seq)
         | _ -> None)
      (Trace.outputs trace)
  in
  let before = List.filter_map (fun (t, s) -> if t < at then Some s else None) revisions in
  let restored =
    match List.find_opt (fun (t, _) -> t >= recover_at) revisions with
    | Some (_, s) -> s
    | None -> Alcotest.fail "no revision after the restart"
  in
  (Array.of_list before, restored, (Persist.Store.stats stores.(proc)).Persist.Store.records_lost)

let dseq = Alcotest.testable (fun ppf s -> App_msg.pp_seq ppf (Dseq.to_list s)) Dseq.equal

(* The last [k] revisions before the crash each extend the one before
   them, so each was logged as a delta. *)
let check_deltas before k =
  let last = Array.length before - 1 in
  for i = last - k + 1 to last do
    Alcotest.(check bool)
      (Printf.sprintf "revision %d extends its predecessor" i)
      true
      (i > 0 && Dseq.is_wire_prefix before.(i - 1) before.(i)
       && Dseq.length before.(i - 1) > 0)
  done

let test_lose_three_deltas () =
  let before, restored, _ = crash_run None in
  let last = Array.length before - 1 in
  Alcotest.check dseq "a clean crash restores the last revision" before.(last) restored;
  let _, _, dirty = crash_run (Some (Persist.Store.Lost_suffix 99)) in
  Alcotest.(check bool) "at least 3 d records dirty" true (dirty >= 3);
  let before, restored, lost = crash_run (Some (Persist.Store.Lost_suffix 3)) in
  Alcotest.(check int) "three records lost" 3 lost;
  check_deltas before 3;
  Alcotest.check dseq "the revision three back" before.(last - 3) restored

let test_torn_delta () =
  let before, restored, lost = crash_run (Some Persist.Store.Torn_tail) in
  let last = Array.length before - 1 in
  Alcotest.(check int) "the torn record" 1 lost;
  check_deltas before 1;
  Alcotest.check dseq "the revision one back" before.(last - 1) restored

let test_corrupt_delta () =
  let _, _, dirty = crash_run (Some (Persist.Store.Lost_suffix 99)) in
  let before, restored, lost = crash_run (Some Persist.Store.Corrupt_record) in
  let last = Array.length before - 1 in
  Alcotest.(check int) "the whole dirty tail" dirty lost;
  check_deltas before dirty;
  Alcotest.check dseq "the revision before the tail" before.(last - dirty) restored

(* ------------------------------------------------------------------ *)
(* WAL records by hand: one process looped back to itself              *)
(* ------------------------------------------------------------------ *)

(* One incarnation of a one-process recoverable stack whose sends come
   back to it when [drain]ed.  It trusts itself, so its own promotions
   and any injected [Promote_seq] are adopted. *)
type incarnation = {
  handle : Recoverable.t;
  node : Engine.node;
  service : Etob_intf.service;
  queue : Msg.payload Queue.t;
  outputs : Io.output list ref;  (* newest first *)
}

let start ?etob_mutation store =
  let queue = Queue.create () and outputs = ref [] in
  let ctx =
    { Engine.self = 0; n = 1; now = (fun () -> 0);
      send = (fun _ p -> Queue.add p queue);
      broadcast = (fun p -> Queue.add p queue);
      output = (fun o -> outputs := o :: !outputs);
      rng = Rng.create 1 }
  in
  let handle, node, service =
    Recoverable.create ?etob_mutation ~store ~omega:(fun () -> 0) ctx
  in
  { handle; node; service; queue; outputs }

let drain i =
  while not (Queue.is_empty i.queue) do
    i.node.Engine.on_message ~src:0 (Queue.pop i.queue)
  done

(* Broadcast a fresh message, then promote: one "m" and one "d" record. *)
let post i =
  i.service.Etob_intf.broadcast (i.service.Etob_intf.fresh_msg ());
  drain i;
  i.node.Engine.on_timer ();
  drain i

let adopt i msgs =
  i.node.Engine.on_message ~src:0 (Etob_omega.Promote_seq (Dseq.of_list msgs));
  drain i

let last_revision i =
  match
    List.find_map
      (function Etob_intf.Etob_deliver s -> Some s | _ -> None)
      !(i.outputs)
  with
  | Some s -> s
  | None -> Alcotest.fail "no revision"

let wire_seq ms = App_msg.seq_to_wire ms

(* The store's records as the next incarnation will read them. *)
let records store =
  let o = Persist.Store.open_ store in
  (o.Persist.Store.durable, o.Persist.Store.records)

let d_records rs =
  List.filter (fun r -> String.length r > 1 && r.[0] = 'd') rs

(* A leader change that truncates d_i: the reordered revision is logged
   whole, its extension as a delta over it, and a restart restores the
   extension. *)
let test_truncation_whole_then_delta () =
  let store = Persist.Store.create () in
  let i = start store in
  List.iter (fun _ -> post i) [ 1; 2; 3 ];
  let d = Dseq.to_list (last_revision i) in
  let a, b, c =
    match d with [ a; b; c ] -> (a, b, c) | _ -> Alcotest.fail "three messages"
  in
  adopt i [ b; a ];
  adopt i [ b; a; c ];
  let durable, log = records store in
  let ds = d_records (durable @ log) in
  Alcotest.(check (list string)) "first whole, then deltas, reorder whole, extension"
    [ "d " ^ wire_seq [ a ]; "d+ 1 " ^ wire_seq [ b ]; "d+ 2 " ^ wire_seq [ c ];
      "d " ^ wire_seq [ b; a ]; "d+ 2 " ^ wire_seq [ c ] ]
    ds;
  let j = start store in
  Alcotest.check dseq "restored" (Dseq.of_list [ b; a; c ]) (last_revision j)

(* Enough posts for a checkpoint: the image holds the first records, the
   log the deltas after it, and a restart reads both (twice over, the
   second incarnation's deltas extending the first's). *)
let test_restart_replays_image_then_deltas () =
  let store = Persist.Store.create () in
  let i = start store in
  List.iter (fun _ -> post i) [ 1; 2; 3; 4; 5; 6 ];
  let expected = last_revision i in
  let durable, log = records store in
  Alcotest.(check bool) "a checkpoint sealed records" true (durable <> []);
  Alcotest.(check bool) "deltas in the log" true
    (List.exists (fun r -> String.length r > 2 && String.sub r 0 2 = "d+") log);
  let j = start store in
  Alcotest.check dseq "first restart" expected (last_revision j);
  post j;
  post j;
  let expected = last_revision j in
  Alcotest.(check int) "eight messages" 8 (Dseq.length expected);
  let k = start store in
  Alcotest.check dseq "second restart" expected (last_revision k)

(* A revision whose first messages have the kept ids but other content
   (a replica restarted without its log reuses ids) is not an extension:
   it is written whole, and the restart restores its own messages. *)
let test_reused_ids_written_whole () =
  let store = Persist.Store.create () in
  let i = start store in
  post i;
  post i;
  let a, b =
    match Dseq.to_list (last_revision i) with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "two messages"
  in
  let a' = { a with App_msg.tag = "other" } and c = App_msg.make ~origin:1 ~sn:0 () in
  adopt i [ a'; b; c ];
  let durable, log = records store in
  let last = List.nth (d_records (durable @ log)) (List.length (d_records (durable @ log)) - 1) in
  Alcotest.(check string) "whole" ("d " ^ wire_seq [ a'; b; c ]) last;
  let j = start store in
  Alcotest.(check string) "restored with its own tag" (wire_seq [ a'; b; c ])
    (wire_seq (Dseq.to_list (last_revision j)))

(* A checkpoint taken while d_i is empty (only a protocol without the
   stale guard adopts an empty promotion) leaves an image that restores
   the empty d_i, not the revision before it. *)
let test_checkpoint_at_empty_d () =
  let store = Persist.Store.create () in
  let etob_mutation = Etob_omega.Disable_stale_guard in
  let i = start ~etob_mutation store in
  post i;
  adopt i [];
  Alcotest.(check int) "d_i emptied" 0 (Dseq.length (last_revision i));
  let fresh = List.init 5 (fun sn -> App_msg.make ~origin:1 ~sn ()) in
  i.node.Engine.on_message ~src:0
    (Etob_omega.Update (List.fold_left Causal_graph.add Causal_graph.empty fresh));
  drain i;
  Alcotest.(check int) "checkpointed" 1
    (Persist.Store.stats store).Persist.Store.checkpoints;
  let j = start ~etob_mutation store in
  Alcotest.(check int) "restored empty" 0 (Dseq.length (last_revision j))

(* A node whose dependency has not arrived is blocked, outside the ready
   log, and is logged all the same: a restart replays it. *)
let test_blocked_node_logged () =
  let store = Persist.Store.create () in
  let i = start store in
  let blocked = App_msg.make ~origin:0 ~sn:1 ~deps:[ (0, 0) ] () in
  let g = Causal_graph.add Causal_graph.empty blocked in
  Alcotest.(check int) "not ready" 0 (Causal_graph.ready_count g);
  i.node.Engine.on_message ~src:0 (Etob_omega.Update g);
  let durable, log = records store in
  Alcotest.(check (list string)) "logged" [ "m " ^ App_msg.to_wire blocked ]
    (durable @ log);
  let j = start store in
  Alcotest.(check int) "replayed" 1 (Recoverable.replayed_msgs j.handle)

(* ------------------------------------------------------------------ *)
(* Anti-entropy digests from spans                                     *)
(* ------------------------------------------------------------------ *)

let msg origin sn = App_msg.make ~origin ~sn ()

let fake_ctx ?(now = fun () -> 0) ~self ~n sent =
  { Engine.self; n; now;
    send = (fun dst p -> sent := (dst, p) :: !sent);
    broadcast = (fun p -> sent := (-1, p) :: !sent);
    output = (fun _ -> ());
    rng = Rng.create 1 }

(* p0 holds origin 0's messages 0, 1, 3 and 5 (gaps), origin 1's 0..2
   and origin 2's 0. *)
let ae_graph =
  List.fold_left Causal_graph.add Causal_graph.empty
    [ msg 0 0; msg 0 1; msg 0 3; msg 0 5; msg 1 0; msg 1 1; msg 1 2; msg 2 0 ]

let ae_component sent =
  Anti_entropy.create (fake_ctx ~self:0 ~n:3 sent)
    ~graph:(fun () -> ae_graph) ~learn:(fun _ -> ())

let test_digest_with_gaps () =
  let sent = ref [] in
  let _, node = ae_component sent in
  for _ = 1 to Anti_entropy.default_config.Anti_entropy.every do
    node.Engine.on_timer ()
  done;
  match !sent with
  | [ (-1, Anti_entropy.Ae_digest summary) ] ->
    Alcotest.(check (list (triple int int (list int))))
      "prefix and extras per origin"
      [ (0, 2, [ 3; 5 ]); (1, 3, []); (2, 1, []) ]
      summary
  | _ -> Alcotest.fail "expected one digest broadcast"

(* A peer that holds origin 0's prefix 0..0 and its message 3, all of
   origin 1, and has never seen origin 2: the delta is exactly what it
   lacks, in id order. *)
let test_delta_for_unseen_origin () =
  let sent = ref [] in
  let _, node = ae_component sent in
  node.Engine.on_message ~src:1 (Anti_entropy.Ae_digest [ (0, 1, [ 3 ]); (1, 3, []) ]);
  match !sent with
  | [ (1, Anti_entropy.Ae_delta msgs) ] ->
    Alcotest.(check (list (pair int int)))
      "missing ids" [ (0, 1); (0, 5); (2, 0) ] (List.map App_msg.id msgs)
  | _ -> Alcotest.fail "expected one delta to p1"

(* A peer whose digest names origins this process lacks, and extras
   beyond everything it holds: nothing to send. *)
let test_caught_up_peer () =
  let sent = ref [] in
  let _, node = ae_component sent in
  node.Engine.on_message ~src:2
    (Anti_entropy.Ae_digest [ (0, 2, [ 3; 5; 9 ]); (1, 7, []); (2, 1, []); (3, 4, []) ]);
  Alcotest.(check int) "no delta" 0 (List.length !sent)

(* ------------------------------------------------------------------ *)
(* Retransmission: due-time retries and watermark dedup                *)
(* ------------------------------------------------------------------ *)

let link_config = { Retransmit.ack_timeout = 4; max_backoff = 32 }

let verdict = function `Stale -> "stale" | `Duplicate -> "duplicate" | `Deliver -> "deliver"

let admits link ~src ~epoch seqs =
  List.map (fun seq -> verdict (Retransmit.admit link ~src ~epoch ~seq)) seqs

let test_below_watermark () =
  let link = Retransmit.create ~config:link_config ~epoch:0 (fake_ctx ~self:0 ~n:2 (ref [])) in
  Alcotest.(check (list string)) "in order, then repeats below the watermark"
    [ "deliver"; "deliver"; "deliver"; "duplicate"; "duplicate"; "duplicate" ]
    (admits link ~src:1 ~epoch:0 [ 0; 1; 2; 1; 0; 2 ])

let test_out_of_order_above () =
  let link = Retransmit.create ~config:link_config ~epoch:0 (fake_ctx ~self:0 ~n:2 (ref [])) in
  Alcotest.(check (list string)) "gaps filled, repeats caught on both sides"
    [ "deliver"; "deliver"; "duplicate"; "deliver"; "duplicate"; "deliver";
      "duplicate"; "duplicate"; "deliver" ]
    (admits link ~src:1 ~epoch:0 [ 3; 1; 3; 0; 1; 2; 3; 2; 4 ]);
  let restarted = admits link ~src:1 ~epoch:1 [ 0; 0 ] in
  let old = admits link ~src:1 ~epoch:0 [ 5 ] in
  Alcotest.(check (list string)) "a new incarnation starts over"
    [ "deliver"; "duplicate"; "stale" ] (restarted @ old)

(* [retry] re-sends nothing before the earliest frame is due, then every
   due frame, with its backoff doubled. *)
let test_retry_when_due () =
  let now = ref 0 and sent = ref [] in
  let link =
    Retransmit.create ~config:link_config ~epoch:0
      (fake_ctx ~now:(fun () -> !now) ~self:0 ~n:2 sent)
  in
  Retransmit.send link 1 (Etob_omega.Promote_seq Dseq.empty);
  now := 2;
  Retransmit.send link 1 (Etob_omega.Promote_seq Dseq.empty);
  let resent () =
    let k = Retransmit.retransmitted link in
    Retransmit.retry link;
    Retransmit.retransmitted link - k
  in
  now := 3;
  Alcotest.(check int) "nothing due at 3" 0 (resent ());
  now := 4;
  Alcotest.(check int) "first due at 4" 1 (resent ());
  now := 6;
  Alcotest.(check int) "second due at 6" 1 (resent ());
  Retransmit.ack link ~src:1 ~epoch:0 ~seq:0;
  now := 12;
  Alcotest.(check int) "acked frame gone; second not due before 14" 0 (resent ());
  now := 14;
  Alcotest.(check int) "second again at 14" 1 (resent ())

(* ------------------------------------------------------------------ *)
(* Wire form against the Printf encoder                                *)
(* ------------------------------------------------------------------ *)

(* The encoder [App_msg.to_wire] had before its Buffer writer. *)
let printf_wire m =
  let hex s =
    String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                        (List.of_seq (String.to_seq s)))
  in
  let deps =
    match m.App_msg.deps with
    | [] -> "-"
    | deps -> String.concat "," (List.map (fun (p, sn) -> Printf.sprintf "%d.%d" p sn) deps)
  in
  Printf.sprintf "%d %d %s %s" m.App_msg.origin m.App_msg.sn (hex m.App_msg.tag) deps

let msg_gen =
  let open QCheck.Gen in
  let* origin = int_range 0 12 and* sn = int_range 0 100_000 in
  let* tag = string_size ~gen:char (int_range 0 6) in
  let* deps = list_size (int_range 0 3) (pair (int_range 0 12) (int_range 0 100_000)) in
  return (App_msg.make ~origin ~sn ~tag ~deps ())

let prop_wire_matches_printf =
  QCheck.Test.make ~name:"wire: Buffer writer equals the Printf encoder" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 4) msg_gen))
    (fun ms ->
       List.for_all (fun m -> App_msg.to_wire m = printf_wire m) ms
       && App_msg.seq_to_wire ms = String.concat "|" (List.map printf_wire ms)
       && App_msg.seq_of_wire (App_msg.seq_to_wire ms)
          |> Option.fold ~none:false ~some:(List.equal App_msg.same_wire ms))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "recovery"
    [ ("differential", qc [ prop_matches_oracle ]);
      ("wal records",
       [ Alcotest.test_case "lose:3 restores the revision three back" `Quick
           test_lose_three_deltas;
         Alcotest.test_case "torn delta" `Quick test_torn_delta;
         Alcotest.test_case "corrupt delta" `Quick test_corrupt_delta;
         Alcotest.test_case "truncation written whole, then extended" `Quick
           test_truncation_whole_then_delta;
         Alcotest.test_case "restart replays image, then deltas" `Quick
           test_restart_replays_image_then_deltas;
         Alcotest.test_case "blocked node logged" `Quick test_blocked_node_logged;
         Alcotest.test_case "reused ids written whole" `Quick
           test_reused_ids_written_whole;
         Alcotest.test_case "checkpoint at an empty d_i" `Quick
           test_checkpoint_at_empty_d ]);
      ("anti-entropy",
       [ Alcotest.test_case "digest with gaps" `Quick test_digest_with_gaps;
         Alcotest.test_case "delta for an unseen origin" `Quick
           test_delta_for_unseen_origin;
         Alcotest.test_case "caught-up peer" `Quick test_caught_up_peer ]);
      ("retransmit",
       [ Alcotest.test_case "below the watermark" `Quick test_below_watermark;
         Alcotest.test_case "out of order above it" `Quick test_out_of_order_above;
         Alcotest.test_case "retry when due" `Quick test_retry_when_due ]);
      ("wire", qc [ prop_wire_matches_printf ]) ]
