(* Tests for the simulated stable storage: WAL append/sync semantics,
   checkpoints sealing the log into the durable image, checksum
   verification on replay, and the injected disk faults that damage the
   dirty tail (and nothing else). *)

open Persist

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)
(* ------------------------------------------------------------------ *)

let test_fresh_open_is_empty () =
  let s = Store.create () in
  let o = Store.open_ s in
  Alcotest.(check bool) "not restarted" false o.Store.restarted;
  Alcotest.(check (list string)) "empty image" [] o.Store.durable;
  Alcotest.(check (list string)) "no records" [] o.Store.records

let test_append_replays_in_order () =
  let s = Store.create () in
  ignore (Store.open_ s);
  List.iter (Store.append s) [ "a"; "b"; "c" ];
  Store.sync s;
  Alcotest.(check int) "log length" 3 (Store.log_length s);
  let o = Store.open_ s in
  Alcotest.(check bool) "restarted" true o.Store.restarted;
  Alcotest.(check (list string)) "oldest first" [ "a"; "b"; "c" ]
    o.Store.records

(* With no armed fault the dirty tail is intact: a clean crash loses
   nothing, sync only bounds what a *fault* can damage. *)
let test_unsynced_tail_survives_clean_crash () =
  let s = Store.create () in
  ignore (Store.open_ s);
  Store.append s "a";
  Store.sync s;
  Store.append s "b";
  let o = Store.open_ s in
  Alcotest.(check (list string)) "dirty record survives" [ "a"; "b" ]
    o.Store.records

(* A checkpoint seals the log, synced or not, into the image and starts
   an empty log: the next open returns the image, then the new records. *)
let test_snapshot_truncates_log () =
  let s = Store.create () in
  ignore (Store.open_ s);
  Store.append s "a";
  Store.sync s;
  Store.append s "b";
  Store.checkpoint s;
  Alcotest.(check int) "log emptied" 0 (Store.log_length s);
  Store.append s "c";
  Store.checkpoint s;
  Store.append s "d";
  let o = Store.open_ s in
  Alcotest.(check (list string)) "image, oldest first" [ "a"; "b"; "c" ]
    o.Store.durable;
  Alcotest.(check (list string)) "only post-checkpoint records" [ "d" ]
    o.Store.records

(* Faults bite only the dirty tail: a checkpoint leaves none, so the
   sealed records survive every fault, dirty when sealed or not. *)
let test_checkpoint_immune_to_faults () =
  List.iter
    (fun fault ->
       let s = Store.create () in
       ignore (Store.open_ s);
       List.iter (Store.append s) [ "a"; "b" ];
       Store.checkpoint s;
       Store.arm_fault s fault;
       let o = Store.open_ s in
       Alcotest.(check (list string)) "sealed records whole" [ "a"; "b" ]
         o.Store.durable;
       Alcotest.(check int) "nothing lost" 0 (Store.stats s).Store.records_lost;
       Store.append s "c";
       Store.arm_fault s fault;
       let o = Store.open_ s in
       Alcotest.(check (list string)) "image kept" [ "a"; "b" ] o.Store.durable;
       Alcotest.(check (list string)) "new dirty record damaged" []
         o.Store.records)
    [ Store.Torn_tail; Store.Lost_suffix 3; Store.Corrupt_record ]

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let with_dirty_tail () =
  let s = Store.create () in
  ignore (Store.open_ s);
  Store.append s "a";
  Store.sync s;
  List.iter (Store.append s) [ "b"; "c"; "d" ];
  s

let test_torn_tail_loses_newest () =
  let s = with_dirty_tail () in
  Store.arm_fault s Store.Torn_tail;
  let o = Store.open_ s in
  Alcotest.(check (list string)) "newest dirty record gone" [ "a"; "b"; "c" ]
    o.Store.records;
  let st = Store.stats s in
  Alcotest.(check int) "checksum caught it" 1 st.Store.corrupt_detected;
  Alcotest.(check int) "one record lost" 1 st.Store.records_lost

let test_lost_suffix_drops_k () =
  let s = with_dirty_tail () in
  Store.arm_fault s (Store.Lost_suffix 2);
  let o = Store.open_ s in
  Alcotest.(check (list string)) "newest two gone" [ "a"; "b" ] o.Store.records;
  Alcotest.(check int) "counted" 2 (Store.stats s).Store.records_lost

let test_lost_suffix_clamped_to_dirty () =
  let s = with_dirty_tail () in
  Store.arm_fault s (Store.Lost_suffix 99);
  let o = Store.open_ s in
  Alcotest.(check (list string)) "synced prefix untouched" [ "a" ]
    o.Store.records

(* The oldest dirty record is damaged: replay stops at the checksum
   failure, so the whole tail after it is lost too. *)
let test_corrupt_record_hides_tail () =
  let s = with_dirty_tail () in
  Store.arm_fault s Store.Corrupt_record;
  let o = Store.open_ s in
  Alcotest.(check (list string)) "replay stops at damage" [ "a" ]
    o.Store.records;
  let st = Store.stats s in
  Alcotest.(check int) "one checksum failure" 1 st.Store.corrupt_detected;
  Alcotest.(check int) "damaged + hidden" 3 st.Store.records_lost

let test_fault_with_clean_tail_is_noop () =
  let s = Store.create () in
  ignore (Store.open_ s);
  List.iter (Store.append s) [ "a"; "b" ];
  Store.sync s;
  Store.arm_fault s Store.Torn_tail;
  Store.arm_fault s Store.Corrupt_record;
  let o = Store.open_ s in
  Alcotest.(check (list string)) "synced data immune" [ "a"; "b" ]
    o.Store.records;
  ignore (Store.open_ s);
  Alcotest.(check int) "nothing lost" 0 (Store.stats s).Store.records_lost

(* One armed fault per crash, in arming order. *)
let test_faults_apply_fifo_one_per_crash () =
  let s = Store.create () in
  ignore (Store.open_ s);
  Store.append s "a";
  Store.arm_fault s (Store.Lost_suffix 1);
  Store.arm_fault s Store.Torn_tail;
  let o = Store.open_ s in
  Alcotest.(check (list string)) "first crash: suffix lost" [] o.Store.records;
  Store.append s "b";
  Store.append s "c";
  let o = Store.open_ s in
  Alcotest.(check (list string)) "second crash: torn newest" [ "b" ]
    o.Store.records;
  Store.append s "d";
  let o = Store.open_ s in
  Alcotest.(check (list string)) "faults exhausted" [ "b"; "d" ]
    o.Store.records

(* Damage is applied once: later incarnations see the truncated log, not
   a fresh replay of the corruption. *)
let test_damage_not_double_counted () =
  let s = with_dirty_tail () in
  Store.arm_fault s Store.Torn_tail;
  ignore (Store.open_ s);
  ignore (Store.open_ s);
  let st = Store.stats s in
  Alcotest.(check int) "lost once" 1 st.Store.records_lost;
  Alcotest.(check int) "detected once" 1 st.Store.corrupt_detected;
  Alcotest.(check int) "two restarts" 2 st.Store.restarts

(* Faults are armed per store; they never fire on a first open. *)
let test_no_fault_on_first_open () =
  let s = Store.create () in
  Store.arm_fault s (Store.Lost_suffix 5);
  let o = Store.open_ s in
  Alcotest.(check bool) "first open is not a restart" false o.Store.restarted;
  Alcotest.(check int) "nothing lost" 0 (Store.stats s).Store.records_lost

(* ------------------------------------------------------------------ *)
(* Text form, stats, pool                                              *)
(* ------------------------------------------------------------------ *)

let test_fault_text_roundtrip () =
  List.iter
    (fun f ->
       match Store.fault_of_string (Store.fault_to_string f) with
       | Some f' -> Alcotest.(check bool) "roundtrips" true (f = f')
       | None -> Alcotest.failf "unparsable: %s" (Store.fault_to_string f))
    [ Store.Torn_tail; Store.Lost_suffix 1; Store.Lost_suffix 7;
      Store.Corrupt_record ];
  List.iter
    (fun s ->
       match Store.fault_of_string s with
       | None -> ()
       | Some _ -> Alcotest.failf "garbage accepted: %s" s)
    [ ""; "lose"; "lose:"; "lose:0"; "lose:-2"; "lose:x"; "meteor" ]

let test_stats_count_operations () =
  let s = Store.create () in
  ignore (Store.open_ s);
  Store.append s "a";
  Store.append s "b";
  Store.sync s;
  Store.checkpoint s;
  let st = Store.stats s in
  Alcotest.(check int) "appends" 2 st.Store.appends;
  Alcotest.(check int) "syncs" 1 st.Store.syncs;
  Alcotest.(check int) "checkpoints" 1 st.Store.checkpoints;
  Alcotest.(check int) "restarts" 0 st.Store.restarts

let test_pool_is_independent () =
  let pool = Store.pool ~n:3 in
  Alcotest.(check int) "size" 3 (Array.length pool);
  ignore (Store.open_ pool.(0));
  Store.append pool.(0) "only in 0";
  Alcotest.(check int) "others untouched" 0 (Store.log_length pool.(1))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "persist"
    [ ("wal",
       [ Alcotest.test_case "fresh open empty" `Quick test_fresh_open_is_empty;
         Alcotest.test_case "replay in order" `Quick
           test_append_replays_in_order;
         Alcotest.test_case "clean crash loses nothing" `Quick
           test_unsynced_tail_survives_clean_crash;
         Alcotest.test_case "snapshot truncates" `Quick
           test_snapshot_truncates_log;
         Alcotest.test_case "checkpoint immune to faults" `Quick
           test_checkpoint_immune_to_faults ]);
      ("faults",
       [ Alcotest.test_case "torn tail" `Quick test_torn_tail_loses_newest;
         Alcotest.test_case "lost suffix" `Quick test_lost_suffix_drops_k;
         Alcotest.test_case "lost suffix clamped" `Quick
           test_lost_suffix_clamped_to_dirty;
         Alcotest.test_case "corrupt record hides tail" `Quick
           test_corrupt_record_hides_tail;
         Alcotest.test_case "clean tail immune" `Quick
           test_fault_with_clean_tail_is_noop;
         Alcotest.test_case "fifo, one per crash" `Quick
           test_faults_apply_fifo_one_per_crash;
         Alcotest.test_case "damage applied once" `Quick
           test_damage_not_double_counted;
         Alcotest.test_case "no fault on first open" `Quick
           test_no_fault_on_first_open ]);
      ("misc",
       [ Alcotest.test_case "fault text roundtrip" `Quick
           test_fault_text_roundtrip;
         Alcotest.test_case "stats" `Quick test_stats_count_operations;
         Alcotest.test_case "pool" `Quick test_pool_is_independent ]);
    ]
