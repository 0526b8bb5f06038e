(* Tests for the replication layer: commands, deterministic machines, and
   replicas over both ETOB (eventually consistent service) and the Paxos
   baseline (strongly consistent service). *)

open Simulator
open Replication

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let all_commands =
  [ Command.incr 5; Command.incr (-2); Command.put "k" "v"; Command.del "k";
    Command.enqueue "x"; Command.dequeue; Command.set_reg "r";
    Command.wput ~client:4 ~rid:17 "k" "v" ]

let test_command_roundtrip () =
  List.iter
    (fun c ->
       match Command.of_tag (Command.to_tag c) with
       | Some c' -> Alcotest.(check bool) "roundtrip" true (Command.equal c c')
       | None -> Alcotest.failf "roundtrip failed for %s" (Command.to_tag c))
    all_commands

let test_command_rejects_colon () =
  Alcotest.check_raises "colon key"
    (Invalid_argument "Command: key must not contain ':' (\"a:b\")")
    (fun () -> ignore (Command.put "a:b" "v"))

let test_command_of_tag_garbage () =
  Alcotest.(check (option (Alcotest.testable Command.pp Command.equal)))
    "garbage" None (Command.of_tag "nonsense");
  Alcotest.(check (option (Alcotest.testable Command.pp Command.equal)))
    "bad int" None (Command.of_tag "incr:zzz")

(* ------------------------------------------------------------------ *)
(* Machines                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let s = Machines.replay (module Machines.Counter)
      [ Command.incr 3; Command.incr (-1); Command.put "a" "b" ] in
  Alcotest.(check int) "counter" 2 s

let test_kv () =
  let s = Machines.replay (module Machines.Kv)
      [ Command.put "a" "1"; Command.put "b" "2"; Command.del "a";
        Command.put "b" "3" ] in
  Alcotest.(check string) "kv digest" "b=3" (Machines.Kv.digest s)

let test_register () =
  let s = Machines.replay (module Machines.Register)
      [ Command.set_reg "x"; Command.set_reg "y" ] in
  Alcotest.(check string) "register" "y" (Machines.Register.digest s)

let test_fifo () =
  let s = Machines.replay (module Machines.Fifo)
      [ Command.enqueue "a"; Command.enqueue "b"; Command.dequeue;
        Command.enqueue "c" ] in
  Alcotest.(check string) "fifo" "b|c" (Machines.Fifo.digest s);
  let empty_deq = Machines.replay (module Machines.Fifo) [ Command.dequeue ] in
  Alcotest.(check string) "dequeue on empty is a no-op" ""
    (Machines.Fifo.digest empty_deq)

let command_gen =
  QCheck.Gen.(
    oneof
      [ map (fun n -> Command.Incr n) (int_range (-5) 5);
        map2 (fun k v -> Command.Put (string_of_int k, string_of_int v))
          (int_range 0 4) (int_range 0 9);
        map (fun k -> Command.Del (string_of_int k)) (int_range 0 4);
        map (fun x -> Command.Enqueue (string_of_int x)) (int_range 0 9);
        return Command.Dequeue;
        map (fun v -> Command.Set_reg (string_of_int v)) (int_range 0 9) ])

let commands_arb =
  QCheck.make
    ~print:(fun cs -> String.concat ";" (List.map Command.to_tag cs))
    QCheck.Gen.(list_size (int_range 0 30) command_gen)

(* Determinism: same command sequence, same digest — the property state
   machine replication rests on. *)
let prop_machines_deterministic =
  QCheck.Test.make ~name:"machines: replay is deterministic" ~count:200
    commands_arb
    (fun cs ->
       Machines.Kv.digest (Machines.replay (module Machines.Kv) cs)
       = Machines.Kv.digest (Machines.replay (module Machines.Kv) cs)
       && Machines.Fifo.digest (Machines.replay (module Machines.Fifo) cs)
          = Machines.Fifo.digest (Machines.replay (module Machines.Fifo) cs))

let prop_command_roundtrip =
  QCheck.Test.make ~name:"commands: tag roundtrip" ~count:200 commands_arb
    (fun cs ->
       List.for_all
         (fun c ->
            match Command.of_tag (Command.to_tag c) with
            | Some c' -> Command.equal c c'
            | None -> false)
         cs)

(* ------------------------------------------------------------------ *)
(* Replicated services                                                 *)
(* ------------------------------------------------------------------ *)

module Counter_replica = Replica.Make (Machines.Counter)
module Kv_replica = Replica.Make (Machines.Kv)

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

(* Build replica nodes over the chosen broadcast implementation. *)
let run_replicas (type s) (module M : Machines.MACHINE with type state = s)
    ?(inputs = []) setup impl =
  let module R = Replica.Make (M) in
  let make_node ctx =
    let proto_node, service = Harness.Stacks.etob_node setup impl ctx in
    let replica, replica_node = R.create ctx ~etob:service in
    (Engine.stack [ proto_node; replica_node ], replica)
  in
  let trace, replicas =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  (trace, Array.map R.digest replicas)

let submit t p c = (t, p, Replica.Submit c)

let test_counter_replicas_converge () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with omega = oracle 0 } in
  let inputs =
    [ submit 5 0 (Command.incr 3); submit 8 1 (Command.incr 4);
      submit 12 2 (Command.incr (-1)) ]
  in
  let trace, digests = run_replicas (module Machines.Counter) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  Array.iter (fun d -> Alcotest.(check string) "sum is 6" "6" d) digests;
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "converged" true (Convergence.converged run)

let partition_setup ~n ~heal =
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n ~deadline:(heal * 3)) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = oracle ~pre:(Detectors.Omega.Blockwise blocks) heal }

let test_kv_replicas_eventually_consistent_across_partition () =
  (* Writes land on both sides of a partition; replicas diverge during the
     partition and converge after healing.  This is the title's eventually
     consistent replicated service, end to end. *)
  let heal = 50 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ submit 10 0 (Command.put "x" "left");
      submit 12 3 (Command.put "y" "right");
      submit 20 1 (Command.put "z" "1");
      submit 22 4 (Command.put "w" "2") ]
  in
  let trace, digests = run_replicas (module Machines.Kv) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  let expected = "w=2,x=left,y=right,z=1" in
  Array.iter (fun d -> Alcotest.(check string) "final state" expected d) digests;
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "diverged during partition" true
    (Convergence.divergence_ticks ~from_time:10 run > 0);
  Alcotest.(check bool) "converged after heal" true
    (Convergence.convergence_time run <= heal + 10)

let test_replica_over_paxos_never_rolls_back () =
  (* The same replica code over the strong baseline: zero rollbacks. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.put "a" "1"); submit 20 1 (Command.put "b" "2");
      submit 30 2 (Command.del "a") ]
  in
  let trace, digests = run_replicas (module Machines.Kv) ~inputs setup
      Harness.Stacks.Paxos_baseline in
  Array.iter (fun d -> Alcotest.(check string) "final" "b=2" d) digests;
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check int) "no rollbacks" 0 (Convergence.total_rollbacks run)

let test_replica_over_etob_rolls_back_during_disagreement () =
  (* Divergent leaders make the applied log revisable before stabilization:
     the rollbacks the replica checker counts are the visible price of
     eventual consistency. *)
  let heal = 50 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ submit 10 0 (Command.put "x" "left");
      submit 12 3 (Command.put "x" "right") ]
  in
  let trace, _ = run_replicas (module Machines.Kv) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  let run = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "converged" true (Convergence.converged run);
  (* Both writes hit the same key from the two sides: once sides merge, the
     side whose order loses must revise. *)
  Alcotest.(check bool) "some replica revised its log" true
    (Convergence.total_rollbacks run > 0)

let test_replicas_survive_minority () =
  (* 3 of 5 crash; the ETOB-backed service keeps accepting and applying
     writes on the surviving minority. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 25); (3, 25); (4, 25) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.incr 1); submit 40 1 (Command.incr 10);
      submit 60 0 (Command.incr 100) ]
  in
  let trace, digests = run_replicas (module Machines.Counter) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  List.iter
    (fun p -> Alcotest.(check string) "survivor state" "111" digests.(p))
    (Failures.correct pattern);
  let run = Convergence.run_of_trace pattern trace in
  Alcotest.(check bool) "converged" true (Convergence.converged run)

(* ------------------------------------------------------------------ *)
(* Committed vs speculative views                                      *)
(* ------------------------------------------------------------------ *)

module Dual_kv = Committed_replica.Make (Machines.Kv)

let run_dual_kv ?(inputs = []) setup =
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual_kv.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    (Engine.stack [ omega_node; etob_node; replica_node ], replica)
  in
  Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs

let test_dual_views_agree_in_stable_period () =
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.put "a" "1"); submit 20 1 (Command.put "b" "2") ]
  in
  let trace, replicas = run_dual_kv ~inputs setup in
  Array.iter
    (fun r ->
       Alcotest.(check string) "speculative" "a=1,b=2" (Dual_kv.speculative_digest r);
       Alcotest.(check string) "committed catches up" "a=1,b=2"
         (Dual_kv.committed_digest r))
    replicas;
  Alcotest.(check bool) "committed monotone" true
    (Committed_replica.committed_monotone trace)

let test_dual_views_split_during_partition () =
  (* During the partition the minority side speculates on its own writes
     while committing nothing new; committed reads never roll back even
     though speculative ones do. *)
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ submit 10 0 (Command.put "x" "left"); submit 12 3 (Command.put "x" "right") ]
  in
  let trace, replicas = run_dual_kv ~inputs setup in
  Array.iter
    (fun r ->
       Alcotest.(check string) "all converge speculatively" "x=right"
         (Dual_kv.speculative_digest r))
    replicas;
  Alcotest.(check bool) "committed never rolled back" true
    (Committed_replica.committed_monotone trace);
  (* Speculative rollbacks did happen (the losing side revised). *)
  let conv = Convergence.run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "speculative rollbacks occurred" true
    (Convergence.total_rollbacks conv > 0)

let test_dual_views_committed_stalls_without_majority () =
  let pattern = Failures.of_crashes ~n:5 [ (2, 30); (3, 30); (4, 30) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ submit 10 0 (Command.put "a" "1"); submit 80 1 (Command.put "b" "2") ]
  in
  let _, replicas = run_dual_kv ~inputs setup in
  List.iter
    (fun p ->
       let r = replicas.(p) in
       Alcotest.(check string) "speculative view has both" "a=1,b=2"
         (Dual_kv.speculative_digest r);
       Alcotest.(check bool) "committed view misses the post-crash write" true
         (not (String.length (Dual_kv.committed_digest r) >= 7
               && String.sub (Dual_kv.committed_digest r) 4 3 = "b=2")))
    (Failures.correct pattern)

let test_replica_ignores_foreign_traffic () =
  (* Non-command messages share the broadcast layer (e.g. Algorithm 2's
     consensus tags); replicas must skip them without desynchronizing. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with omega = oracle 0 } in
  let inputs =
    [ submit 5 0 (Command.incr 2);
      (8, 1, Harness.Stacks.Post "not-a-command");
      submit 12 2 (Command.incr 5) ]
  in
  let _, digests = run_replicas (module Machines.Counter) ~inputs setup
      Harness.Stacks.Algorithm_5 in
  Array.iter (fun d -> Alcotest.(check string) "foreign tags skipped" "7" d) digests

(* ------------------------------------------------------------------ *)
(* Incremental fold vs the whole refold                                *)
(* ------------------------------------------------------------------ *)

(* [Replica] and [Committed_replica] re-apply only what a revision
   changed; the oracle (Replica_fold_oracle) re-decodes and re-folds the
   whole sequence.  Random revision scripts drive both views of a
   committed replica and a plain replica through a fake ETOB backend:
   delivered sequences go to the speculative views, and the same
   sequence goes out as the leader's commit mark, which the committed
   view takes whenever it is longer than the last one. *)
module Fold_oracle = Replica_fold_oracle
module Dkv = Dedup.Make (Machines.Kv)

(* A pool of messages: every command kind, writes whose (client, rid)
   repeat, and tags that do not decode.  Each has a twin with the same
   id and another tag, as a replica restarted without durable state
   reuses its ids. *)
let fold_tag_gen =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%d") (int_range 0 3) in
    let value = map (Printf.sprintf "v%d") (int_range 0 9) in
    frequency
      [ ( 4,
          map3
            (fun client rid (k, v) -> Command.to_tag (Command.wput ~client ~rid k v))
            (int_range 0 2) (int_range 0 3) (pair key value) );
        (2, map2 (fun k v -> Command.to_tag (Command.put k v)) key value);
        (1, map (fun k -> Command.to_tag (Command.del k)) key);
        (1, map (fun x -> Command.to_tag (Command.enqueue x)) value);
        (1, return (Command.to_tag Command.dequeue));
        (1, map (fun n -> Command.to_tag (Command.incr n)) (int_range (-3) 3));
        (2, oneofl [ ""; "bogus"; "incr:x"; "wput:1:2:k"; "put:a"; "wput:-1:0:k:v" ])
      ])

let pool_size = 16

type revision =
  | Extend of int list  (** append pool messages *)
  | Truncate of int  (** keep a prefix *)
  | Replace of int * int list  (** keep a prefix, append pool messages *)
  | Reorder of int  (** reverse the suffix from a position *)
  | Reuse_id of int  (** swap a position for its twin *)
  | Redeliver  (** the same list again *)

let revision_gen =
  QCheck.Gen.(
    let picks = list_size (int_range 0 4) (int_range 0 (pool_size - 1)) in
    frequency
      [ (3, map (fun is -> Extend is) picks);
        (1, map (fun k -> Truncate k) (int_range 0 12));
        (2, map2 (fun k is -> Replace (k, is)) (int_range 0 12) picks);
        (1, map (fun k -> Reorder k) (int_range 0 12));
        (1, map (fun k -> Reuse_id k) (int_range 0 12));
        (1, return Redeliver) ])

let pp_revision ppf = function
  | Extend is -> Fmt.pf ppf "extend %a" Fmt.(Dump.list int) is
  | Truncate k -> Fmt.pf ppf "truncate %d" k
  | Replace (k, is) -> Fmt.pf ppf "replace %d %a" k Fmt.(Dump.list int) is
  | Reorder k -> Fmt.pf ppf "reorder %d" k
  | Reuse_id k -> Fmt.pf ppf "reuse-id %d" k
  | Redeliver -> Fmt.string ppf "redeliver"

let script_arb =
  let tags pool = Array.map (fun m -> m.Ec_core.App_msg.tag) pool in
  QCheck.make
    ~print:(fun ((pool, twins), script) ->
        Format.asprintf "pool %a@.twins %a@.script %a"
          Fmt.(Dump.array Dump.string) (tags pool)
          Fmt.(Dump.array Dump.string) (tags twins)
          Fmt.(Dump.list pp_revision) script)
    QCheck.Gen.(
      let messages =
        map
          (fun tags ->
             Array.of_list
               (List.mapi
                  (fun i tag ->
                     Ec_core.App_msg.make ~origin:(i mod 3) ~sn:(i / 3) ~tag ())
                  tags))
          (list_repeat pool_size fold_tag_gen)
      in
      let* pools = pair messages messages in
      let* script = list_size (int_range 1 20) revision_gen in
      return (pools, script))

let revise (pool, twins) seq revision =
  let prefix k = List.filteri (fun i _ -> i < k) seq in
  let picked = List.map (fun i -> pool.(i)) in
  let twin (m : Ec_core.App_msg.t) =
    let i = (3 * m.sn) + m.origin in
    if String.equal m.tag pool.(i).Ec_core.App_msg.tag then twins.(i) else pool.(i)
  in
  match revision with
  | Extend is -> seq @ picked is
  | Truncate k -> prefix k
  | Replace (k, is) -> prefix k @ picked is
  | Reorder k -> prefix k @ List.rev (List.filteri (fun i _ -> i >= k) seq)
  | Reuse_id k -> List.mapi (fun i m -> if i = k then twin m else m) seq
  | Redeliver -> seq

(* A process context that only records the outputs it is given. *)
let recording_ctx () =
  let outputs = ref [] in
  let ctx =
    { Engine.self = 0; n = 3; now = (fun () -> 0);
      send = (fun _ _ -> ()); broadcast = (fun _ -> ());
      output = (fun o -> outputs := o :: !outputs);
      rng = Rng.create 1 }
  in
  (ctx, outputs)

let latest f outputs = List.find_map f !outputs

let fold_matches_refold (type s) (module M : Machines.MACHINE with type state = s)
    ~(has : (s -> client:int -> rid:int -> bool) option) (pools, script) =
  let module Plain = Replica.Make (M) in
  let module Dual = Committed_replica.Make (M) in
  let leader = 1 in
  let plain_ctx, plain_out = recording_ctx () in
  let plain_backend = Ec_core.Etob_intf.backend plain_ctx in
  let plain, _ =
    Plain.create plain_ctx
      ~etob:(Ec_core.Etob_intf.service_of plain_backend ~broadcast:ignore)
  in
  let dual_ctx, dual_out = recording_ctx () in
  let dual_backend = Ec_core.Etob_intf.backend dual_ctx in
  let dual, dual_node =
    Dual.create dual_ctx
      ~etob:(Ec_core.Etob_intf.service_of dual_backend ~broadcast:ignore)
      ~omega:(fun () -> leader) ~promotion:(fun () -> Ec_core.Dseq.empty)
  in
  (* One view against the refold of [seq]: its log and digest, the count
     and digest of the last output it recorded, and the seen-set. *)
  let view_ok seq ~log ~state ~last_output =
    let state', log' = Fold_oracle.refold (module M) seq in
    let digest' = M.digest state' in
    List.equal Command.equal log log'
    && String.equal (M.digest state) digest'
    && (match last_output with
        | Some (count, digest) ->
          count = List.length log' && String.equal digest digest'
        | None -> seq = [])
    && (match has with
        | None -> true
        | Some has ->
          List.for_all
            (fun (client, rid) ->
               Bool.equal (has state ~client ~rid)
                 (List.exists (fun c -> Command.rid_of c = Some (client, rid)) log'))
            (List.concat_map (fun c -> List.init 5 (fun r -> (c, r))) [ 0; 1; 2; 3 ]))
  in
  let applied = function
    | Replica.Applied { count; digest; _ } -> Some (count, digest)
    | _ -> None
  in
  let step seq revision =
    let seq = revise pools seq revision in
    let d = Ec_core.Dseq.of_list seq in
    Ec_core.Etob_intf.set_delivered plain_backend d;
    Ec_core.Etob_intf.set_delivered dual_backend d;
    dual_node.Engine.on_message ~src:leader
      (Ec_core.Commit_prefix.Commit_mark { seq = d });
    let committed =
      Option.value ~default:[]
        (latest
           (function
             | Ec_core.Commit_prefix.Committed s -> Some (Ec_core.Dseq.to_list s)
             | _ -> None)
           dual_out)
    in
    let ok =
      view_ok seq ~log:(Plain.log plain) ~state:(Plain.state plain)
        ~last_output:(latest applied plain_out)
      && view_ok seq ~log:(Dual.speculative_log dual)
           ~state:(Dual.speculative_state dual) ~last_output:(latest applied dual_out)
      && view_ok committed ~log:(Dual.committed_log dual)
           ~state:(Dual.committed_state dual)
           ~last_output:
             (latest
                (function
                  | Committed_replica.Applied_committed { count; digest; _ } ->
                    Some (count, digest)
                  | _ -> None)
                dual_out)
    in
    (seq, ok)
  in
  let rec go seq = function
    | [] -> true
    | revision :: rest ->
      let seq, ok = step seq revision in
      ok && go seq rest
  in
  go [] script

let prop_fold_dedup_kv =
  QCheck.Test.make
    ~name:"replica fold: dedup kv matches the whole refold, has = log scan"
    ~count:300 script_arb
    (fold_matches_refold (module Dkv) ~has:(Some Dkv.has))

let prop_fold_fifo =
  QCheck.Test.make ~name:"replica fold: fifo matches the whole refold" ~count:300
    script_arb
    (fold_matches_refold (module Machines.Fifo) ~has:None)

(* ------------------------------------------------------------------ *)
(* Session guarantees                                                  *)
(* ------------------------------------------------------------------ *)

let run_sessions ?(inputs = []) setup =
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual_kv.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    let key = Session.key_of ctx.Engine.self in
    let lookup state () = Machines.String_map.find_opt key state in
    let views =
      [ { Session.v_name = "speculative";
          v_lookup = (fun () -> lookup (Dual_kv.speculative_state replica) ()) };
        { Session.v_name = "committed";
          v_lookup = (fun () -> lookup (Dual_kv.committed_state replica) ()) } ]
    in
    let _, session_node =
      Session.create ctx ~session:ctx.Engine.self ~views
        ~submit:(Dual_kv.submit replica)
    in
    (Engine.stack [ omega_node; etob_node; replica_node; session_node ], ())
  in
  let trace, _ =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  trace

let session_steps ~procs ~from_time ~until ~every =
  List.concat_map
    (fun p ->
       List.init ((until - from_time) / every) (fun i ->
           (from_time + (i * every), p, Session.Session_step)))
    procs

let test_sessions_clean_in_stable_period () =
  (* Reads spaced beyond the write round trip: both views give full session
     guarantees under a stable leader. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with omega = oracle 0 } in
  let inputs = session_steps ~procs:[ 0; 1; 2 ] ~from_time:20 ~until:180 ~every:12 in
  let trace = run_sessions ~inputs setup in
  List.iter
    (fun session ->
       List.iter
         (fun view ->
            let tally = Session.tally_of_trace trace ~session ~view in
            Alcotest.(check bool) "read something" true (tally.Session.reads > 5);
            Alcotest.(check int)
              (Printf.sprintf "s%d %s ryw" session view) 0
              tally.Session.ryw_violations;
            Alcotest.(check int)
              (Printf.sprintf "s%d %s mr" session view) 0
              tally.Session.mr_violations)
         [ "speculative"; "committed" ])
    [ 0; 1; 2 ]

let test_sessions_split_across_partition () =
  let heal = 120 in
  let setup = partition_setup ~n:5 ~heal in
  let setup = { setup with deadline = 320 } in
  let inputs = session_steps ~procs:[ 0; 3 ] ~from_time:20 ~until:300 ~every:12 in
  let trace = run_sessions ~inputs setup in
  (* The majority-side session is clean on the speculative view. *)
  let p0_spec = Session.tally_of_trace trace ~session:0 ~view:"speculative" in
  Alcotest.(check int) "p0 speculative ryw" 0 p0_spec.Session.ryw_violations;
  (* The minority-side committed view cannot serve the session's own writes
     during the partition. *)
  let p3_comm = Session.tally_of_trace trace ~session:3 ~view:"committed" in
  Alcotest.(check bool) "p3 committed ryw violations during partition" true
    (p3_comm.Session.ryw_violations >= 3);
  (* Every stream is clean from shortly after the heal on. *)
  List.iter
    (fun (session, view) ->
       let tally = Session.tally_of_trace trace ~session ~view in
       Alcotest.(check bool)
         (Printf.sprintf "s%d %s clean after heal (last@%d)" session view
            tally.Session.last_violation)
         true
         (tally.Session.last_violation <= heal + 40))
    [ (0, "speculative"); (0, "committed"); (3, "speculative"); (3, "committed") ]

(* --- crash-triggered session migration ------------------------------ *)

(* One session (id 7) lives on replica 0 until it crashes at t=80, then
   resumes on replica 1.  Both incarnations exist from the start; the
   [Session_step_for] inputs route the steps — to proc 0 before the crash,
   to proc 1 after — and [resume_at] decides whether the handoff carries
   the write counter over.  The guarantee checkers must stay clean for a
   correct handoff and flag a naive restart, not silently pass. *)
let run_migrated_session ~resume_at =
  let setup =
    { (Harness.Stacks.default ~n:3 ~deadline:220) with
      omega = oracle 0;
      pattern = Failures.crash_at (Failures.none ~n:3) 0 80 }
  in
  let make_node ctx =
    let omega, omega_node = Harness.Stacks.omega_module setup ctx in
    let etob, etob_node = Ec_core.Etob_omega.create ctx ~omega in
    let service = Ec_core.Etob_omega.service etob in
    let replica, replica_node =
      Dual_kv.create ctx ~etob:service ~omega
        ~promotion:(fun () -> Ec_core.Etob_omega.promotion etob)
    in
    let views =
      [ { Session.v_name = "speculative";
          v_lookup =
            (fun () ->
              Machines.String_map.find_opt (Session.key_of 7)
                (Dual_kv.speculative_state replica)) } ]
    in
    let session_nodes =
      match ctx.Engine.self with
      | 0 ->
        [ snd
            (Session.create ctx ~session:7 ~views
               ~submit:(Dual_kv.submit replica)) ]
      | 1 ->
        [ snd
            (Session.create ~resume_at ctx ~session:7 ~views
               ~submit:(Dual_kv.submit replica)) ]
      | _ -> []
    in
    ( Engine.stack
        ([ omega_node; etob_node; replica_node ] @ session_nodes),
      () )
  in
  let steps proc ~from_time ~until =
    List.init ((until - from_time) / 12) (fun i ->
        (from_time + (i * 12), proc, Session.Session_step_for 7))
  in
  let inputs = steps 0 ~from_time:20 ~until:80 @ steps 1 ~from_time:100 ~until:200 in
  let trace, _ =
    Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs
  in
  Session.tally_of_trace trace ~session:7 ~view:"speculative"

let test_session_migration_correct_handoff () =
  (* Proc 0 takes 5 steps before crashing, so the migrated incarnation
     must resume its value stream at 5. *)
  let tally = run_migrated_session ~resume_at:5 in
  Alcotest.(check bool) "reads on both replicas" true (tally.Session.reads >= 10);
  Alcotest.(check int) "ryw clean" 0 tally.Session.ryw_violations;
  Alcotest.(check int) "mr clean" 0 tally.Session.mr_violations

let test_session_migration_naive_restart_flagged () =
  (* A naive migration restarts the value stream at 1: its re-written
     values regress the session's reads and the monotonic-reads checker
     must flag it. *)
  let tally = run_migrated_session ~resume_at:0 in
  Alcotest.(check bool) "reads on both replicas" true (tally.Session.reads >= 10);
  Alcotest.(check bool)
    (Format.asprintf "naive restart flagged (%a)" Session.pp_tally tally)
    true
    (tally.Session.mr_violations > 0)

(* ------------------------------------------------------------------ *)
(* Trace text against the Format oracle                                *)
(* ------------------------------------------------------------------ *)

(* Each library's text writer against the Format printer it replaced,
   kept in [Trace_pp_oracle], on the runs the builder and service
   properties do not reach: the EC and EIC stacks and the commit
   indication under a stable and a flapping oracle, E14's sessions, and
   replicas fed [Submit] inputs. *)
let check_text name trace =
  Alcotest.(check string) name (Trace_pp_oracle.text trace) (Trace.text trace)

let test_trace_text_stacks () =
  let open Harness.Stacks in
  let value p ~instance = Ec_core.Value.Num ((p * 100) + instance) in
  List.iter
    (fun (oracle_name, omega) ->
       let setup =
         { (default ~n:4 ~deadline:200) with
           seed = 3; delay = Net.uniform ~min:1 ~max:3; omega }
       in
       let ec_via_etob (impl_name, impl) =
         ( "alg2 over " ^ impl_name,
           run_ec_via_etob setup impl ~propose_value:value ~max_instance:8 )
       in
       List.iter
         (fun (name, trace) -> check_text (oracle_name ^ " " ^ name) trace)
         ([ ("alg4", run_ec_omega setup ~propose_value:value ~max_instance:12);
            ("binary lift", run_ec_lifted setup ~propose_value:value ~max_instance:6);
            ("alg6 over alg4", run_eic_over_ec setup ~propose_value:value ~max_instance:12);
            ("alg7 over alg6", run_ec_via_eic setup ~propose_value:value ~max_instance:12);
            ( "commits",
              run_etob_with_commits setup
                ~inputs:(spread_posts ~n:4 ~count:10 ~from_time:5 ~every:6) ) ]
          @ List.map ec_via_etob
              [ ("alg5", Algorithm_5); ("paxos", Paxos_baseline);
                ("alg1", Algorithm_1_over_4) ]))
    [ ("stable", oracle 0);
      ("flapping", oracle ~pre:(Detectors.Omega.Rotating 9) 120) ]

let test_trace_text_sessions_and_replicas () =
  let setup = { (partition_setup ~n:5 ~heal:120) with deadline = 320 } in
  check_text "E14 sessions"
    (run_sessions setup
       ~inputs:(session_steps ~procs:[ 0; 3 ] ~from_time:20 ~until:300 ~every:12));
  let inputs =
    List.mapi (fun i c -> submit (10 + (3 * i)) (i mod 5) c)
      [ Command.put "x" "left"; Command.put "y" "right"; Command.del "x";
        Command.wput ~client:4 ~rid:17 "k" "v"; Command.put "z" "1" ]
  in
  let trace, _ =
    run_replicas (module Machines.Kv) ~inputs (partition_setup ~n:5 ~heal:50)
      Harness.Stacks.Algorithm_5
  in
  check_text "replica submits" trace

type Io.input += Unknown_input
type Io.output += Unknown_output

(* One entry of every input and output constructor with a writer, the
   built-ins, and a constructor with none. *)
let test_trace_text_every_constructor () =
  let open Ec_core in
  let a = App_msg.make ~origin:0 ~sn:0 () in
  let b = App_msg.make ~origin:1 ~sn:0 ~deps:[ (0, 0) ] () in
  let c = App_msg.make ~origin:2 ~sn:1 ~tag:"t" ~deps:[ (0, 0); (1, 0) ] () in
  let value =
    Value.Vec [ Value.Num 1; Value.Seq [ a; c ]; Value.Flag true;
                Value.Vec [ Value.Num (-2); Value.Seq [] ] ]
  in
  let completed ok overloaded write strong =
    Service.Wire.Completed
      { client = 5; rid = 3; ok; overloaded; write; strong; latency = 12;
        attempts = 2; endpoint = 1 }
  in
  let inputs =
    [ Io.Tick_input; Io.String_input "x"; Etob_intf.Broadcast_etob c;
      Ec_intf.Propose_ec { instance = 1; value };
      Eic_intf.Propose_eic { instance = 2; value = Value.Flag false };
      Harness.Stacks.Post "hello"; Session.Session_step; Session.Session_step_for 4;
      Replica.Submit (Command.put "k" "v"); Unknown_input ]
  in
  let outputs =
    [ Io.String_output "y"; Etob_intf.Etob_broadcast c;
      Etob_intf.Etob_deliver (Dseq.of_list [ a; b; c ]);
      Commit_prefix.Committed (Dseq.of_list [ a; b ]);
      Ec_intf.Proposed_ec { layer = "ec"; instance = 2; value };
      Ec_intf.Decide_ec { layer = "ec-inner"; instance = 2; value = Value.Seq [ b ] };
      Eic_intf.Proposed_eic { instance = 3; value };
      Eic_intf.Decide_eic { instance = 3; value };
      Session.Session_write { session = 1; value = 3 };
      Session.Session_read { session = 1; view = "committed"; value = Some 2 };
      Session.Session_read { session = 2; view = "speculative"; value = None };
      Committed_replica.Applied_committed { machine = "kv"; count = 2; digest = "a=1" };
      Replica.Applied { machine = "kv"; count = 3; digest = "a=1,b=2" };
      Service.Wire.Attempt { client = 5; rid = 3; attempt = 1; endpoint = 2; strong = true };
      completed true false true false; completed false true false true;
      Service.Wire.Shed { endpoint = 2 };
      Service.Wire.Duplicate_submit { endpoint = 1; client = 5; rid = 3 };
      Service.Wire.Migrated { client = 5; from_endpoint = 2; to_endpoint = 0 };
      Service.Wire.Breaker { client = 5; opened = true };
      Service.Wire.Breaker { client = 5; opened = false }; Unknown_output ]
  in
  let trace = Trace.create ~n:3 in
  List.iteri (fun i input -> Trace.record_input trace ~time:i ~proc:(i mod 3) input) inputs;
  List.iteri
    (fun i output -> Trace.record_output trace ~time:(100 + i) ~proc:(i mod 3) output)
    outputs;
  check_text "every constructor" trace;
  let text = Trace.text trace in
  List.iter
    (fun line ->
       Alcotest.(check bool) line true
         (List.mem line (String.split_on_char '\n' text)))
    [ "[   9] p0 <- <input>"; "[ 121] p0 -> <output>" ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_machines_deterministic; prop_command_roundtrip ]
  in
  Alcotest.run "replication"
    [ ("command",
       [ Alcotest.test_case "roundtrip" `Quick test_command_roundtrip;
         Alcotest.test_case "rejects colon" `Quick test_command_rejects_colon;
         Alcotest.test_case "garbage tags" `Quick test_command_of_tag_garbage ]);
      ("machines",
       [ Alcotest.test_case "counter" `Quick test_counter;
         Alcotest.test_case "kv" `Quick test_kv;
         Alcotest.test_case "register" `Quick test_register;
         Alcotest.test_case "fifo" `Quick test_fifo ]
       @ qc);
      ("replica",
       [ Alcotest.test_case "counters converge" `Quick test_counter_replicas_converge;
         Alcotest.test_case "kv across partition" `Quick
           test_kv_replicas_eventually_consistent_across_partition;
         Alcotest.test_case "paxos never rolls back" `Quick
           test_replica_over_paxos_never_rolls_back;
         Alcotest.test_case "etob rolls back during disagreement" `Quick
           test_replica_over_etob_rolls_back_during_disagreement;
         Alcotest.test_case "survives minority" `Quick test_replicas_survive_minority;
         Alcotest.test_case "ignores foreign traffic" `Quick
           test_replica_ignores_foreign_traffic ]);
      ("committed_replica",
       [ Alcotest.test_case "views agree in stable period" `Quick
           test_dual_views_agree_in_stable_period;
         Alcotest.test_case "views split during partition" `Quick
           test_dual_views_split_during_partition;
         Alcotest.test_case "committed stalls without majority" `Quick
           test_dual_views_committed_stalls_without_majority ]);
      ("fold",
       List.map QCheck_alcotest.to_alcotest [ prop_fold_dedup_kv; prop_fold_fifo ]);
      ("sessions",
       [ Alcotest.test_case "clean in stable period" `Quick
           test_sessions_clean_in_stable_period;
         Alcotest.test_case "split across partition" `Quick
           test_sessions_split_across_partition;
         Alcotest.test_case "migration: correct handoff clean" `Quick
           test_session_migration_correct_handoff;
         Alcotest.test_case "migration: naive restart flagged" `Quick
           test_session_migration_naive_restart_flagged ]);
      ("trace text",
       [ Alcotest.test_case "EC, EIC and commit stacks" `Quick test_trace_text_stacks;
         Alcotest.test_case "sessions and replicas" `Quick
           test_trace_text_sessions_and_replicas;
         Alcotest.test_case "every constructor" `Quick
           test_trace_text_every_constructor ]);
    ]
