(* Tests for the core library: Algorithms 1, 2, 4, 5, 6, 7, the causal
   graph, values, and the property checkers themselves. *)

open Simulator
open Ec_core

let msg ?(tag = "") ?(deps = []) origin sn = App_msg.make ~origin ~sn ~tag ~deps ()

(* ------------------------------------------------------------------ *)
(* Harness: run Algorithm 5 under a configurable scenario.             *)
(* ------------------------------------------------------------------ *)

let run_etob_omega ?(n = 3) ?(seed = 1) ?(deadline = 200) ?(timer_period = 2)
    ?(delay = Net.constant 1) ?pattern ?(omega_stabilize = 0)
    ?(omega_pre = Detectors.Omega.Self_trust) ~broadcasts () =
  let pattern = match pattern with Some p -> p | None -> Failures.none ~n in
  let omega = Detectors.Omega.make ~pre:omega_pre pattern ~stabilize_at:omega_stabilize in
  let config = { (Engine.default_config ~n ~deadline) with
                 pattern; seed; timer_period; delay } in
  let make_node ctx =
    let t, node = Etob_omega.create ctx ~omega:(Detectors.Omega.module_of omega ctx) in
    (node, Etob_omega.service t)
  in
  let inputs =
    List.map (fun (t, p, m) -> (t, p, Etob_intf.Broadcast_etob m)) broadcasts
  in
  let trace, _services = Engine.run_with config ~make_node ~inputs in
  (pattern, trace)

let check_verdict name (v : Properties.verdict) =
  Alcotest.(check bool) (name ^ ": " ^ String.concat "; " v.Properties.violations)
    true v.Properties.ok

(* ------------------------------------------------------------------ *)
(* App_msg                                                             *)
(* ------------------------------------------------------------------ *)

let test_app_msg_identity () =
  let a = msg 0 1 and b = msg 0 1 ~tag:"different-content" in
  Alcotest.(check bool) "same id => equal" true (App_msg.equal a b);
  Alcotest.(check bool) "different sn" false (App_msg.equal a (msg 0 2))

let test_app_msg_prefix () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  Alcotest.(check bool) "empty prefix" true (App_msg.is_prefix [] [ a; b ]);
  Alcotest.(check bool) "proper prefix" true (App_msg.is_prefix [ a ] [ a; b; c ]);
  Alcotest.(check bool) "equal" true (App_msg.is_prefix [ a; b ] [ a; b ]);
  Alcotest.(check bool) "not prefix" false (App_msg.is_prefix [ b ] [ a; b ]);
  Alcotest.(check bool) "longer" false (App_msg.is_prefix [ a; b ] [ a ])

(* Printers against the Fmt-based oracle (App_msg_pp_oracle): same bytes
   where the repository prints messages, which is inside a vertical box
   after an entry prefix, and at top level (jsonl and binary sink text,
   error messages), at a narrow, the default and a wide margin, so that
   every break hint is exercised both taken and not.  The trace text
   writers ([App_msg.add_text], [Dseq.write]) are one more rendering:
   they must give the oracle's bytes inside a vertical box opened at
   column 0, as the trace lays out every entry. *)
module Pp_oracle = App_msg_pp_oracle

let render ~margin print =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf margin;
  print ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let renderings pp v =
  List.concat_map
    (fun margin ->
       [ render ~margin (fun ppf ->
             Format.fprintf ppf "@[<v>[  12] p3 -> d_i:=%a@,[ 345] p1 -> %a@,end@]"
               pp v pp v);
         render ~margin (fun ppf -> Format.fprintf ppf "committed:%a" pp v) ])
    [ 10; 78; 200 ]

let big_id_gen = QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))

let printable_msg_gen =
  QCheck.Gen.(
    let* origin, sn = big_id_gen in
    let* deps = list_size (int_range 0 4) big_id_gen in
    return (App_msg.make ~origin ~sn ~deps ()))

let printer_input_arb =
  QCheck.make
    ~print:(fun (m, ms) -> Format.asprintf "%a %a" Pp_oracle.pp m Pp_oracle.pp_seq ms)
    QCheck.Gen.(pair printable_msg_gen (list_size (int_range 0 12) printable_msg_gen))

let in_vbox pp v = render ~margin:78 (fun ppf -> Format.fprintf ppf "@[<v>%a@]" pp v)

let printers_agree (pp, pp_seq, text, seq_text) (m, ms) =
  List.equal String.equal (text m :: renderings pp m)
    (in_vbox Pp_oracle.pp m :: renderings Pp_oracle.pp m)
  && List.equal String.equal (seq_text ms :: renderings pp_seq ms)
       (in_vbox Pp_oracle.pp_seq ms :: renderings Pp_oracle.pp_seq ms)

let msg_text m =
  let b = Buffer.create 64 in
  App_msg.add_text b m;
  Buffer.contents b

(* The writer has just written the first half of the sequence under the
   same key, so the second write reuses that text and appends the rest,
   read with [Dseq.delta]. *)
let seq_text ms =
  let all = Dseq.of_list ms in
  let half = Dseq.prefix all (List.length ms / 2) in
  let w = Dseq.writer () in
  Dseq.write w (Buffer.create 64) 3 half;
  let b = Buffer.create 256 in
  Dseq.write w b 3 (Dseq.append half (snd (Dseq.delta half all)));
  Buffer.contents b

let prop_printers_match_oracle =
  QCheck.Test.make ~name:"app_msg: printers match the Fmt oracle byte for byte"
    ~count:500 printer_input_arb
    (printers_agree (App_msg.pp, App_msg.pp_seq, msg_text, seq_text))

(* Negative control: the oracle with the break hint moved before the comma
   of the dependency list.  The text is the same when no line wraps, so
   only the break structure can tell them apart; the property must. *)
let planted_pp ppf (m : App_msg.t) =
  let sep ppf () = Format.pp_print_space ppf (); Format.pp_print_string ppf "," in
  if m.deps = [] then Pp_oracle.pp_id ppf (App_msg.id m)
  else
    Fmt.pf ppf "%a{<-%a}" Pp_oracle.pp_id (App_msg.id m)
      (Fmt.list ~sep Pp_oracle.pp_id) m.deps

let planted_pp_seq ppf ms = Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ";") planted_pp) ms

let prop_planted_break_caught =
  QCheck.Test.make_neg
    ~name:"app_msg: a moved break hint fails the printer property" ~count:500
    printer_input_arb
    (printers_agree
       (planted_pp, planted_pp_seq, in_vbox planted_pp, in_vbox planted_pp_seq))

(* [Value.add_text] is the trace's writer of the values [Value.pp] prints
   in the checkers' messages: inside a vertical box at column 0 the two
   give the same bytes, a newline after each comma of a [Vec]. *)
let value_gen =
  QCheck.Gen.(
    fix
      (fun self depth ->
         let leaf =
           oneof
             [ map (fun b -> Value.Flag b) bool;
               map (fun i -> Value.Num i) (int_range (-50) 5000);
               map (fun ms -> Value.Seq ms) (list_size (int_range 0 4) printable_msg_gen) ]
         in
         if depth = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (2, map (fun vs -> Value.Vec vs) (list_size (int_range 0 4) (self (depth - 1)))) ])
      3)

let prop_value_text_matches_pp =
  QCheck.Test.make ~name:"value: text equals pp in a vertical box" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Value.pp) value_gen)
    (fun v ->
       let b = Buffer.create 64 in
       Value.add_text b v;
       String.equal (Buffer.contents b) (in_vbox Value.pp v))

(* ------------------------------------------------------------------ *)
(* Dseq against lists                                                  *)
(* ------------------------------------------------------------------ *)

(* Random scripts derive sequences from earlier ones — appending pool
   messages, taking prefixes, rebuilding from the list, reading — so some
   pairs share their tails and some were built separately.  Each
   sequence must agree with its list model, and each pair must compare
   as the two lists do.  The pool holds twins of two ids, one with
   another tag and one with other deps, which [Dseq.delta] must tell
   from the originals. *)
type dseq_op =
  | Append of int * int list
  | Prefix of int * int
  | Rebuild of int
  | Read of int

let dseq_pool =
  Array.append
    (Array.init 5 (fun i -> msg (i mod 2) (i / 2)))
    [| msg ~tag:"twin" 0 0; msg ~deps:[ (0, 0) ] 1 0 |]

(* [Dseq.delta]'s list model: [a]'s length and what [b] adds past it
   when [a] is not empty and [b] starts with exactly its messages, and
   all of [b] otherwise. *)
let delta_model la lb =
  let k = List.length la in
  if k > 0 && List.length lb >= k
     && List.equal App_msg.same la (List.filteri (fun j _ -> j < k) lb)
  then (k, List.filteri (fun j _ -> j >= k) lb)
  else (0, lb)

let pp_dseq_op ppf = function
  | Append (i, picks) -> Fmt.pf ppf "append %d %a" i Fmt.(Dump.list int) picks
  | Prefix (i, k) -> Fmt.pf ppf "prefix %d %d" i k
  | Rebuild i -> Fmt.pf ppf "rebuild %d" i
  | Read i -> Fmt.pf ppf "read %d" i

let dseq_script_arb =
  let op =
    QCheck.Gen.(
      let slot = int_bound 1000 in
      frequency
        [ ( 4,
            map2
              (fun i picks -> Append (i, picks))
              slot
              (list_size (int_range 0 3) (int_bound (Array.length dseq_pool - 1))) );
          (2, map2 (fun i k -> Prefix (i, k)) slot (int_range (-1) 12));
          (2, map (fun i -> Rebuild i) slot);
          (2, map (fun i -> Read i) slot) ])
  in
  QCheck.make
    ~print:(Format.asprintf "%a" Fmt.(Dump.list pp_dseq_op))
    QCheck.Gen.(list_size (int_range 1 30) op)

let prop_dseq_matches_lists =
  QCheck.Test.make ~name:"dseq: to_list, length, last, is_prefix and equal match lists"
    ~count:500 dseq_script_arb
    (fun script ->
       let same_list = List.equal App_msg.equal in
       let slots = ref [ (Dseq.empty, []) ] and reads_ok = ref true in
       let pick i = List.nth !slots (i mod List.length !slots) in
       let add slot = slots := !slots @ [ slot ] in
       List.iter
         (function
           | Append (i, picks) ->
             let s, l = pick i in
             let ms = List.map (fun j -> dseq_pool.(j)) picks in
             add (Dseq.append s ms, l @ ms)
           | Prefix (i, k) ->
             let s, l = pick i in
             add (Dseq.prefix s k, List.filteri (fun j _ -> j < k) l)
           | Rebuild i ->
             let _, l = pick i in
             add (Dseq.of_list l, l)
           | Read i ->
             let s, l = pick i in
             reads_ok := !reads_ok && same_list (Dseq.to_list s) l)
         script;
       let agrees (s, l) =
         same_list (Dseq.to_list s) l
         && Dseq.length s = List.length l
         && Option.equal App_msg.equal (Dseq.last s)
              (match List.rev l with m :: _ -> Some m | [] -> None)
       in
       let pairs_agree (a, la) =
         List.for_all
           (fun (b, lb) ->
              Bool.equal (Dseq.is_prefix a b) (App_msg.is_prefix la lb)
              && Bool.equal (Dseq.equal a b) (same_list la lb)
              &&
              let kept, fresh = Dseq.delta a b and kept', fresh' = delta_model la lb in
              kept = kept' && List.equal App_msg.same fresh fresh')
           !slots
       in
       (* Pairs first, so some sequences are compared before any read. *)
       List.for_all pairs_agree !slots && List.for_all agrees !slots && !reads_ok)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_tag_roundtrip () =
  List.iter
    (fun v ->
       match Value.of_tag (Value.to_tag v) with
       | Some v' -> Alcotest.(check bool) "roundtrip" true (Value.equal v v')
       | None -> Alcotest.fail "roundtrip failed")
    [ Value.Flag true; Value.Flag false; Value.Num 0; Value.Num (-42); Value.Num 17 ]

let test_value_tag_rejects_seq () =
  Alcotest.check_raises "Seq rejected"
    (Invalid_argument "Value.to_tag: only scalar values embed in tags")
    (fun () -> ignore (Value.to_tag (Value.Seq [])))

let test_value_compare_total () =
  let vs = [ Value.Flag false; Value.Flag true; Value.Num 3; Value.Seq [ msg 0 0 ];
             Value.Vec [ Value.Num 1 ] ] in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            let ab = Value.compare a b and ba = Value.compare b a in
            Alcotest.(check int) "antisymmetric" ab (-ba);
            Alcotest.(check bool) "consistent with equal" (ab = 0) (Value.equal a b))
         vs)
    vs

(* ------------------------------------------------------------------ *)
(* Causal graph                                                        *)
(* ------------------------------------------------------------------ *)

let test_cg_linearize_respects_deps () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let m3 = msg 2 0 ~deps:[ App_msg.id m2 ] in
  let g = List.fold_left Causal_graph.add Causal_graph.empty [ m3; m1; m2 ] in
  let seq = Causal_graph.linearize g ~prefix:[] in
  Alcotest.(check bool) "valid" true (Causal_graph.is_valid_linearization g ~prefix:[] seq);
  Alcotest.(check (list string)) "causal order"
    [ "p0#0"; "p1#0"; "p2#0" ]
    (List.map (fun m -> Format.asprintf "%a" App_msg.pp_id (App_msg.id m)) seq)

let test_cg_prefix_kept () =
  let m1 = msg 0 0 and m2 = msg 1 0 in
  let m3 = msg 2 0 in
  let g = List.fold_left Causal_graph.add Causal_graph.empty [ m1; m2; m3 ] in
  (* A prefix that is NOT in tie-break order must be preserved verbatim. *)
  let prefix = [ m2; m1 ] in
  let seq = Causal_graph.linearize g ~prefix in
  Alcotest.(check bool) "prefix kept" true (App_msg.is_prefix prefix seq);
  Alcotest.(check int) "all messages" 3 (List.length seq)

let test_cg_union_commutative_content () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let g1 = Causal_graph.add Causal_graph.empty m1 in
  let g2 = Causal_graph.add Causal_graph.empty m2 in
  let u1 = Causal_graph.union g1 g2 and u2 = Causal_graph.union g2 g1 in
  Alcotest.(check int) "same size" (Causal_graph.size u1) (Causal_graph.size u2);
  Alcotest.(check bool) "same linearization" true
    (List.for_all2 App_msg.equal
       (Causal_graph.linearize u1 ~prefix:[])
       (Causal_graph.linearize u2 ~prefix:[]))

let test_cg_idempotent_add () =
  let m = msg 0 0 in
  let g = Causal_graph.add (Causal_graph.add Causal_graph.empty m) m in
  Alcotest.(check int) "one node" 1 (Causal_graph.size g)

(* qcheck: any random DAG linearizes validly, with any tie-break. *)
let arbitrary_graph =
  QCheck.make
    ~print:(fun msgs -> Format.asprintf "%a" App_msg.pp_seq msgs)
    QCheck.Gen.(
      let* count = int_range 1 12 in
      let rec build acc i =
        if i >= count then return (List.rev acc)
        else
          let* origin = int_range 0 2 in
          let* dep_mask = int_range 0 (max 1 (List.length acc)) in
          let deps =
            List.filteri (fun j _ -> j < dep_mask) acc |> List.map App_msg.id
          in
          build (App_msg.make ~origin ~sn:i ~deps () :: acc) (i + 1)
      in
      build [] 0)

let prop_linearize_valid =
  QCheck.Test.make ~name:"causal_graph: linearize is a valid topological extension"
    ~count:200 arbitrary_graph (fun msgs ->
        let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
        let seq = Causal_graph.linearize g ~prefix:[] in
        Causal_graph.is_valid_linearization g ~prefix:[] seq)

let prop_linearize_tie_break_independent =
  QCheck.Test.make
    ~name:"causal_graph: any tie-break yields a valid linearization"
    ~count:200 arbitrary_graph (fun msgs ->
        let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
        let reversed a b = App_msg.compare b a in
        let seq = Causal_graph.linearize ~tie_break:reversed g ~prefix:[] in
        Causal_graph.is_valid_linearization g ~prefix:[] seq)

let prop_linearize_monotone =
  QCheck.Test.make
    ~name:"causal_graph: relinearizing with a prior result as prefix extends it"
    ~count:200 arbitrary_graph (fun msgs ->
        match msgs with
        | [] -> true
        | _ ->
          let half = List.filteri (fun i _ -> i < List.length msgs / 2) msgs in
          let g_half = List.fold_left Causal_graph.add Causal_graph.empty half in
          let prefix = Causal_graph.linearize g_half ~prefix:[] in
          let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
          let seq = Causal_graph.linearize g ~prefix in
          App_msg.is_prefix prefix seq
          && Causal_graph.is_valid_linearization g ~prefix seq)

(* Differential: the incremental graph against the whole-history oracle
   (Causal_graph_oracle) on random causal histories, received in random
   order as single messages and as whole graphs, so that nodes arrive
   before their dependencies and per-origin runs have gaps. *)
module Oracle = Causal_graph_oracle

(* Messages with per-origin sequence numbers 0, 1, 2, ... and up to two
   dependencies on earlier messages, as genuine runs produce. *)
let history_gen =
  QCheck.Gen.(
    let* count = int_range 1 24 in
    let sns = Array.make 4 0 in
    let rec build acc i =
      if i >= count then return (Array.of_list (List.rev acc))
      else
        let* origin = int_range 0 3 in
        let* picks = list_size (int_range 0 2) (int_range 0 (max 0 (i - 1))) in
        let deps = if i = 0 then [] else List.map (fun j -> App_msg.id (List.nth (List.rev acc) j)) picks in
        let sn = sns.(origin) in
        sns.(origin) <- sn + 1;
        build (App_msg.make ~origin ~sn ~deps () :: acc) (i + 1)
    in
    build [] 0)

(* How a graph grows: [`Add i] adds message i, [`Union is] merges a graph
   built from the messages [is] in that order. *)
let ops_gen count =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [ (3, map (fun i -> `Add i) (int_range 0 (count - 1)));
           (1, map (fun is -> `Union is) (list_size (int_range 0 count) (int_range 0 (count - 1))))
         ]))

let history_arb =
  QCheck.make
    ~print:(fun (msgs, ops, tie) ->
        Format.asprintf "%a ops=%s tie=%d" App_msg.pp_seq (Array.to_list msgs)
          (String.concat " "
             (List.map
                (function
                  | `Add i -> string_of_int i
                  | `Union is -> "U[" ^ String.concat "," (List.map string_of_int is) ^ "]")
                ops))
          tie)
    QCheck.Gen.(
      let* msgs = history_gen in
      let* ops = ops_gen (Array.length msgs) in
      let* tie = int_range 0 2 in
      return (msgs, ops, tie))

let apply_op msgs (g, og) = function
  | `Add i -> (Causal_graph.add g msgs.(i), Oracle.add og msgs.(i))
  | `Union is ->
    let part = List.map (fun i -> msgs.(i)) is in
    ( Causal_graph.union g (List.fold_left Causal_graph.add Causal_graph.empty part),
      Oracle.union og (List.fold_left Oracle.add Oracle.empty part) )

(* The default tie-break, its reverse, and one with ties (by origin only),
   where the id decides. *)
let tie_of = function
  | 0 -> Causal_graph.default_tie_break
  | 1 -> fun a b -> App_msg.compare b a
  | _ -> fun a b -> Int.compare a.App_msg.origin b.App_msg.origin

let ids = List.map App_msg.id
let same_ids a b = List.equal (fun x y -> App_msg.compare_id x y = 0) (ids a) (ids b)

let prop_cg_matches_oracle =
  QCheck.Test.make ~name:"causal_graph: union, ready and linearize match the oracle"
    ~count:500 history_arb (fun (msgs, ops, tie) ->
        let tie_break = tie_of tie in
        let half = List.filteri (fun i _ -> 2 * i < List.length ops) ops in
        let _, og_half = List.fold_left (apply_op msgs) (Causal_graph.empty, Oracle.empty) half in
        let prefix = Oracle.linearize ~tie_break (Oracle.ready og_half) ~prefix:[] in
        let g, og = List.fold_left (apply_op msgs) (Causal_graph.empty, Oracle.empty) ops in
        let sorted_edges es = List.sort compare es in
        same_ids (Causal_graph.messages g) (Oracle.messages og)
        && Causal_graph.size g = Oracle.size og
        && same_ids (Causal_graph.messages (Causal_graph.ready g))
             (Oracle.messages (Oracle.ready og))
        && Causal_graph.ready_count g = Oracle.size (Oracle.ready og)
        && sorted_edges (Causal_graph.edges g) = sorted_edges (Oracle.edges og)
        && same_ids
             (Causal_graph.linearize ~tie_break (Causal_graph.ready g) ~prefix)
             (Oracle.linearize ~tie_break (Oracle.ready og) ~prefix)
        && same_ids
             (Causal_graph.linearize ~tie_break g ~prefix:[])
             (Oracle.linearize ~tie_break og ~prefix:[]))

(* UpdatePromote as Algorithm 5 runs it: start from a restored state (a
   graph and a durable d_i that may hold messages not yet ready), then
   after every step append [promote_fresh] and compare with re-linearizing
   the oracle's ready graph from the previous promotion. *)
let prop_promote_fresh_matches_oracle =
  QCheck.Test.make
    ~name:"causal_graph: incremental UpdatePromote matches re-linearizing"
    ~count:500 history_arb (fun (msgs, ops, tie) ->
        let tie_break = tie_of tie in
        let k = Array.length msgs / 3 in
        let restored = List.init k (fun i -> msgs.(2 * i)) in
        let delivered = List.init (k / 2) (fun i -> msgs.(i)) in
        let g0 = List.fold_left Causal_graph.add Causal_graph.empty restored in
        let og0 = List.fold_left Oracle.add Oracle.empty restored in
        let ready0 = Causal_graph.ready g0 in
        let prefix0 = Causal_graph.linearize ~tie_break ready0 ~prefix:delivered in
        let early =
          App_msg.ids_of_seq
            (List.filter (fun m -> not (Causal_graph.mem ready0 (App_msg.id m))) prefix0)
        in
        let placed id = App_msg.Id_set.mem id early in
        same_ids prefix0 (Oracle.linearize ~tie_break (Oracle.ready og0) ~prefix:delivered)
        && fst
             (List.fold_left
                (fun (ok, (g, og, prefix, since)) op ->
                   let g, og = apply_op msgs (g, og) op in
                   let prefix' =
                     prefix @ Causal_graph.promote_fresh ~tie_break g ~since ~placed
                   in
                   ( ok
                     && same_ids prefix'
                          (Oracle.linearize ~tie_break (Oracle.ready og) ~prefix),
                     (g, og, prefix', Causal_graph.ready_count g) ))
                (true, (g0, og0, prefix0, Causal_graph.ready_count g0))
                ops))

(* ------------------------------------------------------------------ *)
(* Algorithm 5 end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let test_etob_omega_failure_free () =
  let broadcasts =
    [ (5, 0, msg 0 0 ~tag:"a"); (7, 1, msg 1 0 ~tag:"b"); (9, 2, msg 2 0 ~tag:"c") ]
  in
  let pattern, trace = run_etob_omega ~n:3 ~broadcasts () in
  let run = Properties.etob_run_of_trace pattern trace in
  let report = Properties.etob_report run in
  check_verdict "validity" report.Properties.validity;
  check_verdict "no-creation" report.Properties.no_creation;
  check_verdict "no-duplication" report.Properties.no_duplication;
  check_verdict "agreement" report.Properties.agreement;
  check_verdict "causal-order" report.Properties.causal_order;
  Alcotest.(check int) "final length" 3 (List.length (Properties.final_d run 0))

(* ------------------------------------------------------------------ *)
(* Algorithm 2's wire encoding                                         *)
(* ------------------------------------------------------------------ *)

let test_etob_to_ec_tag_roundtrip () =
  List.iter
    (fun (instance, v) ->
       let tag = Etob_to_ec.tag_of ~instance v in
       match Etob_to_ec.parse_tag tag with
       | Some (l, v') ->
         Alcotest.(check int) "instance" instance l;
         Alcotest.(check bool) "value" true (Value.equal v v')
       | None -> Alcotest.failf "failed to parse %s" tag)
    [ (1, Value.Flag true); (7, Value.Flag false); (42, Value.Num (-3));
      (1000, Value.Num 0) ]

let test_etob_to_ec_tag_rejects_garbage () =
  List.iter
    (fun tag ->
       Alcotest.(check bool) tag true (Etob_to_ec.parse_tag tag = None))
    [ ""; "ec2"; "ec2:x:f:true"; "other:1:n:3"; "ec2:1:bogus" ]

(* ------------------------------------------------------------------ *)
(* Hand-wired stack suites (through Harness.Stacks)                    *)
(* ------------------------------------------------------------------ *)

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let num_values self ~instance = Value.Num ((self * 100) + instance)
let flag_values self ~instance = Value.Flag ((self + instance) mod 2 = 0)

(* --- Algorithm 4 (EC from Omega) ---------------------------------- *)

let test_ec_omega_stable_leader () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:150) with
                omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  check_verdict "integrity" report.Properties.integrity;
  check_verdict "validity" report.Properties.ec_validity;
  check_verdict "termination" report.Properties.termination;
  Alcotest.(check int) "agreement from the first instance" 1
    report.Properties.agreement_index

let test_ec_omega_late_stabilization () =
  (* The drivers run through roughly one instance per tick, so the instance
     count must comfortably outlast tau_Omega for post-stabilization
     instances to exist. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:60 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:60 in
  Alcotest.(check bool) "all clauses with eventual agreement" true
    (Properties.ec_ok ~agreement_by:60 report);
  (* Self-trust really disagreed before stabilization. *)
  Alcotest.(check bool) "disagreement before tau_Omega" true
    (report.Properties.agreement_index > 1)

let test_ec_omega_no_majority () =
  (* The paper's headline: Algorithm 4 needs NO correct majority. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 40); (3, 40); (4, 40) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:400) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:10 in
  let run = Properties.ec_run_of_trace pattern trace in
  let report = Properties.ec_report run ~instances:10 in
  Alcotest.(check bool)
    "EC holds with a minority of correct processes" true
    (Properties.ec_ok ~agreement_by:10 report)

let test_ec_omega_rotating_prefix () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                omega = oracle ~pre:(Detectors.Omega.Rotating 6) 50 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:flag_values
      ~max_instance:10 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:10 in
  Alcotest.(check bool) "EC under rotating prefix" true
    (Properties.ec_ok ~agreement_by:10 report)

let test_minimum_system_size () =
  (* The paper's model starts at n = 2: both algorithms must work there,
     including with one of the two processes crashing (no majority left). *)
  let pattern = Failures.of_crashes ~n:2 [ (1, 40) ] in
  let setup = { (Harness.Stacks.default ~n:2 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace pattern trace in
  Alcotest.(check bool) "EC at n=2 with a crash" true
    (Properties.ec_ok ~agreement_by:8 (Properties.ec_report run ~instances:8));
  let setup = { (Harness.Stacks.default ~n:2 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "both-alive");
      (100, 0, Harness.Stacks.Post "solo") ]
  in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace pattern trace in
  Alcotest.(check bool) "ETOB at n=2 with a crash" true
    (Properties.etob_base_ok (Properties.etob_report run));
  Alcotest.(check int) "survivor delivered both" 2
    (List.length (Properties.final_d run 0))

let prop_ec_omega_any_environment =
  QCheck.Test.make ~name:"algorithm 4: EC in any environment (random runs)"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 2 + Rng.int rng 4 in
       (* ANY environment: up to n-1 crashes, all before time 50. *)
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:50 in
       let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:3;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) 60 } in
       let trace = Harness.Stacks.run_ec_omega setup ~propose_value:num_values
           ~max_instance:50 in
       let run = Properties.ec_run_of_trace pattern trace in
       Properties.ec_ok ~agreement_by:50 (Properties.ec_report run ~instances:50))

(* --- Algorithm 5 (ETOB from Omega) --------------------------------- *)

let test_etob_omega_strong_tob_with_stable_omega () =
  (* Claim (P2) of Section 5: with Omega stable from the start, Algorithm 5
     implements full (strong) total order broadcast. *)
  let setup = { (Harness.Stacks.default ~n:4 ~deadline:200) with
                omega = oracle 0; delay = Net.uniform ~min:1 ~max:4 } in
  let inputs = Harness.Stacks.spread_posts ~n:4 ~count:10 ~from_time:5 ~every:3 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool)
    (Format.asprintf "strong TOB: %a" Properties.pp_etob_report report)
    true (Properties.is_strong_tob report);
  check_verdict "causal order" report.Properties.causal_order

let partition_setup ~n ~heal =
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n ~deadline:(heal * 3)) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = oracle ~pre:(Detectors.Omega.Blockwise blocks) heal }

let test_etob_omega_partition_convergence () =
  (* Both sides of a partition keep making progress under their own leader;
     after healing (tau_Omega = heal) everything converges.  Causal order
     must hold throughout, including DURING the partition (claim P3). *)
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs = Harness.Stacks.spread_posts ~n:5 ~count:15 ~from_time:8 ~every:3 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base properties" true (Properties.etob_base_ok report);
  check_verdict "causal order during partition" report.Properties.causal_order;
  check_verdict "dependencies present" (Properties.check_deps_present run);
  (* Lemma 3's bound: convergence by tau_Omega + Delta_t + Delta_c. *)
  let bound = heal + setup.Harness.Stacks.timer_period + 1 + 2 in
  let tau = Properties.etob_convergence_time report in
  Alcotest.(check bool)
    (Printf.sprintf "tau=%d <= bound=%d" tau bound) true (tau <= bound);
  (* The scenario must genuinely diverge during the partition, otherwise it
     shows nothing. *)
  Alcotest.(check bool) "divergence happened" true (tau > 0)

let test_etob_omega_no_majority () =
  (* Availability without a correct majority: 3 of 5 processes crash, and
     the survivors keep broadcasting and stably delivering. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 20); (3, 20); (4, 20) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "before");
      (40, 1, Harness.Stacks.Post "after-crashes");
      (60, 0, Harness.Stacks.Post "late") ]
  in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base properties" true (Properties.etob_base_ok report);
  Alcotest.(check int) "all three messages stably delivered" 3
    (List.length (Properties.final_d run 0))

let test_etob_omega_two_step_latency () =
  (* Claim (P1): two communication steps per delivery under a stable
     leader.  Delta = 3 ticks; from the broadcast, the update reaches the
     leader in Delta and the promote reaches everyone in another Delta (plus
     at most one timer period of batching at the leader). *)
  let delta = 3 in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                delay = Net.constant delta; omega = oracle 0; timer_period = 1 } in
  let post_at = 50 in
  let inputs = [ (post_at, 1, Harness.Stacks.Post "probe") ] in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let probe =
    List.find_map
      (fun (_, _, o) ->
         match o with
         | Etob_intf.Etob_broadcast m when m.App_msg.tag = "probe" -> Some m
         | _ -> None)
      (Trace.outputs trace)
  in
  match probe with
  | None -> Alcotest.fail "probe not broadcast"
  | Some m ->
    (match Properties.stable_delivery_time run m with
     | None -> Alcotest.fail "probe not stably delivered"
     | Some t ->
       let latency = t - post_at in
       (* Two communication steps, plus at most one timer period of
          batching at the leader. *)
       Alcotest.(check bool)
         (Printf.sprintf "latency %d within [2D, 2D + timer]" latency)
         true
         (latency >= 2 * delta
          && latency <= (2 * delta) + setup.Harness.Stacks.timer_period + 1))

let test_etob_omega_with_elected_omega () =
  (* The full system: Algorithm 5 over the heartbeat-based Omega emulation
     rather than the oracle. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:250) with
                omega = Harness.Stacks.Elected { initial_timeout = 6 } } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:6 ~from_time:30 ~every:5 in
  let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool) "base properties over elected omega" true
    (Properties.etob_base_ok report);
  check_verdict "causal order" report.Properties.causal_order

let prop_etob_omega_random_runs =
  QCheck.Test.make ~name:"algorithm 5: ETOB in any environment (random runs)"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:40 in
       let stabilize = 50 + Rng.int rng 30 in
       let setup = { (Harness.Stacks.default ~n ~deadline:400) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:4;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) stabilize } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:4 in
       let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace pattern trace in
       let report = Properties.etob_report run in
       Properties.etob_base_ok report
       && report.Properties.causal_order.Properties.ok
       && Properties.etob_convergence_time report <= stabilize + 2 + 4 + 2)

(* The incremental Algorithm 5 against the whole-history one
   (Etob_omega_oracle): under random adversity plans — crashes, buffering
   partitions, delay spikes, drops, duplication, Omega flapping — and each
   seeded mutant, the two traces must be identical, event for event. *)
let alg5_trace ~oracle ?mutation setup inputs =
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let service, node =
      if oracle then Etob_omega_oracle.create ?mutation ctx ~omega
      else
        let t, node = Etob_omega.create ?mutation ctx ~omega in
        (Etob_omega.service t, node)
    in
    (Engine.stack [ omega_node; node; Harness.Stacks.post_driver service ], ())
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup) ~make_node ~inputs in
  Format.asprintf "%a" Trace.pp trace

let prop_alg5_matches_oracle =
  let deadline = 300 in
  QCheck.Test.make
    ~name:"algorithm 5: incremental and whole-history runs are trace-identical"
    ~count:60
    (QCheck.make
       ~print:(fun (seed, n, plan, mutation) ->
           Format.asprintf "seed=%d n=%d mutation=%s plan=%a" seed n
             (match mutation with None -> "-" | Some m -> Etob_omega.mutation_name m)
             Harness.Adversity.pp plan)
       QCheck.Gen.(
         let* seed = int_range 0 10_000 in
         let* n = int_range 3 5 in
         let* plan = Harness.Builder.plan_gen ~n ~deadline in
         let* mutation = oneofl (None :: List.map Option.some Etob_omega.all_mutations) in
         return (seed, n, plan, mutation)))
    (fun (seed, n, plan, mutation) ->
       let setup =
         Harness.Adversity.apply plan
           { (Harness.Stacks.default ~n ~deadline) with
             seed;
             delay = Net.uniform ~min:1 ~max:4;
             omega = oracle ~pre:(Detectors.Omega.Seeded seed) 40 }
       in
       let inputs = Harness.Stacks.spread_posts ~n ~count:12 ~from_time:5 ~every:3 in
       String.equal
         (alg5_trace ~oracle:false ?mutation setup inputs)
         (alg5_trace ~oracle:true ?mutation setup inputs))

(* --- Service-level details ------------------------------------------ *)

let test_fresh_msg_causal_deps () =
  (* fresh_msg must declare genuine happens-before predecessors: the last
     own broadcast and the last delivered message. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                omega = oracle 0 } in
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let t, node = Etob_omega.create ctx ~omega in
    let service = Etob_omega.service t in
    (Engine.stack [ omega_node; node; Harness.Stacks.post_driver service ],
     service)
  in
  let inputs =
    [ (5, 0, Harness.Stacks.Post "first");
      (40, 0, Harness.Stacks.Post "second");
      (60, 1, Harness.Stacks.Post "reply") ]
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup)
      ~make_node ~inputs in
  let broadcasts =
    List.filter_map
      (fun (_, _, o) ->
         match o with Etob_intf.Etob_broadcast m -> Some m | _ -> None)
      (Trace.outputs trace)
  in
  match List.sort App_msg.compare broadcasts with
  | [ first; second; reply ] ->
    Alcotest.(check (list (pair int int))) "first has no deps" [] first.App_msg.deps;
    (* p0's second message depends on its first (same-sender order) and on
       the last message it had delivered (its own first, here). *)
    Alcotest.(check bool) "second depends on first" true
      (List.mem (App_msg.id first) second.App_msg.deps);
    (* p1's reply depends on what it last delivered: p0's second. *)
    Alcotest.(check bool) "reply depends on second" true
      (List.mem (App_msg.id second) reply.App_msg.deps)
  | _ -> Alcotest.fail "expected three broadcasts"

let test_eic_input_driven () =
  (* The EIC abstraction driven through engine inputs rather than the
     harness driver: one instance proposed externally at each process. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                omega = oracle 0 } in
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let ec, ec_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
    let eic, eic_node = Ec_to_eic.create ctx ~ec:(Ec_omega.service ec) in
    ignore (Ec_to_eic.service eic);
    (Engine.stack [ omega_node; ec_node; eic_node ], ())
  in
  let inputs =
    List.map
      (fun p -> (5 + p, p, Eic_intf.Propose_eic { instance = 1;
                                                  value = Value.Num (p * 7) }))
      [ 0; 1; 2 ]
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup)
      ~make_node ~inputs in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  check_verdict "termination" (Properties.check_eic_termination run ~instances:1);
  check_verdict "validity" (Properties.check_eic_validity run);
  check_verdict "agreement" (Properties.check_eic_agreement run)

(* --- The binary-to-multivalued lift ([23] in the paper) ------------- *)

let test_binary_lift_stable_leader () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_lifted setup ~propose_value:num_values
      ~max_instance:6 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:6 in
  check_verdict "integrity" report.Properties.integrity;
  check_verdict "validity" report.Properties.ec_validity;
  check_verdict "termination" report.Properties.termination;
  Alcotest.(check int) "agreement from instance 1" 1 report.Properties.agreement_index;
  (* The decided values are genuinely multivalued (Num, not Flag). *)
  let distinct =
    List.sort_uniq compare (Properties.decided_instances run)
  in
  Alcotest.(check int) "six instances decided" 6 (List.length distinct)

let test_binary_lift_late_stabilization () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:800) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Stacks.run_ec_lifted setup ~propose_value:num_values
      ~max_instance:20 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:20 in
  Alcotest.(check bool)
    (Format.asprintf "lift with eventual agreement: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:20 report)

let test_binary_lift_with_crash () =
  let pattern = Failures.of_crashes ~n:3 [ (2, 30) ] in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:800) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Stacks.run_ec_lifted setup ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  Alcotest.(check bool)
    (Format.asprintf "lift under crash: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:8 report)

(* --- Theorem 1: the transformations ------------------------------- *)

let test_alg1_over_alg4_is_etob () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle 30 } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:9 ~from_time:5 ~every:4 in
  let trace =
    Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_1_over_4
  in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool)
    (Format.asprintf "T_EC->ETOB: %a" Properties.pp_etob_report report)
    true (Properties.etob_base_ok report);
  Alcotest.(check bool) "eventual stability" true
    (Properties.etob_convergence_time report <= 60)

let test_alg2_over_alg5_is_ec () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle 30 } in
  let trace =
    Harness.Stacks.run_ec_via_etob setup Harness.Stacks.Algorithm_5
      ~propose_value:flag_values ~max_instance:8
  in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  Alcotest.(check bool)
    (Format.asprintf "T_ETOB->EC: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:8 report)

let test_alg2_over_paxos_is_consensus () =
  (* Over the strong baseline, the transformation yields agreement from the
     very first instance: it is (non-eventual) repeated consensus. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:600) with
                omega = oracle 0; timer_period = 3 } in
  let trace =
    Harness.Stacks.run_ec_via_etob setup Harness.Stacks.Paxos_baseline
      ~propose_value:flag_values ~max_instance:5
  in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:5 in
  Alcotest.(check bool) "all clauses" true (Properties.ec_ok report);
  Alcotest.(check int) "agreement from instance 1" 1 report.Properties.agreement_index

(* --- Appendix A: EIC ----------------------------------------------- *)

let test_alg6_gives_eic () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Stacks.run_eic_over_ec setup ~propose_value:flag_values
      ~max_instance:50 in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  check_verdict "eic termination" (Properties.check_eic_termination run ~instances:50);
  check_verdict "eic validity" (Properties.check_eic_validity run);
  check_verdict "eic agreement" (Properties.check_eic_agreement run);
  Alcotest.(check bool) "finitely many revocations" true
    (Properties.eic_revocation_count run < 1000);
  Alcotest.(check bool) "integrity index finite" true
    (Properties.eic_integrity_index run <= 51)

let test_alg6_revokes_under_disagreement () =
  (* With a long self-trust prefix, early EIC instances genuinely get
     revoked; the point of Appendix A is that this is allowed. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 30 } in
  let trace = Harness.Stacks.run_eic_over_ec setup ~propose_value:num_values
      ~max_instance:60 in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "revocations occurred" true
    (Properties.eic_revocation_count run > 0);
  check_verdict "eic agreement still holds" (Properties.check_eic_agreement run)

let test_alg7_over_alg6_is_ec () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle 40 } in
  let trace = Harness.Stacks.run_ec_via_eic setup ~propose_value:flag_values
      ~max_instance:60 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:60 in
  Alcotest.(check bool)
    (Format.asprintf "T_EIC->EC: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:60 report)

(* --- The leaderless negative baseline ------------------------------ *)

(* Pairs of concurrent posts from different senders, racing the tie-break
   against arrival order: insertions keep happening for as long as the
   workload runs. *)
let concurrent_pairs ~until ~every =
  List.concat
    (List.init (until / every) (fun i ->
         let t = 10 + (i * every) in
         [ (t, 0, Harness.Stacks.Post (Printf.sprintf "a%d" i));
           (t, 2, Harness.Stacks.Post (Printf.sprintf "b%d" i)) ]))

let test_gossip_baseline_converges_but_never_stabilizes () =
  let workload_end = 200 in
  let inputs = concurrent_pairs ~until:workload_end ~every:10 in
  let delay = Net.uniform ~min:1 ~max:4 in
  (* The gossip baseline: correct base properties, convergence after
     quiescence, but stability violations track the workload, not any
     environment constant. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                delay; omega = oracle 0 } in
  let gossip_trace = Harness.Stacks.run_gossip_order ~inputs setup in
  let gossip_run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern gossip_trace in
  let gossip_report = Properties.etob_report gossip_run in
  Alcotest.(check bool) "gossip base properties" true
    (Properties.etob_base_ok gossip_report);
  check_verdict "gossip causal order" gossip_report.Properties.causal_order;
  Alcotest.(check bool)
    (Printf.sprintf "gossip stability tracks the workload (tau=%d)"
       gossip_report.Properties.tau_stability)
    true
    (gossip_report.Properties.tau_stability > workload_end / 2);
  (* Algorithm 5 on the same workload: tau bounded by the environment. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                delay; omega = oracle 0 } in
  let etob_trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let etob_report = Harness.Stacks.etob_report setup etob_trace in
  Alcotest.(check bool) "algorithm 5 is strong TOB on the same workload" true
    (Properties.is_strong_tob etob_report)

(* --- Committed-prefix indications (Section 7 extension) ------------ *)

let test_commit_prefix_stable_period () =
  (* Under a stable leader with a correct majority, every broadcast is
     eventually committed, and commitments are never rolled back. *)
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                omega = oracle 0 } in
  let inputs = Harness.Stacks.spread_posts ~n:5 ~count:10 ~from_time:8 ~every:4 in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  List.iter
    (fun p ->
       Alcotest.(check int) "everything committed" 10
         (Properties.committed_count commits p))
    (Failures.correct pattern)

let test_commit_prefix_latency_after_delivery () =
  (* A commitment needs one more round trip than stable delivery: the
     acknowledgments and the mark. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                delay = Net.constant 2; omega = oracle 0; timer_period = 1 } in
  let inputs = [ (50, 1, Harness.Stacks.Post "probe") ] in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  let m =
    List.find_map
      (fun (_, _, o) ->
         match o with
         | Etob_intf.Etob_broadcast m when m.App_msg.tag = "probe" -> Some m
         | _ -> None)
      (Trace.outputs trace)
    |> Option.get
  in
  match Properties.stable_delivery_time etob m, Properties.commit_time commits m with
  | Some deliver, Some commit ->
    Alcotest.(check bool)
      (Printf.sprintf "commit (%d) after delivery (%d)" commit deliver)
      true (commit >= deliver);
    Alcotest.(check bool) "within two extra round trips" true
      (commit - deliver <= 4 * 2 + 2 * setup.Harness.Stacks.timer_period)
  | None, _ -> Alcotest.fail "probe never stably delivered"
  | _, None -> Alcotest.fail "probe never committed"

let test_commit_prefix_abstains_without_majority () =
  (* With only a minority alive, deliveries continue (eventual consistency)
     but nothing new commits: exactly the paper's stable-period caveat. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 30); (3, 30); (4, 30) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "early");
      (60, 0, Harness.Stacks.Post "uncommittable-1");
      (90, 1, Harness.Stacks.Post "uncommittable-2") ]
  in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  (* All three delivered... *)
  Alcotest.(check int) "delivered" 3 (List.length (Properties.final_d etob 0));
  (* ...but the post-crash broadcasts are not committed. *)
  let committed = Properties.final_committed commits 0 in
  Alcotest.(check bool) "post-crash messages uncommitted" true
    (not (List.exists (fun m -> m.App_msg.tag = "uncommittable-2") committed))

let test_commit_prefix_partition_commits_majority_side_only () =
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "maj");
      (12, 3, Harness.Stacks.Post "min") ]
  in
  let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  let maj_msg, min_msg =
    let find tag =
      List.find_map
        (fun (_, _, o) ->
           match o with
           | Etob_intf.Etob_broadcast m when m.App_msg.tag = tag -> Some m
           | _ -> None)
        (Trace.outputs trace)
      |> Option.get
    in
    (find "maj", find "min")
  in
  (* The majority side's message commits during the partition; the minority
     side's only after healing. *)
  (match Properties.commit_time commits maj_msg with
   | Some t -> Alcotest.(check bool) "maj commits after heal is also fine" true (t > 0)
   | None -> Alcotest.fail "majority message never committed");
  (match Properties.commit_time commits min_msg with
   | Some t ->
     Alcotest.(check bool)
       (Printf.sprintf "minority message commits only after heal (%d)" t) true
       (t >= heal)
   | None -> Alcotest.fail "minority message never committed")

(* With a stable-from-the-start leader (the oracle accounts for crashes:
   its constant output is the smallest process that never crashes), the
   commit indication must be safe under arbitrary crash patterns. *)
let prop_commit_safety_random_crashes =
  QCheck.Test.make ~name:"commit prefix: never rolled back under random crashes"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:80 in
       let setup = { (Harness.Stacks.default ~n ~deadline:300) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:3;
                     omega = oracle 0 } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:6 in
       let trace = Harness.Stacks.run_etob_with_commits ~inputs setup in
       let commits = Properties.commit_run_of_trace pattern trace in
       let etob = Properties.etob_run_of_trace pattern trace in
       (Properties.check_commit_stability commits).Properties.ok
       && (Properties.check_commit_consistent commits etob).Properties.ok)

(* The full realistic stack — elected omega, jittered delays, mid-run
   crashes — keeps every always-clause of ETOB and converges by the end. *)
let prop_full_stack_chaos =
  QCheck.Test.make ~name:"algorithm 5 + elected omega: chaos runs"
    ~count:15 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:100 in
       let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:4;
                     omega = Harness.Stacks.Elected { initial_timeout = 8 } } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:8 in
       let trace = Harness.Stacks.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace pattern trace in
       let report = Properties.etob_report run in
       Properties.etob_base_ok report
       && report.Properties.causal_order.Properties.ok
       (* Converged well before the horizon: the election stabilizes after
          the last crash (by 100) plus its adaptive timeouts. *)
       && Properties.etob_convergence_time report <= 450)

(* --- Property-checker self-tests ----------------------------------- *)

let outputs_trace ~n outputs =
  let trace = Trace.create ~n in
  List.iter (fun (t, p, o) -> Trace.record_output trace ~time:t ~proc:p o) outputs;
  trace

(* Build a synthetic trace of ETOB outputs and check the checkers see what
   they should. *)
let synthetic_trace entries broadcasts ~n =
  outputs_trace ~n
    (List.map (fun (t, p, m) -> (t, p, Etob_intf.Etob_broadcast m)) broadcasts
     @ List.map
         (fun (t, p, seq) -> (t, p, Etob_intf.Etob_deliver (Dseq.of_list seq)))
         entries)

let test_checker_flags_duplication () =
  let m = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ m; m ]) ] [ (1, 0, m) ] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_no_duplication run).Properties.ok

let test_checker_flags_creation () =
  let m = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ m ]) ] [] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_no_creation run).Properties.ok

let test_checker_flags_causal_violation () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let trace =
    synthetic_trace [ (5, 0, [ m2; m1 ]) ] [ (1, 0, m1); (2, 1, m2) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_causal_order run).Properties.ok

let test_checker_measures_stability_tau () =
  let a = msg 0 0 and b = msg 1 0 in
  (* p0 delivers [a], revises to [b] at t=10 (breaking the prefix), then
     extends: tau must be 10. *)
  let trace =
    synthetic_trace
      [ (5, 0, [ a ]); (10, 0, [ b ]); (15, 0, [ b; a ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "tau = 10" 10 (Properties.stability_time run)

let test_checker_measures_total_order_tau () =
  let a = msg 0 0 and b = msg 1 0 in
  (* At t=10 the two processes order {a,b} oppositely; at t=20 they agree. *)
  let trace =
    synthetic_trace
      [ (10, 0, [ a; b ]); (10, 1, [ b; a ]); (20, 1, [ a; b ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "tau = 11" 11 (Properties.total_order_time run)

let test_checker_orders_agree () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  Alcotest.(check bool) "disjoint ok" true (Properties.orders_agree [ a ] [ b ]);
  Alcotest.(check bool) "consistent" true
    (Properties.orders_agree [ a; b; c ] [ a; c ]);
  Alcotest.(check bool) "inconsistent" false
    (Properties.orders_agree [ a; b ] [ b; a ])

let test_checker_agreement_flags_missing () =
  let a = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ a ]) ] [ (1, 0, a) ] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged: p1 never delivers" false
    (Properties.check_agreement run).Properties.ok

(* Findings, the smoke output and the explorer print the checkers'
   messages, so the tests below pin them byte for byte. *)
let check_violations name expected (v : Properties.verdict) =
  Alcotest.(check (list string)) name expected v.Properties.violations

(* The checkers read each revision as its delta against the process's
   previous one; the oracle (Properties_oracle) reads every revision
   whole.  Each hand-built trace below must give the oracle's report, as
   [pp_etob_report] prints it (every message of every verdict, both
   taus). *)
let report_as_oracle ?pattern ~n trace =
  let pattern = Option.value pattern ~default:(Failures.none ~n) in
  let report = Properties.etob_report (Properties.etob_run_of_trace pattern trace) in
  let expected =
    Properties_oracle.etob_report (Properties_oracle.etob_run_of_trace pattern trace)
  in
  Alcotest.(check string) "report as the oracle's"
    (Format.asprintf "%a" Properties.pp_etob_report expected)
    (Format.asprintf "%a" Properties.pp_etob_report report);
  report

(* Revisions as Dseq values, so an extension can share its predecessor. *)
let deliveries_trace ~n deliveries broadcasts =
  outputs_trace ~n
    (List.map (fun (t, p, m) -> (t, p, Etob_intf.Etob_broadcast m)) broadcasts
     @ List.map (fun (t, p, seq) -> (t, p, Etob_intf.Etob_deliver seq)) deliveries)

(* [orders_agree] reads the first sequence in order and the second by
   first positions: a repeated common id disagrees in the first and is
   ignored in the second.  Total order asks it of each pair of correct
   processes, the earlier one first, whether the repeat comes in one
   revision, as an extension, or before the other process holds the id. *)
let test_checker_repeat_asymmetry () =
  let x = msg 0 0 and y = msg 1 0 and z = msg 2 0 in
  Alcotest.(check bool) "repeat in the first" false (Properties.orders_agree [ x; y; x ] [ x; y ]);
  Alcotest.(check bool) "repeat in the second" true (Properties.orders_agree [ x; y ] [ x; y; x ]);
  Alcotest.(check bool) "oracle: repeat in the first" false
    (Properties_oracle.orders_agree [ x; y; x ] [ x; y ]);
  Alcotest.(check bool) "oracle: repeat in the second" true
    (Properties_oracle.orders_agree [ x; y ] [ x; y; x ]);
  let tau deliveries =
    let trace =
      synthetic_trace deliveries [ (1, 0, x); (1, 1, y); (1, 0, z) ] ~n:2
    in
    (report_as_oracle ~n:2 trace).Properties.tau_total_order
  in
  Alcotest.(check int) "p0 repeats x" 11 (tau [ (10, 0, [ x; y; x ]); (10, 1, [ x; y ]) ]);
  Alcotest.(check int) "p1 repeats x" 0 (tau [ (10, 0, [ x; y ]); (10, 1, [ x; y; x ]) ]);
  Alcotest.(check int) "p0 repeats x by extension" 9
    (tau [ (5, 0, [ x; y ]); (5, 1, [ x; y ]); (8, 0, [ x; y; x ]) ]);
  Alcotest.(check int) "p1 repeats x by extension" 0
    (tau [ (5, 0, [ x; y ]); (5, 1, [ x; y ]); (8, 1, [ x; y; x ]) ]);
  Alcotest.(check int) "p1 gains the id p0 repeats" 9
    (tau [ (5, 0, [ x; z; x ]); (5, 1, [ z ]); (8, 1, [ z; x ]) ]);
  Alcotest.(check int) "p0 gains the id p1 repeats" 0
    (tau [ (5, 0, [ z ]); (5, 1, [ z; x; x ]); (8, 0, [ z; x ]) ])

(* Total order is checked at every revision time, a faulty process's
   included: p2 (faulty) revises alone at 15 while p0 and p1 still
   disagree, so tau is 16, not 11. *)
let test_checker_faulty_tick () =
  let a = msg 0 0 and b = msg 1 0 in
  let trace =
    synthetic_trace
      [ (10, 0, [ a; b ]); (10, 1, [ b; a ]); (15, 2, [ a ]); (20, 1, [ a; b ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:3
  in
  let pattern = Failures.crash_at (Failures.none ~n:3) 2 100 in
  Alcotest.(check int) "tau" 16
    (report_as_oracle ~pattern ~n:3 trace).Properties.tau_total_order

(* Several revisions of one process in one tick: each is checked (c,
   never broadcast, is held only by the middle one), but total order
   reads the last one, which agrees again. *)
let test_checker_revisions_in_one_tick () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  let first = Dseq.of_list [ b; a ] in
  let trace =
    deliveries_trace ~n:2
      [ (5, 0, first); (5, 1, first);
        (10, 0, Dseq.of_list [ a; b ]);
        (10, 0, Dseq.of_list [ a; b; c ]);
        (10, 0, first) ]
      [ (1, 0, a); (1, 1, b) ]
  in
  let report = report_as_oracle ~n:2 trace in
  Alcotest.(check int) "total order" 0 report.Properties.tau_total_order;
  Alcotest.(check int) "stability" 10 report.Properties.tau_stability;
  check_violations "no-creation"
    [ "no-creation: p2#0 in d_p0 at 10 was never broadcast" ]
    report.Properties.no_creation

(* A revision that repeats an id with other deps keeps nothing of the one
   before: b' reuses b's id and now depends on c, which follows it. *)
let test_checker_id_reused_with_other_deps () =
  let a = msg 0 0 and c = msg 2 0 in
  let b = msg 1 0 ~deps:[ App_msg.id a ] and b' = msg 1 0 ~deps:[ App_msg.id c ] in
  let first = Dseq.of_list [ a; b ] in
  let trace =
    deliveries_trace ~n:3
      [ (5, 0, first); (8, 0, Dseq.of_list [ a; b'; c ]) ]
      [ (1, 0, a); (2, 1, b); (3, 2, c) ]
  in
  check_violations "causal order"
    [ "causal-order: dep p2#0 after p1#0{<-p2#0} in d_p0 at 8" ]
    (report_as_oracle ~n:3 trace).Properties.causal_order

(* A message delivered before its broadcast is flagged at each revision
   before the broadcast time and not after it; one never broadcast at
   every revision that holds it. *)
let test_checker_delivery_before_broadcast () =
  let a = msg 0 0 and b = msg 1 0 in
  let first = Dseq.of_list [ a ] in
  let second = Dseq.append first [ b ] in
  let trace =
    deliveries_trace ~n:2
      [ (3, 1, first); (4, 1, second); (5, 0, first); (6, 1, second) ]
      [ (5, 0, a) ]
  in
  check_violations "no-creation"
    [ "no-creation: p0#0 in d_p1 at 3 but broadcast at 5";
      "no-creation: p0#0 in d_p1 at 4 but broadcast at 5";
      "no-creation: p1#0 in d_p1 at 4 was never broadcast";
      "no-creation: p1#0 in d_p1 at 6 was never broadcast" ]
    (report_as_oracle ~n:2 trace).Properties.no_creation

(* A violation that a later revision keeps is reported again at that
   revision, in position order; a dependency that arrives after its
   dependant is a violation from that revision on. *)
let test_checker_kept_violations () =
  let a = msg 0 0 and c = msg 2 0 in
  let b = msg 1 0 ~deps:[ App_msg.id a; App_msg.id c ] in
  let p0_first = Dseq.of_list [ b; a ] in
  let p0_second = Dseq.append p0_first [ c ] in
  let p1_first = Dseq.of_list [ a; a ] in
  let p2_first = Dseq.of_list [ b ] in
  let p2_second = Dseq.append p2_first [ c ] in
  let trace =
    deliveries_trace ~n:3
      [ (5, 0, p0_first); (5, 1, p1_first); (5, 2, p2_first);
        (7, 0, p0_second); (7, 1, Dseq.append p1_first [ c ]);
        (7, 2, p2_second); (9, 2, Dseq.append p2_second [ a ]) ]
      [ (1, 0, a); (2, 1, b); (3, 2, c) ]
  in
  let report = report_as_oracle ~n:3 trace in
  (* Format breaks the line after the comma of b's deps. *)
  let b_text = "p1#0{<-p0#0,\np2#0}" in
  check_violations "causal order"
    [ "causal-order: dep p0#0 after " ^ b_text ^ " in d_p0 at 5";
      "causal-order: dep p0#0 after " ^ b_text ^ " in d_p0 at 7";
      "causal-order: dep p2#0 after " ^ b_text ^ " in d_p0 at 7";
      "causal-order: dep p2#0 after " ^ b_text ^ " in d_p2 at 7";
      "causal-order: dep p0#0 after " ^ b_text ^ " in d_p2 at 9";
      "causal-order: dep p2#0 after " ^ b_text ^ " in d_p2 at 9" ]
    report.Properties.causal_order;
  check_violations "no-duplication"
    [ "no-duplication: duplicate in d_p1 at 5: [p0#0;p0#0]";
      "no-duplication: duplicate in d_p1 at 7: [p0#0;p0#0;p2#0]" ]
    report.Properties.no_duplication

(* Every verdict of the report fails, each as the oracle's, and so do
   both commit checkers. *)
let test_checker_every_verdict_fails () =
  let a = msg 0 0 and b = msg 1 0 ~deps:[ (0, 0) ] and c = msg 2 0 in
  let b_again = msg 1 0 ~tag:"again" and never_delivered = msg 0 1 in
  let trace =
    synthetic_trace
      [ (5, 0, [ a ]); (5, 1, [ c ]); (6, 1, [ b; a; a ]); (8, 0, [ c; a ]);
        (9, 1, [ a; c; b ]) ]
      [ (1, 0, a); (2, 1, b); (3, 1, b_again); (4, 0, never_delivered) ] ~n:2
  in
  let report = report_as_oracle ~n:2 trace in
  List.iter
    (fun (name, (v : Properties.verdict)) ->
       Alcotest.(check bool) (name ^ " fails") false v.Properties.ok)
    [ ("validity", report.Properties.validity);
      ("no-creation", report.Properties.no_creation);
      ("no-duplication", report.Properties.no_duplication);
      ("agreement", report.Properties.agreement);
      ("causal-order", report.Properties.causal_order);
      ("distinct-broadcasts", report.Properties.distinct_broadcasts) ];
  Alcotest.(check int) "stability" 9 report.Properties.tau_stability;
  Alcotest.(check int) "total order" 10 report.Properties.tau_total_order;
  let committed t p seq = (t, p, Commit_prefix.Committed (Dseq.of_list seq)) in
  let commits_trace =
    outputs_trace ~n:2 [ committed 5 0 [ a ]; committed 7 1 [ c ]; committed 9 0 [ c ] ]
  in
  let commits = Properties.commit_run_of_trace (Failures.none ~n:2) commits_trace
  and whole = Properties_oracle.commit_run_of_trace (Failures.none ~n:2) commits_trace in
  let etob = Properties.etob_run_of_trace (Failures.none ~n:2) trace
  and whole_etob = Properties_oracle.etob_run_of_trace (Failures.none ~n:2) trace in
  let stability = Properties.check_commit_stability commits in
  check_violations "commit stability"
    [ "commit-stability: commitment at p0 revised at 9" ] stability;
  Alcotest.(check (list string)) "commit stability as the oracle's"
    (Properties_oracle.check_commit_stability whole).Properties.violations
    stability.Properties.violations;
  let consistency = Properties.check_commit_consistent commits etob in
  Alcotest.(check bool) "commit consistency fails" false consistency.Properties.ok;
  Alcotest.(check (list string)) "commit consistency as the oracle's"
    (Properties_oracle.check_commit_consistent whole whole_etob).Properties.violations
    consistency.Properties.violations


let test_checker_commit_stability_message () =
  let a = msg 0 0 and b = msg 1 0 in
  let committed t p seq = (t, p, Commit_prefix.Committed (Dseq.of_list seq)) in
  let trace =
    outputs_trace ~n:2
      [ committed 5 0 [ a ]; committed 8 1 [ a ]; committed 10 0 [ b ];
        committed 12 0 [ b; a ]; committed 14 1 [ b ] ]
  in
  let commits = Properties.commit_run_of_trace (Failures.none ~n:2) trace in
  check_violations "rolled back"
    [ "commit-stability: commitment at p0 revised at 10";
      "commit-stability: commitment at p1 revised at 14" ]
    (Properties.check_commit_stability commits);
  Alcotest.(check int) "final committed" 2 (Properties.committed_count commits 0)

(* --- Trace text against the Format oracle ---------------------------- *)

(* [Trace.text] against [Trace_pp_oracle] on a hand-built trace: per
   process, revisions that extend the last one (shared or rebuilt), one
   that truncates, committed prefixes beside d_i, and a revision that
   repeats an id with other deps, as a replica restarted without its log
   does.  A writer that compared ids alone would reuse the old text of
   that message. *)
let test_trace_text_hand_built () =
  let a = msg 0 0 and b = msg 1 0 ~deps:[ (0, 0) ] in
  let c = msg 2 0 ~deps:[ (0, 0); (1, 0) ] in
  let b' = msg 1 0 ~deps:[ (0, 0); (2, 0) ] in
  let d0 = Dseq.of_list [ a ] in
  let deliver t p seq = (t, p, Etob_intf.Etob_deliver seq) in
  let trace =
    outputs_trace ~n:3
      [ deliver 1 0 d0;
        deliver 2 1 (Dseq.of_list [ a; b ]);
        deliver 3 0 (Dseq.append d0 [ b; c ]);
        deliver 4 1 (Dseq.of_list [ a; b'; c ]);
        deliver 5 1 (Dseq.of_list [ a; b' ]);
        deliver 5 2 (Dseq.of_list [ c; a ]);
        deliver 6 2 (Dseq.of_list [ c; a; b ]);
        (7, 0, Commit_prefix.Committed d0);
        (8, 0, Commit_prefix.Committed (Dseq.of_list [ a; b ]));
        (9, 1, Etob_intf.Etob_broadcast c) ]
  in
  Trace.record_input trace ~time:9 ~proc:1 (Etob_intf.Broadcast_etob c);
  Alcotest.(check string) "text" (Trace_pp_oracle.text trace) (Trace.text trace);
  Alcotest.(check string) "pp prints the text" (Trace.text trace)
    (Format.asprintf "%a" Trace.pp trace)

let test_trace_text_empty () =
  let trace = Trace.create ~n:2 in
  Alcotest.(check string) "text"
    "\n(sent=0 delivered=0 dropped=0 steps=0 end=0)" (Trace.text trace);
  Alcotest.(check string) "oracle" (Trace_pp_oracle.text trace) (Trace.text trace)

(* --- Trace digest at the block edges -------------------------------- *)

(* [Trace.digest] renders the text in blocks of 4,096 bytes (a block
   flushes after the entry that fills it) and hashes each one as it goes.
   It must be the MD5 of the whole text, whichever entry a block edge
   falls in or after. *)
let check_digest name trace =
  let text = Trace.text trace in
  Alcotest.(check string) (name ^ ": text") (Trace_pp_oracle.text trace) text;
  Alcotest.(check string) (name ^ ": digest")
    (Digest.to_hex (Digest.string text)) (Trace.digest trace)

let test_trace_digest_empty () = check_digest "empty" (Trace.create ~n:2)

(* One d_i revision of 1,500 messages, each with deps: its text is many
   blocks long, and the writer's second revision reuses it. *)
let long_revision_trace () =
  let msgs =
    List.init 1_500 (fun i ->
        if i < 2 then msg 0 i else msg (i mod 3) i ~deps:[ (0, 0); (1, i - 1) ])
  in
  let d = Dseq.of_list msgs in
  outputs_trace ~n:3
    [ (1, 0, Etob_intf.Etob_deliver d);
      (2, 1, Etob_intf.Etob_deliver (Dseq.append d [ msg 2 1_500 ])) ]

let test_trace_digest_long_revision () =
  let trace = long_revision_trace () in
  Alcotest.(check bool) "spans blocks" true (String.length (Trace.text trace) > 8 * 4096);
  check_digest "long revision" trace

(* Traces of [String_output]s, the first [first] bytes long up to the end
   of its entry, the whole text [len] bytes long: [first] and [len] land
   one byte before a block edge or 0-64 bytes past it.  The first flush
   ends with the first entry, so it ends at every offset 0-63 into an
   MD5 block, and the hash carries every length of unfinished block into
   the next update. *)
let string_trace strings =
  outputs_trace ~n:1 (List.mapi (fun t s -> (t, 0, Io.String_output s)) strings)

let sized_trace ?first len =
  let pad k = String.make k 'x' in
  let entry_len = String.length "[   0] p0 -> out:" in
  let strings =
    match first with
    | None -> [ "" ]
    | Some first -> [ pad (first - entry_len); "" ]
  in
  let base = String.length (Trace.text (string_trace strings)) in
  let last = List.length strings - 1 in
  string_trace (List.mapi (fun i s -> if i = last then pad (len - base) else s) strings)

let test_trace_digest_block_edges () =
  List.iter
    (fun k ->
       List.iter
         (fun d ->
            let edge = (k * 4096) + d in
            let whole = sized_trace edge in
            Alcotest.(check int) "text length" edge (String.length (Trace.text whole));
            check_digest (Printf.sprintf "text of %d bytes" edge) whole;
            let split = sized_trace ~first:edge (edge + 100) in
            Alcotest.(check int) "first entry's length" edge
              (String.index (Trace.text split) '\n');
            check_digest (Printf.sprintf "first entry ends at %d" edge) split)
         (List.init 66 (fun d -> d - 1)))
    [ 1; 2; 3 ]

(* Any trace of [String_output]s, 0-9,000 bytes each, digests to the MD5
   of its text. *)
let prop_trace_digest_random_lengths =
  QCheck.Test.make ~name:"trace digest: MD5 of the text for any output lengths"
    ~count:200
    QCheck.(
      make
        ~print:(fun strings -> Print.(list int) (List.map String.length strings))
        Gen.(list_size (int_bound 12) (string_size ~gen:printable (int_bound 9_000))))
    (fun strings ->
       let trace = string_trace strings in
       Trace.digest trace = Digest.to_hex (Digest.string (Trace.text trace)))

(* The digest of a fixed trace, pinned: it would move if the runtime's MD5
   entry points hashed other bytes than [Digest.string] does. *)
let test_trace_digest_pinned () =
  Alcotest.(check string) "digest" "c90f9d9f6d4501112c29ee240261f485"
    (Trace.digest (long_revision_trace ()))

let test_checker_ec_report_messages () =
  let layer = Ec_intf.default_layer in
  let proposed t p instance v =
    (t, p, Ec_intf.Proposed_ec { layer; instance; value = Value.Num v })
  and decided ?(layer = layer) t p instance v =
    (t, p, Ec_intf.Decide_ec { layer; instance; value = Value.Num v })
  in
  let trace =
    outputs_trace ~n:2
      [ proposed 1 0 1 7; decided 5 0 1 7; decided 6 1 1 9; decided 7 0 1 7;
        decided 8 1 2 7; decided ~layer:"other" 9 0 2 7 ]
  in
  let run = Properties.ec_run_of_trace (Failures.none ~n:2) trace in
  let report = Properties.ec_report run ~instances:2 in
  check_violations "integrity"
    [ "ec-integrity: p0 decided instance 1 twice (at 7)" ]
    report.Properties.integrity;
  check_violations "validity"
    [ "ec-validity: p1 decided 9 for instance 1 at 6, never proposed";
      "ec-validity: p1 decided 7 for instance 2 at 8, never proposed" ]
    report.Properties.ec_validity;
  check_violations "termination"
    [ "ec-termination: p0 never decided instance 2" ]
    report.Properties.termination;
  Alcotest.(check int) "agreement index" 2 report.Properties.agreement_index;
  Alcotest.(check (list int)) "instances" [ 1; 2 ] (Properties.decided_instances run)

let test_checker_eic_messages () =
  let proposed t p instance v =
    (t, p, Eic_intf.Proposed_eic { instance; value = Value.Num v })
  and responded t p instance v =
    (t, p, Eic_intf.Decide_eic { instance; value = Value.Num v })
  in
  let trace =
    outputs_trace ~n:2
      [ proposed 1 0 1 7; proposed 1 1 1 8; responded 5 0 1 7; responded 6 1 1 8;
        responded 7 1 1 9; responded 8 0 2 7 ]
  in
  let run = Properties.eic_run_of_trace (Failures.none ~n:2) trace in
  check_violations "validity"
    [ "eic-validity: p1 responded 9 for instance 1 at 7, never proposed";
      "eic-validity: p0 responded 7 for instance 2 at 8, never proposed" ]
    (Properties.check_eic_validity run);
  check_violations "termination"
    [ "eic-termination: p1 never responded to instance 2" ]
    (Properties.check_eic_termination run ~instances:2);
  check_violations "agreement"
    [ "eic-agreement: final responses differ for instance 1" ]
    (Properties.check_eic_agreement run);
  Alcotest.(check int) "revocations" 1 (Properties.eic_revocation_count run);
  Alcotest.(check int) "integrity index" 2 (Properties.eic_integrity_index run)

let test_checker_report_text () =
  let a = msg 0 0 in
  let b = msg 1 0 ~deps:[ App_msg.id a ] in
  let trace =
    synthetic_trace
      [ (5, 0, [ a ]); (6, 1, [ a; a ]); (8, 0, [ b; a ]) ]
      [ (1, 0, a); (2, 1, b) ] ~n:2
  in
  let report =
    Properties.etob_report (Properties.etob_run_of_trace (Failures.none ~n:2) trace)
  in
  let validity = "validity: p1#0{<-p0#0} broadcast by p1 at 2 missing from its final d"
  and duplication = "no-duplication: duplicate in d_p1 at 6: [p0#0;p0#0]"
  and agreement = "agreement: p1#0{<-p0#0} in final d_p0 but not in final d_p1"
  and causal = "causal-order: dep p0#0 after p1#0{<-p0#0} in d_p0 at 8" in
  Alcotest.(check string) "pp_etob_report"
    (String.concat "\n"
       [ "validity: FAIL:"; "          " ^ validity;
         "no-creation: ok";
         "no-duplication: FAIL:"; "                " ^ duplication;
         "agreement: FAIL:"; "           " ^ agreement;
         "causal-order: FAIL:"; "              " ^ causal;
         "distinct-broadcasts: ok";
         "tau(stability)=8 tau(total-order)=0" ])
    (Format.asprintf "%a" Properties.pp_etob_report report);
  Alcotest.(check (list string)) "etob_violations"
    [ validity; duplication; agreement; causal; "tau-stability: tau=8 exceeds bound 0" ]
    (Properties.etob_violations ~tau_bound:0 report)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_linearize_valid; prop_linearize_tie_break_independent;
        prop_linearize_monotone; prop_cg_matches_oracle;
        prop_promote_fresh_matches_oracle ]
  in
  let qc_runs = List.map QCheck_alcotest.to_alcotest
      [ prop_ec_omega_any_environment; prop_etob_omega_random_runs;
        prop_commit_safety_random_crashes; prop_full_stack_chaos;
        prop_alg5_matches_oracle ]
  in
  Alcotest.run "ec_core"
    [ ("app_msg",
       [ Alcotest.test_case "identity" `Quick test_app_msg_identity;
         Alcotest.test_case "prefix" `Quick test_app_msg_prefix ]
       @ List.map QCheck_alcotest.to_alcotest
           [ prop_printers_match_oracle; prop_planted_break_caught ]);
      ("dseq", [ QCheck_alcotest.to_alcotest prop_dseq_matches_lists ]);
      ("trace text",
       [ Alcotest.test_case "hand-built trace" `Quick test_trace_text_hand_built;
         Alcotest.test_case "empty trace" `Quick test_trace_text_empty ]);
      ("trace digest",
       [ Alcotest.test_case "empty trace" `Quick test_trace_digest_empty;
         Alcotest.test_case "revision over several blocks" `Quick
           test_trace_digest_long_revision;
         Alcotest.test_case "texts at block edges" `Quick test_trace_digest_block_edges;
         Alcotest.test_case "pinned digest" `Quick test_trace_digest_pinned;
         QCheck_alcotest.to_alcotest prop_trace_digest_random_lengths ]);
      ("value",
       [ Alcotest.test_case "tag roundtrip" `Quick test_value_tag_roundtrip;
         Alcotest.test_case "tag rejects seq" `Quick test_value_tag_rejects_seq;
         Alcotest.test_case "compare total" `Quick test_value_compare_total;
         QCheck_alcotest.to_alcotest prop_value_text_matches_pp ]);
      ("causal_graph",
       [ Alcotest.test_case "respects deps" `Quick test_cg_linearize_respects_deps;
         Alcotest.test_case "prefix kept" `Quick test_cg_prefix_kept;
         Alcotest.test_case "union commutative" `Quick test_cg_union_commutative_content;
         Alcotest.test_case "idempotent add" `Quick test_cg_idempotent_add ]
       @ qc);
      ("ec_omega (algorithm 4)",
       [ Alcotest.test_case "stable leader" `Quick test_ec_omega_stable_leader;
         Alcotest.test_case "late stabilization" `Quick test_ec_omega_late_stabilization;
         Alcotest.test_case "no correct majority" `Quick test_ec_omega_no_majority;
         Alcotest.test_case "rotating prefix" `Quick test_ec_omega_rotating_prefix;
         Alcotest.test_case "minimum system size (n=2)" `Quick
           test_minimum_system_size ]);
      ("etob_omega (algorithm 5)",
       [ Alcotest.test_case "failure-free run" `Quick test_etob_omega_failure_free;
         Alcotest.test_case "strong TOB with stable omega (P2)" `Quick
           test_etob_omega_strong_tob_with_stable_omega;
         Alcotest.test_case "partition convergence + Lemma 3 bound" `Quick
           test_etob_omega_partition_convergence;
         Alcotest.test_case "no correct majority" `Quick test_etob_omega_no_majority;
         Alcotest.test_case "two-step latency (P1)" `Quick
           test_etob_omega_two_step_latency;
         Alcotest.test_case "over elected omega" `Quick
           test_etob_omega_with_elected_omega ]);
      ("service details",
       [ Alcotest.test_case "fresh_msg causal deps" `Quick test_fresh_msg_causal_deps;
         Alcotest.test_case "EIC driven by inputs" `Quick test_eic_input_driven ]);
      ("binary lift ([23])",
       [ Alcotest.test_case "stable leader" `Quick test_binary_lift_stable_leader;
         Alcotest.test_case "late stabilization" `Quick
           test_binary_lift_late_stabilization;
         Alcotest.test_case "with crash" `Quick test_binary_lift_with_crash ]);
      ("transformations (theorem 1)",
       [ Alcotest.test_case "algorithm 2 tag roundtrip" `Quick
           test_etob_to_ec_tag_roundtrip;
         Alcotest.test_case "algorithm 2 tag rejects garbage" `Quick
           test_etob_to_ec_tag_rejects_garbage;
         Alcotest.test_case "algorithm 1 over 4 is ETOB" `Quick
           test_alg1_over_alg4_is_etob;
         Alcotest.test_case "algorithm 2 over 5 is EC" `Quick test_alg2_over_alg5_is_ec;
         Alcotest.test_case "algorithm 2 over paxos is consensus" `Quick
           test_alg2_over_paxos_is_consensus ]);
      ("gossip baseline (no omega)",
       [ Alcotest.test_case "converges but never stabilizes" `Quick
           test_gossip_baseline_converges_but_never_stabilizes ]);
      ("commit_prefix (section 7)",
       [ Alcotest.test_case "stable period commits everything" `Quick
           test_commit_prefix_stable_period;
         Alcotest.test_case "commit follows delivery" `Quick
           test_commit_prefix_latency_after_delivery;
         Alcotest.test_case "abstains without majority" `Quick
           test_commit_prefix_abstains_without_majority;
         Alcotest.test_case "partition: majority side only" `Quick
           test_commit_prefix_partition_commits_majority_side_only ]);
      ("eic (appendix A)",
       [ Alcotest.test_case "algorithm 6 gives EIC" `Quick test_alg6_gives_eic;
         Alcotest.test_case "revocations happen and stop" `Quick
           test_alg6_revokes_under_disagreement;
         Alcotest.test_case "algorithm 7 over 6 is EC" `Quick test_alg7_over_alg6_is_ec ]);
      ("property checkers",
       [ Alcotest.test_case "flags duplication" `Quick test_checker_flags_duplication;
         Alcotest.test_case "flags creation" `Quick test_checker_flags_creation;
         Alcotest.test_case "flags causal violation" `Quick
           test_checker_flags_causal_violation;
         Alcotest.test_case "measures stability tau" `Quick
           test_checker_measures_stability_tau;
         Alcotest.test_case "measures total-order tau" `Quick
           test_checker_measures_total_order_tau;
         Alcotest.test_case "orders_agree" `Quick test_checker_orders_agree;
         Alcotest.test_case "agreement flags missing" `Quick
           test_checker_agreement_flags_missing;
         Alcotest.test_case "commit-stability message" `Quick
           test_checker_commit_stability_message;
         Alcotest.test_case "ec report messages" `Quick
           test_checker_ec_report_messages;
         Alcotest.test_case "eic messages" `Quick test_checker_eic_messages;
         Alcotest.test_case "report text" `Quick test_checker_report_text;
         Alcotest.test_case "repeat asymmetry" `Quick test_checker_repeat_asymmetry;
         Alcotest.test_case "faulty process's tick" `Quick test_checker_faulty_tick;
         Alcotest.test_case "revisions in one tick" `Quick
           test_checker_revisions_in_one_tick;
         Alcotest.test_case "id reused with other deps" `Quick
           test_checker_id_reused_with_other_deps;
         Alcotest.test_case "delivery before broadcast" `Quick
           test_checker_delivery_before_broadcast;
         Alcotest.test_case "kept violations" `Quick test_checker_kept_violations;
         Alcotest.test_case "every verdict fails" `Quick
           test_checker_every_verdict_fails ]);
      ("random runs", qc_runs);
    ]
