(* Test oracle: Ec_core.Anti_entropy as it was before its digests came
   from Causal_graph's per-origin spans: every digest and every delta
   lists the whole graph.  Only the payload constructors are renamed
   (traces record inputs and outputs, never payloads). *)

(* Anti-entropy catch-up for Algorithm 5's causality graph.

   Under the buffered partitions of Net.partitioned nothing is ever lost,
   so Algorithm 5 needs no repair: every update arrives eventually.  Lossy
   partitions (Net.lossy_partition and friends) break that: an update
   dropped on the floor is re-taught only if its content happens to ride a
   later full-graph re-gossip, i.e. only if someone on the knowing side
   broadcasts again after the heal.  This component closes the gap with
   periodic digest exchange:

   - Every [every] local timer rounds, broadcast a constant-size digest of
     the known messages: per origin, the longest contiguous
     sequence-number prefix plus the out-of-order extras.
   - A peer receiving a digest answers with exactly the messages the
     digest does not cover — an O(missing) delta, not the O(history) flood
     of re-sending the whole graph.
   - Per-peer exponential backoff (capped) keeps a slow or isolated peer
     from being re-sent the same delta every round; the backoff resets as
     soon as the peer's digest shows progress.
   - The receiver dedups: already-known messages are filtered before
     [learn], so repeated deltas are free and [learn] stays idempotent.

   [Flood] mode replaces the digest/delta pair with a periodic broadcast
   of the full message set — the strawman this layer exists to beat; bench
   E18 measures both.  The [Skip_digest] mutation never advertises its own
   digest (peers then never learn what it is missing), the negative
   control the explorer's watchdog-backed liveness targets must flag. *)

open Simulator
open Simulator.Types
open Ec_core

(* Per origin: [(origin, prefix, extras)] — every sn < prefix is known,
   plus the (sorted) extras beyond the contiguous prefix. *)
type summary = (proc_id * int * int list) list

type Msg.payload +=
  | Oracle_ae_digest of summary
  | Oracle_ae_delta of App_msg.t list
  | Oracle_ae_full of App_msg.t list

type mode = Digest | Flood

type mutation = Skip_digest

let all_mutations = [ Skip_digest ]
let mutation_name = function Skip_digest -> "skip-digest"

let mutation_of_string s =
  List.find_opt (fun m -> mutation_name m = s) all_mutations

type config = {
  mode : mode;
  every : int;  (** digest broadcast period, in local timer rounds *)
  max_backoff : int;  (** per-peer delta resend backoff cap, in rounds *)
}

let default_config = { mode = Digest; every = 3; max_backoff = 8 }

type stats = {
  digests_sent : int;  (** digest broadcasts *)
  deltas_sent : int;  (** delta messages sent (one per answered digest) *)
  delta_msgs : int;  (** application messages carried in deltas *)
  floods_sent : int;  (** full-set broadcasts (Flood mode) *)
  flood_msgs : int;  (** application messages carried in floods, per recipient *)
  learned : int;  (** previously unknown messages integrated *)
}

type t = {
  ctx : Engine.ctx;
  cfg : config;
  mutation : mutation option;
  graph : unit -> Causal_graph.t;
  learn : App_msg.t list -> unit;
  mutable rounds : int;
  (* Per peer: the ids of the last delta sent, the round from which an
     identical delta may be re-sent, and the current backoff (rounds). *)
  last_sent : App_msg.id list array;
  ok_round : int array;
  backoff : int array;
  mutable s_digests : int;
  mutable s_deltas : int;
  mutable s_delta_msgs : int;
  mutable s_floods : int;
  mutable s_flood_msgs : int;
  mutable s_learned : int;
}

let stats t =
  { digests_sent = t.s_digests;
    deltas_sent = t.s_deltas;
    delta_msgs = t.s_delta_msgs;
    floods_sent = t.s_floods;
    flood_msgs = t.s_flood_msgs;
    learned = t.s_learned }

(* [Causal_graph.messages] returns nodes in id order, so one pass groups
   consecutive runs per origin. *)
let summarize g : summary =
  let close origin sns acc =
    let sns = List.rev sns in
    let rec split prefix = function
      | sn :: rest when sn = prefix -> split (prefix + 1) rest
      | extras -> (prefix, extras)
    in
    let prefix, extras = split 0 sns in
    (origin, prefix, extras) :: acc
  in
  let rec go acc current = function
    | [] -> (match current with None -> acc | Some (o, sns) -> close o sns acc)
    | m :: rest ->
      let o = m.App_msg.origin and sn = m.App_msg.sn in
      (match current with
       | Some (o', sns) when o' = o -> go acc (Some (o, sn :: sns)) rest
       | Some (o', sns) -> go (close o' sns acc) (Some (o, [ sn ])) rest
       | None -> go acc (Some (o, [ sn ])) rest)
  in
  List.rev (go [] None (Causal_graph.messages g))

let covers (summary : summary) m =
  let rec find = function
    | [] -> false
    | (o, prefix, extras) :: rest ->
      if o = m.App_msg.origin then
        m.App_msg.sn < prefix || List.mem m.App_msg.sn extras
      else find rest
  in
  find summary

(* The messages this process knows and the digest's sender does not. *)
let missing_for t summary =
  List.filter (fun m -> not (covers summary m))
    (Causal_graph.messages (t.graph ()))

let send_delta t dst missing =
  t.s_deltas <- t.s_deltas + 1;
  t.s_delta_msgs <- t.s_delta_msgs + List.length missing;
  t.ctx.Engine.send dst (Oracle_ae_delta missing)

let on_digest t ~src summary =
  if src <> t.ctx.Engine.self then begin
    match missing_for t summary with
    | [] ->
      (* Peer is caught up (with us): forget the backoff state. *)
      t.last_sent.(src) <- [];
      t.backoff.(src) <- 1
    | missing ->
      let ids = List.map App_msg.id missing in
      let same_id a b = App_msg.compare_id a b = 0 in
      if not (List.equal same_id ids t.last_sent.(src)) then begin
        (* The peer's need changed (it progressed, or we learned more):
           answer immediately and restart the backoff. *)
        t.last_sent.(src) <- ids;
        t.backoff.(src) <- 1;
        t.ok_round.(src) <- t.rounds + 1;
        send_delta t src missing
      end
      else if t.rounds >= t.ok_round.(src) then begin
        (* Same delta again: the peer (or our delta) is partitioned away.
           Re-send with doubled, capped backoff rather than every round. *)
        t.backoff.(src) <- min (2 * t.backoff.(src)) t.cfg.max_backoff;
        t.ok_round.(src) <- t.rounds + t.backoff.(src);
        send_delta t src missing
      end
  end

let integrate t msgs =
  let g = t.graph () in
  let fresh =
    List.filter (fun m -> not (Causal_graph.mem g (App_msg.id m))) msgs
  in
  if fresh <> [] then begin
    t.s_learned <- t.s_learned + List.length fresh;
    t.learn fresh
  end

let create ?(config = default_config) ?mutation (ctx : Engine.ctx) ~graph
    ~learn =
  if config.every < 1 then invalid_arg "Anti_entropy: every must be >= 1";
  if config.max_backoff < 1 then
    invalid_arg "Anti_entropy: max_backoff must be >= 1";
  let t =
    { ctx;
      cfg = config;
      mutation;
      graph;
      learn;
      rounds = 0;
      last_sent = Array.make ctx.Engine.n [];
      ok_round = Array.make ctx.Engine.n 0;
      backoff = Array.make ctx.Engine.n 1;
      s_digests = 0;
      s_deltas = 0;
      s_delta_msgs = 0;
      s_floods = 0;
      s_flood_msgs = 0;
      s_learned = 0 }
  in
  let on_timer () =
    t.rounds <- t.rounds + 1;
    let skip_digest =
      match t.mutation with Some Skip_digest -> true | None -> false
    in
    if t.rounds mod t.cfg.every = 0 && not skip_digest then
      match t.cfg.mode with
      | Digest ->
        t.s_digests <- t.s_digests + 1;
        ctx.Engine.broadcast (Oracle_ae_digest (summarize (t.graph ())))
      | Flood ->
        let msgs = Causal_graph.messages (t.graph ()) in
        if msgs <> [] then begin
          t.s_floods <- t.s_floods + 1;
          t.s_flood_msgs <- t.s_flood_msgs + (List.length msgs * ctx.Engine.n);
          ctx.Engine.broadcast (Oracle_ae_full msgs)
        end
  in
  let on_message ~src payload =
    match payload with
    | Oracle_ae_digest summary -> on_digest t ~src summary
    | Oracle_ae_delta msgs | Oracle_ae_full msgs ->
      if src <> ctx.Engine.self then integrate t msgs
    | _ -> ()
  in
  let node =
    { Engine.on_message; on_timer; on_input = (fun _ -> ()) }
  in
  (t, node)
