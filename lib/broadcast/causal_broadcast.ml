(* Causal-order broadcast: deliveries respect happens-before.

   The classical vector-clock algorithm: each broadcast carries the sender's
   vector clock; receivers hold back a message until every causally earlier
   broadcast has been delivered.  Built on reliable broadcast so that
   agreement holds (all correct processes deliver the same message set).

   This is a substrate: the ETOB algorithm of Section 5 carries explicit
   dependency sets in its causality graph instead, but the run checkers use
   both encodings to cross-validate the TOB-Causal-Order property. *)

open Simulator
open Simulator.Types

type Msg.payload += Cb of { origin : proc_id; vc : Vector_clock.t; inner : Msg.payload }

type pending = { p_origin : proc_id; p_vc : Vector_clock.t; p_inner : Msg.payload }

type t = {
  ctx : Engine.ctx;
  rb : Reliable_broadcast.t;
  mutable clock : Vector_clock.t;
  mutable holdback : pending list;
}

(* m is deliverable at state V iff vc.(origin) = V.(origin) + 1 and
   vc.(k) <= V.(k) for every k <> origin. *)
let deliverable clock p =
  let n = Vector_clock.size clock in
  let ok_origin = Vector_clock.get p.p_vc p.p_origin = Vector_clock.get clock p.p_origin + 1 in
  let rec others k =
    k >= n
    || ((k = p.p_origin || Vector_clock.get p.p_vc k <= Vector_clock.get clock k)
        && others (k + 1))
  in
  ok_origin && others 0

let create (ctx : Engine.ctx) ~deliver =
  let holder = ref None in
  let rec flush t =
    match List.find_opt (deliverable t.clock) t.holdback with
    | None -> ()
    | Some p ->
      (* detlint: allow D5 removes exactly the cell find_opt returned; structural <> would also drop distinct holdback entries that happen to be equal *)
      t.holdback <- List.filter (fun q -> q != p) t.holdback;
      t.clock <- Vector_clock.tick t.clock p.p_origin;
      deliver ~origin:p.p_origin ~vc:p.p_vc p.p_inner;
      flush t
  in
  let on_rb_deliver ~origin:_ ~sn:_ inner =
    match !holder, inner with
    | Some t, Cb { origin; vc; inner } ->
      t.holdback <- { p_origin = origin; p_vc = vc; p_inner = inner } :: t.holdback;
      flush t
    | _, _ -> ()
  in
  let rb, rb_node = Reliable_broadcast.create ctx ~deliver:on_rb_deliver in
  let t =
    { ctx; rb;
      clock = Vector_clock.zero ~n:ctx.Engine.n;
      holdback = [] }
  in
  holder := Some t;
  (t, rb_node)

let broadcast t inner =
  let vc = Vector_clock.tick t.clock t.ctx.Engine.self in
  Reliable_broadcast.broadcast t.rb (Cb { origin = t.ctx.Engine.self; vc; inner })

let () =
  Msg.register_payload_pp (fun ppf -> function
    | Cb { origin; vc; inner } ->
      Fmt.pf ppf "cb(%a,%a,%a)" pp_proc origin Vector_clock.pp vc Msg.pp_payload inner;
      true
    | _ -> false)
