(* Test oracle: Algorithm 5 as it was written before UpdatePromote became
   incremental, over the whole-history [Causal_graph_oracle].  Every
   update merges whole graphs, restricts to the ready part by fixpoint and
   re-linearizes from the previous promotion; every promote is compared
   with d_i by polymorphic structural equality.  test_core runs it beside
   [Ec_core.Etob_omega] on random adversarial runs and requires identical
   traces.  Crash-recovery ([restore]) and anti-entropy ([learn]) are
   left out: the runs it is compared on are crash-stop. *)

open Simulator
open Ec_core
module Cg = Causal_graph_oracle

type Msg.payload +=
  | Oracle_update of Cg.t
  | Oracle_promote of App_msg.t list

type t = {
  backend : Etob_intf.backend;
  mutation : Etob_omega.mutation option;
  mutable cg : Cg.t;
  mutable promote : App_msg.t list;
}

let update_promote t =
  let promotable =
    match t.mutation with
    | Some Etob_omega.Skip_dependency_wait -> t.cg
    | _ -> Cg.ready t.cg
  in
  let prefix =
    match t.mutation with
    | Some Etob_omega.Forget_promote_prefix -> []
    | _ -> t.promote
  in
  t.promote <- Cg.linearize promotable ~prefix

let create ?mutation (ctx : Engine.ctx) ~omega =
  let stale_guard =
    match mutation with Some Etob_omega.Disable_stale_guard -> false | _ -> true
  in
  let t = { backend = Etob_intf.backend ctx; mutation; cg = Cg.empty; promote = [] } in
  let broadcast m =
    Etob_intf.record_broadcast t.backend m;
    t.cg <- Cg.add t.cg m;
    ctx.Engine.broadcast (Oracle_update t.cg)
  in
  let on_message ~src payload =
    match payload with
    | Oracle_update cg_j ->
      (match t.mutation with
       | Some Etob_omega.Drop_graph_union -> t.cg <- cg_j
       | _ -> t.cg <- Cg.union t.cg cg_j);
      update_promote t
    | Oracle_promote promote_j ->
      if omega () = src
      && promote_j <> Etob_intf.current_of t.backend
      && not (stale_guard
              && App_msg.is_prefix promote_j (Etob_intf.current_of t.backend))
      then Etob_intf.set_delivered t.backend promote_j
    | _ -> ()
  in
  let on_timer () =
    if omega () = ctx.Engine.self then ctx.Engine.broadcast (Oracle_promote t.promote)
  in
  let on_input = function
    | Etob_intf.Broadcast_etob m -> broadcast m
    | _ -> ()
  in
  ( Etob_intf.service_of t.backend ~broadcast,
    { Engine.on_message; on_timer; on_input } )
