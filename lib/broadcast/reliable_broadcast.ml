(* Reliable broadcast over reliable point-to-point links.

   Guarantees (for crash failures): validity (a correct broadcaster's message
   is delivered by every correct process), agreement (if any correct process
   delivers m, all correct processes deliver m — achieved by eager relaying
   on first receipt), integrity (no duplication, no creation).  This is the
   classical eager-push algorithm; it is the substrate under the "Send(m) to
   all" clauses of Algorithms 1 and 4 whenever uniformity matters. *)

open Simulator
open Simulator.Types

type Msg.payload += Rb of { origin : proc_id; sn : int; inner : Msg.payload }

type t = {
  ctx : Engine.ctx;
  mutable next_sn : int;
  seen : (proc_id * int, unit) Hashtbl.t;
}

let create (ctx : Engine.ctx) ~deliver =
  let t = { ctx; next_sn = 0; seen = Hashtbl.create 64 } in
  let handle ~relay origin sn inner =
    if not (Hashtbl.mem t.seen (origin, sn)) then begin
      Hashtbl.add t.seen (origin, sn) ();
      if relay then ctx.Engine.broadcast (Rb { origin; sn; inner });
      deliver ~origin ~sn inner
    end
  in
  let on_message ~src:_ payload =
    match payload with
    | Rb { origin; sn; inner } -> handle ~relay:true origin sn inner
    | _ -> ()
  in
  let node = { Engine.on_message; on_timer = (fun () -> ()); on_input = (fun _ -> ()) } in
  (t, node)

let broadcast t inner =
  let sn = t.next_sn in
  t.next_sn <- sn + 1;
  t.ctx.Engine.broadcast (Rb { origin = t.ctx.Engine.self; sn; inner })

let () =
  Msg.register_payload_pp (fun ppf -> function
    | Rb { origin; sn; inner } ->
      Fmt.pf ppf "rb(%a#%d,%a)" pp_proc origin sn Msg.pp_payload inner; true
    | _ -> false)
