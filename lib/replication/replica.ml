(* A replica: a deterministic state machine driven by an (E)TOB service.

   This is the paper's "eventually consistent replicated service": the
   replica applies, at every moment, the command sequence currently
   delivered by the broadcast layer.  With ETOB the applied sequence (and
   hence the state) may be revised while leaders disagree; once the
   underlying broadcast stabilizes, all replicas apply the same growing
   sequence and the service is consistent from then on.  With the strong
   TOB baseline underneath, the very same replica code is a classical
   (strongly consistent) replicated state machine — the computational gap
   between the two is exactly the subject of the paper. *)

open Simulator

type Io.input += Submit of Command.t

type Io.output += Applied of { machine : string; count : int; digest : string }

(* The fold of a delivered sequence, kept position by position so that a
   revision pays only for what it adds.  Position [i < len] holds the
   decoded command at [i] of the last folded sequence ([None] when its
   tag does not decode) and the state and command count after positions
   [0..i].  A revision that keeps the last sequence ([Ec_core.Dseq.delta]:
   the same messages, tags included) decodes and applies only the
   messages past it; any other is refolded from [M.init].  Comparing
   whole messages keeps the fold exact where an id comes back with
   another tag, as from a replica restarted without durable state. *)
module Fold (M : Machines.MACHINE) = struct
  type step = {
    cmd : Command.t option;
    state : M.state;
    count : int;
  }

  type t = {
    mutable steps : step array;  (* capacity; [0, len) is the fold *)
    mutable len : int;
    mutable last : Ec_core.Dseq.t;  (* the sequence folded *)
    mutable log : Command.t list option;  (* decoded commands, built on demand *)
  }

  let create () = { steps = [||]; len = 0; last = Ec_core.Dseq.empty; log = None }

  let state t = if t.len = 0 then M.init else t.steps.(t.len - 1).state
  let count t = if t.len = 0 then 0 else t.steps.(t.len - 1).count

  let push t (m : Ec_core.App_msg.t) =
    let cmd = Command.of_tag m.tag in
    let state, count =
      match cmd with
      | None -> (state t, count t)
      | Some c -> (M.apply (state t) c, count t + 1)
    in
    let step = { cmd; state; count } in
    if t.len = Array.length t.steps then begin
      let steps = Array.make (max 16 (2 * t.len)) step in
      Array.blit t.steps 0 steps 0 t.len;
      t.steps <- steps
    end;
    t.steps.(t.len) <- step;
    t.len <- t.len + 1

  let update t seq =
    let kept, fresh = Ec_core.Dseq.delta t.last seq in
    t.last <- seq;
    match fresh with
    | [] when kept = t.len -> ()  (* the same sequence again *)
    | _ ->
      t.len <- kept;
      t.log <- None;
      List.iter (push t) fresh

  let log t =
    match t.log with
    | Some log -> log
    | None ->
      let rec build i acc =
        if i < 0 then acc
        else
          build (i - 1)
            (match t.steps.(i).cmd with Some c -> c :: acc | None -> acc)
      in
      let log = build (t.len - 1) [] in
      t.log <- Some log;
      log
end

module Make (M : Machines.MACHINE) = struct
  module F = Fold (M)

  type t = {
    etob : Ec_core.Etob_intf.service;
    ctx : Engine.ctx;
    fold : F.t;  (* of the delivered sequence *)
  }

  let on_deliver t seq =
    F.update t.fold seq;
    t.ctx.Engine.output
      (Applied
         { machine = M.name; count = F.count t.fold; digest = M.digest (F.state t.fold) })

  let submit t command =
    let m = t.etob.Ec_core.Etob_intf.fresh_msg ~tag:(Command.to_tag command) () in
    t.etob.Ec_core.Etob_intf.broadcast m

  let create (ctx : Engine.ctx) ~etob =
    let t = { etob; ctx; fold = F.create () } in
    etob.Ec_core.Etob_intf.on_deliver (on_deliver t);
    let node =
      { Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun () -> ());
        on_input = (function Submit c -> submit t c | _ -> ()) }
    in
    (t, node)

  let state t = F.state t.fold
  let log t = F.log t.fold
  let digest t = M.digest (F.state t.fold)
end

let () =
  Io.register_input_text (fun b -> function
    | Submit c -> Printf.bprintf b "submit(%s)" (Command.to_tag c); true
    | _ -> false);
  Io.register_output_text (fun () b _ -> function
    | Applied { machine; count; digest } ->
      Printf.bprintf b "applied[%s] %d cmds -> %s" machine count digest; true
    | _ -> false)
