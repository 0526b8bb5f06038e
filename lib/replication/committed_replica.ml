(* A replica with two read views: speculative and committed.

   Systems built on eventual consistency expose exactly this split (the
   paper cites Zeno [27] and discusses commit indications in Section 7):

   - the SPECULATIVE view applies the full delivered sequence d_i — always
     fresh, may be revised while leaders disagree;
   - the COMMITTED view applies only the committed prefix — possibly
     stale, never rolled back (in stable-period runs certified by the
     Commit_prefix component).

   Both views run the same deterministic machine over prefixes of the same
   sequence, so the committed state is always a past state of the
   speculative one. *)

open Simulator

type Io.output +=
  | Applied_committed of { machine : string; count : int; digest : string }

module Make (M : Machines.MACHINE) = struct
  module Speculative = Replica.Make (M)
  module Fold = Replica.Fold (M)

  type t = {
    ctx : Engine.ctx;
    speculative : Speculative.t;
    committed : Fold.t;  (* of the committed prefix *)
  }

  let on_committed t seq =
    Fold.update t.committed seq;
    t.ctx.Engine.output
      (Applied_committed
         { machine = M.name;
           count = Fold.count t.committed;
           digest = M.digest (Fold.state t.committed) })

  let create (ctx : Engine.ctx) ~etob ~omega ~promotion =
    let speculative, spec_node = Speculative.create ctx ~etob in
    let t = { ctx; speculative; committed = Fold.create () } in
    let commit, commit_node =
      Ec_core.Commit_prefix.create ctx ~omega ~etob ~promotion
    in
    (* Re-apply the committed prefix whenever it grows: watch the component
       through a polling wrapper on the timer (commit growth is only
       observable through its state). *)
    let last_len = ref 0 in
    let watch () =
      let len = Ec_core.Dseq.length (Ec_core.Commit_prefix.committed commit) in
      if len > !last_len then begin
        last_len := len;
        on_committed t (Ec_core.Commit_prefix.committed commit)
      end
    in
    let watcher =
      { Engine.idle_node with
        on_timer = watch;
        on_message = (fun ~src:_ _ -> watch ()) }
    in
    (t, Engine.stack [ spec_node; commit_node; watcher ])

  let submit t command = Speculative.submit t.speculative command
  let speculative_state t = Speculative.state t.speculative
  let speculative_digest t = Speculative.digest t.speculative
  let committed_state t = Fold.state t.committed
  let committed_digest t = M.digest (Fold.state t.committed)
  let committed_log t = Fold.log t.committed
  let speculative_log t = Speculative.log t.speculative
end

(* Trace analysis: the committed view must be monotone (never rolled
   back). *)
let committed_monotone trace =
  Array.for_all
    (fun counts ->
       let rec scan prev = function
         | [] -> true
         | (_, count) :: rest -> count >= prev && scan count rest
       in
       scan 0 counts)
    (Trace.series trace (function
       | Applied_committed { count; _ } -> Some count
       | _ -> None))

let () =
  Io.register_output_text (fun () b _ -> function
    | Applied_committed { machine; count; digest } ->
      Printf.bprintf b "applied-committed[%s] %d cmds -> %s" machine count digest; true
    | _ -> false)
