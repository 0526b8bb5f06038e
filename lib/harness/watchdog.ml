(* Convergence-progress liveness watchdog.

   Safety checkers (Properties) can only say a finished run never violated
   an invariant; they cannot distinguish "converged" from "quietly stalled
   forever" — a replica that a partition (or an anti-entropy bug like
   [Anti_entropy.Skip_digest]) left permanently behind produces a run with
   pristine safety and no convergence.  This watchdog closes that gap: it
   takes the time by which the environment has settled (failures
   stabilized, partitions healed, workload posted) and a progress bound
   (how long a correct stack may legitimately take to catch up — gossip
   slack plus anti-entropy digest rounds plus retransmission backoff), and
   flags a liveness violation when some correct process has still not
   reached the converged state by settle + bound.

   The converged state is the union, over correct processes, of every
   finally delivered AND every broadcast message: whatever any correct
   process eventually stably delivered — or asked to be delivered — all of
   them must deliver.  A process "reaches" the target at its
   first d-revision from which its id-set covers the target and never
   stops covering it (a later regression, e.g. from a mutant, un-reaches
   it).  The verdict carries a per-laggard diagnosis: the time of its last
   observable progress and how many target messages it still misses, so a
   stall reads as "p2 last grew its state at t=41, 3 messages behind" and
   not just "failed". *)

open Simulator.Types
open Ec_core

type laggard = {
  proc : proc_id;
  last_progress : time;  (* last d-revision that grew the id-set; -1 if none *)
  missing : int;  (* target messages absent from the final d *)
}

type verdict =
  | Converged of { at : time }
  | Stalled of { deadline : time; laggards : laggard list }

let ids_of seq = App_msg.ids_of_seq seq

(* The union, over correct processes, of everything finally delivered AND
   everything broadcast.  Including broadcasts matters: Algorithm 5's
   leader re-teaches d through periodic promotes, so a process can only
   stall on a message the leader itself never learned — a correct poster's
   broadcast swallowed by a lossy partition.  Such a message is in no d at
   all; a final-d union would silently shrink the target around exactly
   the stall the watchdog exists to flag. *)
let target run =
  let correct = Properties.correct_procs run in
  let delivered =
    List.fold_left
      (fun acc p -> App_msg.Id_set.union acc (ids_of (Properties.final_d run p)))
      App_msg.Id_set.empty correct
  in
  List.fold_left
    (fun acc (_, p, m) ->
       if List.mem p correct then App_msg.Id_set.add (App_msg.id m) acc
       else acc)
    delivered (Properties.broadcasts run)

(* One pass over p's deltas: the first revision time from which p's
   id-set covers [tgt] and keeps covering it for the rest of the run (None
   if it never stably does), the last revision that strictly grew p's
   id-set (-1 if none ever did), and how many target ids p's final
   revision misses.  The id-set is a table updated by each delta and
   rebuilt when a revision keeps nothing of the one before. *)
let progress run tgt p =
  let ids = App_msg.Id_tbl.create 64 in
  let size = App_msg.Id_set.cardinal tgt in
  let covered = ref 0 and known = ref 0 and last = ref (-1) and reached = ref None in
  Properties.iter_deltas run p (fun t kept fresh ->
      if kept = 0 then begin
        App_msg.Id_tbl.reset ids;
        covered := 0
      end;
      List.iter
        (fun m ->
           let id = App_msg.id m in
           if not (App_msg.Id_tbl.mem ids id) then begin
             App_msg.Id_tbl.add ids id ();
             if App_msg.Id_set.mem id tgt then incr covered
           end)
        fresh;
      let distinct = App_msg.Id_tbl.length ids in
      if distinct > !known then begin
        known := distinct;
        last := t
      end;
      reached :=
        if !covered = size then (match !reached with None -> Some t | some -> some)
        else None);
  (!reached, !last, size - !covered)

let check ~settle ~bound run =
  let deadline = settle + bound in
  let tgt = target run in
  let per_proc =
    List.map (fun p -> (p, progress run tgt p)) (Properties.correct_procs run)
  in
  let late =
    List.filter_map
      (fun (p, (reached, last_progress, missing)) ->
         match reached with
         | Some t when t <= deadline -> None
         | _ -> Some { proc = p; last_progress; missing })
      per_proc
  in
  if late = [] then
    let at =
      List.fold_left
        (fun acc (_, (reached, _, _)) ->
           match reached with Some t -> max acc t | None -> acc)
        0 per_proc
    in
    Converged { at }
  else Stalled { deadline; laggards = late }

let violations = function
  | Converged _ -> []
  | Stalled { deadline; laggards } ->
    List.map
      (fun l ->
         Printf.sprintf
           "liveness: %s not converged by %d (last progress at %d, %d message%s behind)"
           (Format.asprintf "%a" pp_proc l.proc)
           deadline l.last_progress l.missing
           (if l.missing = 1 then "" else "s"))
      laggards

let pp ppf = function
  | Converged { at } -> Fmt.pf ppf "converged at %d" at
  | Stalled { deadline; laggards } ->
    Fmt.pf ppf "@[<v>STALLED past %d:@,%a@]" deadline
      (Fmt.list (fun ppf l ->
           Fmt.pf ppf "%a: last progress %d, %d behind" pp_proc l.proc
             l.last_progress l.missing))
      laggards
