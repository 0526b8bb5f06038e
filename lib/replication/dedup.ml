(* Replica-side deduplication of idempotent client writes.

   A client retry can reach the broadcast layer twice — most visibly when a
   crash of the pinned replica migrates the session and the retried request
   is re-submitted through a different endpoint.  Both copies are then
   (eventually) delivered at every replica.  Deduplication must therefore
   happen at APPLY time, on the delivered sequence itself: every replica
   keeps the first occurrence of each [(client, rid)] and drops the rest.
   Because the filter is a deterministic function of the sequence, all
   replicas converge to the same deduplicated state, and a restarted
   replica re-derives the same duplicate set from its replayed log — no
   separate dedup table has to survive the crash. *)

module Rid = struct
  type t = int * int

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | o -> o
end

module Rid_set = Set.Make (Rid)

let filter commands =
  let seen = ref Rid_set.empty in
  List.filter
    (fun c ->
       match Command.rid_of c with
       | None -> true
       | Some rid ->
         if Rid_set.mem rid !seen then false
         else begin seen := Rid_set.add rid !seen; true end)
    commands

let duplicates commands =
  List.length commands - List.length (filter commands)

module Make (M : Machines.MACHINE) = struct
  type state = {
    inner : M.state;
    seen : Rid_set.t;
    applied : int;
    suppressed : int;
  }

  let name = M.name ^ "+dedup"
  let init = { inner = M.init; seen = Rid_set.empty; applied = 0; suppressed = 0 }

  let apply state c =
    match Command.rid_of c with
    | Some rid when Rid_set.mem rid state.seen ->
      { state with suppressed = state.suppressed + 1 }
    | Some rid ->
      { inner = M.apply state.inner c;
        seen = Rid_set.add rid state.seen;
        applied = state.applied + 1;
        suppressed = state.suppressed }
    | None -> { state with inner = M.apply state.inner c }

  (* The seen-set is a function of (applied, suppressed, inner) over any
     fixed delivered sequence, so the digest stays canonical for the
     convergence checkers without rendering the whole set. *)
  let digest state =
    Printf.sprintf "%s|applied=%d|suppressed=%d" (M.digest state.inner)
      state.applied state.suppressed

  let inner state = state.inner
  let applied state = state.applied
  let suppressed state = state.suppressed
  let has state ~client ~rid = Rid_set.mem (client, rid) state.seen
end
