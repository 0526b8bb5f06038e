(* Test oracle: Persist.Store as it was before checkpoints sealed the
   log.  [install_snapshot] replaces a whole-state snapshot and truncates
   the log.  Recoverable_oracle writes through it, and test_recovery's
   differential compares that wiring with the live one.  Copied verbatim
   but for this header and the module paths. *)

(* Deterministic simulated stable storage: an append-only write-ahead log
   plus an atomically installed snapshot, per process.

   The store is the only state that survives an engine restart (see
   Engine.run's crash-recovery contract): a store outlives the automaton
   that writes to it, so the harness creates one per process per run and
   the recoverable protocol wrapper re-opens it from its restart hook.

   Durability model.  [append] writes a record; [sync] is the fsync
   barrier: everything appended before the last [sync] survives any crash
   undamaged.  Records appended after the last barrier form the "dirty
   tail" and are where injected disk faults bite:

   - [Torn_tail]: the newest dirty record was half-written when the
     process died; its checksum no longer verifies.
   - [Lost_suffix k]: the newest k dirty records never reached the disk.
   - [Corrupt_record]: the oldest dirty record was written but damaged on
     the medium; the checksum detects it on replay.

   Every record is stored as its [Frame.frame] encoding
   ([len][crc32][payload]) and verified on [open_] by a whole-frame parse:
   length intact, CRC matches, no trailing bytes.  Replay stops at the
   first record that fails verification, so a damaged record also hides
   everything logged after it — exactly the contract of a real WAL
   reader.  [install_snapshot] models the usual
   write-new-file-then-rename protocol: it is atomic, durable, and
   truncates the log; the snapshot is framed like any record and verified
   on every open.

   Faults damage the stored frames.  They are armed ahead of time
   ([arm_fault]) and applied, one per crash in arming order, when the
   store is re-opened after a crash.  Nothing reads the store between the
   crash and the restart, so applying the damage lazily at re-open is
   observationally equivalent to applying it at the crash instant, and
   keeps the store independent of the engine's clock. *)

type fault = Torn_tail | Lost_suffix of int | Corrupt_record

let fault_to_string = function
  | Torn_tail -> "torn"
  | Lost_suffix k -> Printf.sprintf "lose:%d" k
  | Corrupt_record -> "corrupt"

let fault_of_string s =
  match s with
  | "torn" -> Some Torn_tail
  | "corrupt" -> Some Corrupt_record
  | _ ->
    (match String.index_opt s ':' with
     | Some i when String.sub s 0 i = "lose" ->
       (match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some k when k > 0 -> Some (Lost_suffix k)
        | _ -> None)
     | _ -> None)

type stats = {
  appends : int;
  syncs : int;
  snapshots : int;
  restarts : int;
  records_lost : int;
  corrupt_detected : int;
}

(* Records and the snapshot are kept as their frames: the bytes on the
   simulated medium, which faults damage. *)
type t = {
  mutable log : string list;  (* newest first *)
  mutable log_len : int;
  mutable synced : int;  (* count of records covered by the last barrier *)
  mutable snapshot : string option;
  mutable opened : bool;  (* an incarnation is running and has not closed *)
  mutable armed : fault list;  (* FIFO: one applied per crash *)
  mutable appends : int;
  mutable syncs : int;
  mutable snapshots : int;
  mutable restarts : int;
  mutable records_lost : int;
  mutable corrupt_detected : int;
}

let create () =
  { log = [];
    log_len = 0;
    synced = 0;
    snapshot = None;
    opened = false;
    armed = [];
    appends = 0;
    syncs = 0;
    snapshots = 0;
    restarts = 0;
    records_lost = 0;
    corrupt_detected = 0 }

let pool ~n = Array.init n (fun _ -> create ())

(* Decode and verify one stored frame; [None] means it no longer parses
   cleanly: torn, damaged, or followed by trailing bytes. *)
let verify frame =
  match Persist.Frame.read_frame frame 0 with
  | Ok (payload, next) when next = String.length frame -> Some payload
  | Ok _ | Error _ -> None

let append t payload =
  t.log <- Persist.Frame.frame payload :: t.log;
  t.log_len <- t.log_len + 1;
  t.appends <- t.appends + 1

let sync t =
  t.synced <- t.log_len;
  t.syncs <- t.syncs + 1

let install_snapshot t payload =
  t.snapshot <- Some (Persist.Frame.frame payload);
  t.log <- [];
  t.log_len <- 0;
  t.synced <- 0;
  t.snapshots <- t.snapshots + 1

let arm_fault t fault = t.armed <- t.armed @ [ fault ]

let log_length t = t.log_len

let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)

(* Damage the dirty tail according to one armed fault.  [t.log] is newest
   first, so the dirty records are the first [log_len - synced]. *)
let apply_fault t fault =
  let dirty = t.log_len - t.synced in
  match fault with
  | Torn_tail ->
    (match t.log with
     | frame :: older when dirty > 0 ->
       t.log <- String.sub frame 0 (String.length frame / 2) :: older
     | _ -> ())
  | Lost_suffix k ->
    let k = min k dirty in
    t.log <- drop k t.log;
    t.log_len <- t.log_len - k;
    t.records_lost <- t.records_lost + k
  | Corrupt_record ->
    (* The oldest dirty record: maximal damage that a checksum still
       detects, since replay stops there and loses the whole tail. *)
    let flip_first j c =
      if j = 0 then Char.chr (Char.code c lxor 0x5a) else c
    in
    t.log <-
      List.mapi
        (fun i frame ->
           if i = dirty - 1 then String.mapi flip_first frame else frame)
        t.log

type opening = {
  snapshot : string option;
  records : string list;  (* oldest first, checksum-verified prefix *)
  restarted : bool;  (* a previous incarnation crashed without closing *)
}

let open_ t =
  let restarted = t.opened in
  if restarted then begin
    t.restarts <- t.restarts + 1;
    (match t.armed with
     | [] -> ()
     | fault :: rest ->
       t.armed <- rest;
       apply_fault t fault)
  end;
  t.opened <- true;
  (* The snapshot was installed atomically, so a verification failure here
     can only come from a hand-damaged image (fixtures, tests); it is
     detected and counted, and recovery proceeds as if no snapshot
     existed. *)
  let snapshot =
    match t.snapshot with
    | None -> None
    | Some frame ->
      (match verify frame with
       | Some payload -> Some payload
       | None ->
         t.corrupt_detected <- t.corrupt_detected + 1;
         t.snapshot <- None;
         None)
  in
  (* Verify checksums oldest-to-newest; stop at the first bad record. *)
  let rec verified acc = function
    | [] -> List.rev acc
    | frame :: rest ->
      (match verify frame with
       | Some payload -> verified (payload :: acc) rest
       | None ->
         t.corrupt_detected <- t.corrupt_detected + 1;
         t.records_lost <- t.records_lost + 1 + List.length rest;
         List.rev acc)
  in
  let records = verified [] (List.rev t.log) in
  (* Truncate the log to the verified prefix, as a real recovery pass
     would: the damaged tail is gone for every later incarnation too (and
     is not double-counted in the stats). *)
  let kept = List.length records in
  if kept <> t.log_len then begin
    t.log <- drop (t.log_len - kept) t.log;
    t.log_len <- kept;
    t.synced <- min t.synced kept
  end;
  { snapshot; records; restarted }

let stats t =
  { appends = t.appends;
    syncs = t.syncs;
    snapshots = t.snapshots;
    restarts = t.restarts;
    records_lost = t.records_lost;
    corrupt_detected = t.corrupt_detected }
