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

   Every record carries a real checksum, verified on [open_]; replay
   stops at the first record that fails verification, so a damaged record
   also hides everything logged after it — exactly the contract of a real
   WAL reader.  [install_snapshot] models the usual
   write-new-file-then-rename protocol: it is atomic, durable, and
   truncates the log; the snapshot bytes are checksummed like any record
   and verified on every open.

   Checksum schemes.  The default is [Crc32]: the record is stored as its
   [Frame.frame] encoding — [len][crc32][payload] — and verification is a
   whole-frame parse (length intact, CRC matches, no trailing bytes), one
   table lookup per byte with no per-record allocation beyond the frame
   itself.  [Md5] is the legacy scheme (payload stored raw beside its
   16-byte MD5) kept so the benchmark can measure old-vs-new on the same
   fault battery; both schemes expose identical decoded-level semantics —
   same surviving records, same stats — under every fault.  (One
   documented corner: a torn *empty* record is detectable under Crc32,
   whose 8-byte frame tears visibly, but vacuously verifies under Md5,
   where half of an empty payload is still the empty payload.  The
   protocols never log empty records.)

   Faults damage the stored bytes — the frame under Crc32, the raw
   payload under Md5 — and are armed ahead of time ([arm_fault]) and
   applied, one per crash in arming order, when the store is re-opened
   after a crash.  Nothing reads the store between the crash and the
   restart, so applying the damage lazily at re-open is observationally
   equivalent to applying it at the crash instant, and keeps the store
   independent of the engine's clock. *)

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

type checksum = Md5 | Crc32

let checksum_name = function Md5 -> "md5" | Crc32 -> "crc32"

(* [stored] is what sits on the simulated medium and is what faults
   damage; [check] is the side checksum for Md5 (empty under Crc32, where
   the frame embeds its own CRC). *)
type record = { mutable stored : string; check : string }

type stats = {
  appends : int;
  syncs : int;
  snapshots : int;
  restarts : int;
  records_lost : int;
  corrupt_detected : int;
}

type t = {
  checksum : checksum;
  mutable log : record list;  (* newest first *)
  mutable log_len : int;
  mutable synced : int;  (* count of records covered by the last barrier *)
  mutable snapshot : record option;
  mutable opened : bool;  (* an incarnation is running and has not closed *)
  mutable armed : fault list;  (* FIFO: one applied per crash *)
  mutable appends : int;
  mutable syncs : int;
  mutable snapshots : int;
  mutable restarts : int;
  mutable records_lost : int;
  mutable corrupt_detected : int;
}

let create ?(checksum = Crc32) () =
  { checksum;
    log = [];
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

let encode t payload =
  match t.checksum with
  | Crc32 -> { stored = Frame.frame payload; check = "" }
  | Md5 -> { stored = payload; check = Digest.string payload }

(* Decode and verify one stored record; [None] means the checksum caught
   damage (or, under Crc32, the frame no longer parses cleanly). *)
let verify t r =
  match t.checksum with
  | Md5 -> if String.equal (Digest.string r.stored) r.check then Some r.stored else None
  | Crc32 ->
    (match Frame.read_frame r.stored 0 with
     | Ok (payload, next) when next = String.length r.stored -> Some payload
     | Ok _ | Error _ -> None)

let append t payload =
  t.log <- encode t payload :: t.log;
  t.log_len <- t.log_len + 1;
  t.appends <- t.appends + 1

let sync t =
  t.synced <- t.log_len;
  t.syncs <- t.syncs + 1

let install_snapshot t payload =
  t.snapshot <- Some (encode t payload);
  t.log <- [];
  t.log_len <- 0;
  t.synced <- 0;
  t.snapshots <- t.snapshots + 1

let arm_fault t fault = t.armed <- t.armed @ [ fault ]

let log_length t = t.log_len

(* Damage the dirty tail according to one armed fault.  [t.log] is newest
   first, so the dirty records are the first [log_len - synced]. *)
let apply_fault t fault =
  let dirty = t.log_len - t.synced in
  match fault with
  | Torn_tail ->
    if dirty > 0 then begin
      (match t.log with
       | r :: _ ->
         r.stored <- String.sub r.stored 0 (String.length r.stored / 2)
       | [] -> assert false)
    end
  | Lost_suffix k ->
    let k = min k dirty in
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    t.log <- drop k t.log;
    t.log_len <- t.log_len - k;
    t.records_lost <- t.records_lost + k
  | Corrupt_record ->
    if dirty > 0 then begin
      (* The oldest dirty record: maximal damage that a checksum still
         detects, since replay stops there and loses the whole tail. *)
      let oldest_dirty = List.nth t.log (dirty - 1) in
      let b = Bytes.of_string oldest_dirty.stored in
      if Bytes.length b > 0 then
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
      oldest_dirty.stored <- Bytes.to_string b
    end

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
    | Some r ->
      (match verify t r with
       | Some payload -> Some payload
       | None ->
         t.corrupt_detected <- t.corrupt_detected + 1;
         t.snapshot <- None;
         None)
  in
  (* Verify checksums oldest-to-newest; stop at the first bad record. *)
  let rec verified acc = function
    | [] -> List.rev acc
    | r :: rest ->
      (match verify t r with
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
  if List.length records <> t.log_len then begin
    t.log <- List.rev_map (encode t) records;
    t.log_len <- List.length records;
    t.synced <- min t.synced t.log_len
  end;
  { snapshot; records; restarted }

let stats t =
  { appends = t.appends;
    syncs = t.syncs;
    snapshots = t.snapshots;
    restarts = t.restarts;
    records_lost = t.records_lost;
    corrupt_detected = t.corrupt_detected }
