(* Multivalued eventual consensus from binary eventual consensus.

   Section 3 of the paper: "It is straightforward to transform the binary
   version of EC into a multivalued one with unbounded set of inputs [23]".
   This module is that transformation (in the style of Mostefaoui, Raynal
   and Tronel), which matters for the reproduction because the lower-bound
   machinery of Section 4 works on the *binary* abstraction while the
   replication stack consumes the multivalued one.

   For multivalued instance L over n processes:

   - every process broadcasts its candidate value, tagged (L, proposer);
     candidates are relayed on first receipt (reliable broadcast), so all
     correct processes eventually hold every candidate that matters;
   - the processes run one binary EC instance per proposer slot
     j = 0..n-1 (flattened into the underlying service's instance space,
     in the same order at every process), proposing "true" for slot j iff
     p_j's candidate has been received;
   - the multivalued decision is the candidate of the smallest slot whose
     binary instance returned true; a true slot whose candidate is still
     in flight is waited out (binary EC-Validity guarantees someone held
     it, and relaying delivers it);
   - if every slot returns false — possible only while the underlying
     binary EC still disagrees, i.e. before its agreement index — the
     process falls back to the smallest-proposer candidate it holds (its
     own at worst).  EC-Agreement is not yet required for such instances,
     and EC-Validity still holds since candidates are proposals.

   Once the underlying binary EC agrees, all correct processes see the same
   slot pattern, the pattern contains a true slot (every process proposes
   true for its own slot), and the same smallest winner is chosen: the lift
   preserves eventual agreement, and termination never blocks. *)

open Simulator
open Simulator.Types

type Msg.payload +=
  | Candidate of { instance : int; proposer : proc_id; value : Value.t }

type pending = {
  p_instance : int;
  mutable p_decided : bool;
}

type t = {
  backend : Ec_intf.backend;
  binary : Ec_intf.service;
  candidates : (int * proc_id, Value.t) Hashtbl.t;  (* (instance, proposer) *)
  results : (int, bool option array) Hashtbl.t;  (* flat base -> slot outcomes *)
  mutable pendings : pending list;
  mutable relayed : (int * proc_id) list;
  (* The global proposal cursor: every process proposes the flat binary
     instances 1, 2, 3, ... in this one order, never skipping a slot even
     after its multivalued instance has decided.  This keeps the underlying
     EC's usage assumption intact at every process, and guarantees that the
     eventual leader proposes every binary instance anyone ever waits on. *)
  mutable cursor : int;  (* next flat index (0-based) to propose *)
  mutable invoked_upto : int;  (* highest multivalued instance invoked here *)
}

let ctx t = Ec_intf.ctx_of t.backend
let n t = (ctx t).Engine.n

(* The same flat binary-instance numbering at every process: instance L
   occupies slots (L-1)*n + 1 .. L*n of the underlying service. *)
let flat_base t pending = (pending.p_instance - 1) * n t

let instance_of_flat t flat = (flat / n t) + 1
let slot_of_flat t flat = flat mod n t

let results_for t base =
  match Hashtbl.find_opt t.results base with
  | Some r -> r
  | None ->
    let r = Array.make (n t) None in
    Hashtbl.replace t.results base r;
    r

let decide t pending value =
  pending.p_decided <- true;
  Ec_intf.record_decision t.backend ~instance:pending.p_instance value

let try_finish t pending =
  if not pending.p_decided then begin
    let results = results_for t (flat_base t pending) in
    (* The smallest true slot wins; wait if its candidate is in flight. *)
    let rec scan j =
      if j >= n t then begin
        (* Every slot resolved false: pre-agreement fallback. *)
        let rec fallback j =
          if j < n t then
            match Hashtbl.find_opt t.candidates (pending.p_instance, j) with
            | Some v -> decide t pending v
            | None -> fallback (j + 1)
        in
        fallback 0
      end
      else
        match results.(j) with
        | None -> ()  (* still undecided: keep waiting *)
        | Some true ->
          (match Hashtbl.find_opt t.candidates (pending.p_instance, j) with
           | Some v -> decide t pending v
           | None -> () (* candidate in flight *))
        | Some false -> scan (j + 1)
    in
    scan 0
  end

(* Propose the cursor's binary instance if its multivalued instance has
   been invoked here (the cursor only waits for the application to catch
   up, never for other processes). *)
let advance_cursor t =
  let flat = t.cursor in
  if instance_of_flat t flat <= t.invoked_upto then
    t.binary.Ec_intf.propose ~instance:(flat + 1)
      (Value.Flag
         (Hashtbl.mem t.candidates (instance_of_flat t flat, slot_of_flat t flat)))

let on_binary_decide t (d : Ec_intf.decision) =
  let flat = d.Ec_intf.instance - 1 in
  let outcome = match d.Ec_intf.value with Value.Flag b -> b | _ -> false in
  let results = results_for t ((flat / n t) * n t) in
  results.(slot_of_flat t flat) <- Some outcome;
  if flat = t.cursor then begin
    t.cursor <- t.cursor + 1;
    advance_cursor t
  end;
  List.iter (fun pending -> try_finish t pending) t.pendings

let propose t ~instance value =
  if instance < 1 then invalid_arg "Binary_lift.propose: instances start at 1";
  Ec_intf.record_proposal t.backend ~instance value;
  let self = (ctx t).Engine.self in
  Hashtbl.replace t.candidates (instance, self) value;
  (ctx t).Engine.broadcast (Candidate { instance; proposer = self; value });
  let pending = { p_instance = instance; p_decided = false } in
  t.pendings <- pending :: t.pendings;
  t.invoked_upto <- max t.invoked_upto instance;
  if t.cursor = (instance - 1) * n t then advance_cursor t

let create (c : Engine.ctx) ~binary =
  let t =
    { backend = Ec_intf.backend c;
      binary;
      candidates = Hashtbl.create 64;
      results = Hashtbl.create 32;
      pendings = [];
      relayed = [];
      cursor = 0;
      invoked_upto = 0 }
  in
  binary.Ec_intf.on_decide (on_binary_decide t);
  let on_message ~src:_ payload =
    match payload with
    | Candidate { instance; proposer; value } ->
      if not (Hashtbl.mem t.candidates (instance, proposer)) then begin
        Hashtbl.replace t.candidates (instance, proposer) value;
        (* Eager relay: candidates reach everyone even if the proposer
           crashes mid-broadcast. *)
        if not (List.mem (instance, proposer) t.relayed) then begin
          t.relayed <- (instance, proposer) :: t.relayed;
          c.Engine.broadcast (Candidate { instance; proposer; value })
        end;
        (* A late candidate can unblock a true slot. *)
        List.iter (fun pending -> try_finish t pending) t.pendings
      end
    | _ -> ()
  in
  let on_input = function
    | Ec_intf.Propose_ec { instance; value } -> propose t ~instance value
    | _ -> ()
  in
  (t, { Engine.on_message; on_timer = (fun () -> ()); on_input })

let service t = Ec_intf.service_of t.backend ~propose:(fun ~instance v -> propose t ~instance v)
