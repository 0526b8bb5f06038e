(* Output checks for the benchmark: the final-state check of the long
   workloads, run fingerprints, and the golden fingerprints they are held
   to at fixed seeds. *)

open Simulator
open Ec_core
module Id_map = App_msg.Id_map

let show (o, sn) = Printf.sprintf "(%d,%d)" o sn
let ids seq = List.map App_msg.id seq

(* The long workloads' check on the final state alone, O(n * m log m)
   (Properties' full ETOB report is about m^4 on these histories):
   - agreement: every correct process ends with the same sequence;
   - exactly once: that sequence holds every broadcast message once, and
     nothing that was not broadcast;
   - causal order: every dependency precedes its dependant.
   [finals] pairs each correct process with its final delivered sequence.
   Returns the violations, [[]] when the state is correct. *)
let final_state_errors ~broadcasts ~finals =
  match finals with
  | [] -> [ "no correct process" ]
  | (p0, d0) :: rest ->
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let ids0 = ids d0 in
    List.iter
      (fun (p, d) ->
         if not (List.equal (fun a b -> App_msg.compare_id a b = 0) (ids d) ids0)
         then err "agreement: process %d ends with another sequence than %d" p p0)
      rest;
    let sent =
      List.fold_left
        (fun acc m -> Id_map.add (App_msg.id m) () acc)
        Id_map.empty broadcasts
    in
    let pos = ref Id_map.empty in
    List.iteri
      (fun i id ->
         if Id_map.mem id !pos then err "duplication: %s delivered twice" (show id)
         else begin
           if not (Id_map.mem id sent) then
             err "creation: %s delivered but never broadcast" (show id);
           pos := Id_map.add id i !pos
         end)
      ids0;
    Id_map.iter
      (fun id () ->
         if not (Id_map.mem id !pos) then
           err "validity: %s broadcast but never delivered" (show id))
      sent;
    List.iteri
      (fun i m ->
         List.iter
           (fun dep ->
              match Id_map.find_opt dep !pos with
              | Some j when j > i ->
                err "causal order: %s delivered before its dependency %s"
                  (show (App_msg.id m)) (show dep)
              | _ -> ())
           m.App_msg.deps)
      d0;
    List.rev !errors

(* Broadcasts and final sequences of an ETOB trace, for the check above. *)
let final_state pattern trace =
  let run = Properties.etob_run_of_trace pattern trace in
  let broadcasts = List.map (fun (_, _, m) -> m) (Properties.broadcasts run) in
  let finals =
    List.map (fun p -> (p, Properties.final_d run p)) (Properties.correct_procs run)
  in
  (broadcasts, finals)

(* Fingerprint of a long run: MD5 over its event, send, delivery and
   output counts and each correct process's final delivered id list. *)
let long_fingerprint trace ~finals =
  let b = Buffer.create 65536 in
  Printf.bprintf b "events=%d sends=%d deliveries=%d outputs=%d\n"
    (Trace.steps trace) (Trace.sent trace) (Trace.delivered trace)
    (List.length (Trace.outputs trace));
  List.iter
    (fun (p, d) ->
       Printf.bprintf b "%d:" p;
       List.iter (fun (o, sn) -> Printf.bprintf b " %d.%d" o sn) (ids d);
       Buffer.add_char b '\n')
    finals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let trace_digest trace =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Trace.pp trace))

(* {2 Golden fingerprints}

   One "<workload> <seed> <fingerprint>" line per pinned run; blank lines
   and lines starting with '#' are ignored. *)

let parse_golden text =
  List.filter_map
    (fun line ->
       match String.split_on_char ' ' (String.trim line) with
       | [ w; s; fp ] when w.[0] <> '#' ->
         Option.map (fun s -> ((w, s), fp)) (int_of_string_opt s)
       | _ -> None)
    (String.split_on_char '\n' text)

let golden = parse_golden Golden_data.text

(* The mismatch, when a golden fingerprint pins this run and differs. *)
let golden_error ?(golden = golden) ~workload ~seed fingerprint =
  match List.assoc_opt (workload, seed) golden with
  | Some expected when not (String.equal expected fingerprint) ->
    Some
      (Printf.sprintf "golden: %s seed %d fingerprint %s, expected %s" workload
         seed fingerprint expected)
  | _ -> None
