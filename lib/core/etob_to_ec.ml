(* Algorithm 2 of the paper: the transformation T_{ETOB -> EC} (second half
   of Theorem 1).

   proposeEC_l(v) broadcasts the pair (l, v) through the black-box ETOB
   service.  The first message carrying instance l in the delivered sequence
   d_i determines the response to instance l: once ETOB stabilizes, all
   processes see the same first such message and agree. *)

open Simulator

type t = {
  backend : Ec_intf.backend;
  etob : Etob_intf.service;
  mutable count : int;
}

let tag_of ~instance value = Printf.sprintf "ec2:%d:%s" instance (Value.to_tag value)

let parse_tag tag =
  match String.split_on_char ':' tag with
  | "ec2" :: inst :: rest ->
    let body = String.concat ":" rest in
    (match int_of_string_opt inst, Value.of_tag body with
     | Some l, Some v -> Some (l, v)
     | _, _ -> None)
  | _ -> None

(* First(l): the value v of the first message of the form (l, v) in d_i. *)
let first t instance =
  let rec scan = function
    | [] -> None
    | m :: rest ->
      (match parse_tag m.App_msg.tag with
       | Some (l, v) when l = instance -> Some v
       | Some _ | None -> scan rest)
  in
  scan (Dseq.to_list (t.etob.Etob_intf.current ()))

let try_decide t =
  if t.count > 0 && not (Ec_intf.has_decided t.backend ~instance:t.count) then
    match first t t.count with
    | None -> ()
    | Some v -> Ec_intf.record_decision t.backend ~instance:t.count v

let propose t ~instance value =
  if instance < 1 then invalid_arg "Etob_to_ec.propose: instances start at 1";
  t.count <- instance;
  Ec_intf.record_proposal t.backend ~instance value;
  let m = t.etob.Etob_intf.fresh_msg ~tag:(tag_of ~instance value) () in
  t.etob.Etob_intf.broadcast m;
  try_decide t

let create ?layer (ctx : Engine.ctx) ~etob =
  let t = { backend = Ec_intf.backend ?layer ctx; etob; count = 0 } in
  etob.Etob_intf.on_deliver (fun _seq -> try_decide t);
  let on_input = function
    | Ec_intf.Propose_ec { instance; value } -> propose t ~instance value
    | _ -> ()
  in
  let node =
    { Engine.on_message = (fun ~src:_ _ -> ());
      on_timer = (fun () -> try_decide t);
      on_input }
  in
  (t, node)

let service t = Ec_intf.service_of t.backend ~propose:(fun ~instance v -> propose t ~instance v)
