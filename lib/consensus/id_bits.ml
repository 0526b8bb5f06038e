(* A set of message ids as one growable bitset per origin.

   An id is (origin, sn), and each origin numbers its broadcasts 0, 1,
   2, ...  (App_msg.make rejects a negative sn), so an origin's ids are a
   dense range of small integers: bit sn of row origin.  Rows start at
   [first_bytes] and double when an sn lands past their end; the row
   array grows the same way when an origin lands past it.  [add] and
   [mem] cost O(1) amortized and allocate only when a row grows.  The
   set is unordered: nothing here iterates, so there is no order to leak
   into a trace. *)

type t = { mutable rows : Bytes.t array }

let first_bytes = 8

let create () = { rows = [||] }

let mem t ~origin ~sn =
  origin >= 0 && sn >= 0
  && origin < Array.length t.rows
  &&
  let row = Array.unsafe_get t.rows origin in
  let i = sn lsr 3 in
  i < Bytes.length row
  && Char.code (Bytes.unsafe_get row i) land (1 lsl (sn land 7)) <> 0

(* The first of [len], [2 len], [4 len], ... that exceeds [need];
   [len > 0]. *)
let rec grown len need = if len > need then len else grown (2 * len) need

let add t ~origin ~sn =
  if origin < 0 || sn < 0 then invalid_arg "Id_bits.add: negative origin or sn";
  let rows = t.rows in
  if origin >= Array.length rows then begin
    let bigger = Array.make (grown (max 1 (Array.length rows)) origin) Bytes.empty in
    Array.blit rows 0 bigger 0 (Array.length rows);
    t.rows <- bigger
  end;
  let row = t.rows.(origin) in
  let i = sn lsr 3 in
  let row =
    if i < Bytes.length row then row
    else begin
      let wider = Bytes.make (grown (max first_bytes (Bytes.length row)) i) '\000' in
      Bytes.blit row 0 wider 0 (Bytes.length row);
      t.rows.(origin) <- wider;
      wider
    end
  in
  Bytes.unsafe_set row i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get row i) lor (1 lsl (sn land 7))))
