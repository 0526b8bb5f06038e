(* Fixture: exactly one D3 finding — unordered iteration through a table
   module this file binds with Hashtbl.Make, with no sortedness
   justification.  Its iteration order is hash order, as Hashtbl's is. *)
module Int_tbl = Hashtbl.Make (struct
    type t = int
    let equal = Int.equal
    let hash x = x
  end)

let total tbl =
  let sum = ref 0 in
  Int_tbl.iter (fun _ v -> sum := !sum + v) tbl;
  !sum
