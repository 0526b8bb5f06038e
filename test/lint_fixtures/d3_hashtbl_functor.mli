module Int_tbl : Hashtbl.S with type key = int

val total : int Int_tbl.t -> int
