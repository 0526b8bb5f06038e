(** The simulation tree Upsilon of Section 4 / Appendix B.3, materialized
    breadth-first under explicit budgets, with the k-tags of Section 4. *)

type 'state t

val create :
  ?allow_lambda:bool -> dag:Dag.t -> algo:'state Pure.algo -> width:int ->
  unit -> 'state t
(** [width] bounds, per process, how many alternative samples may extend a
    path — the branching knob.  [allow_lambda] (default false) additionally
    offers the empty-message step when a message is deliverable, which
    doubles branching but makes hook gadgets representable. *)

val expand : 'state t -> max_depth:int -> max_nodes:int -> unit

val size : 'state t -> int
val children : 'state t -> int -> int list
val step : 'state t -> int -> Schedule.step option
val depth : 'state t -> int -> int
val config : 'state t -> int -> 'state Schedule.config
val dag : 'state t -> Dag.t

type tag = { tg_values : bool list; tg_invalid : bool }

val tags : 'state t -> instance:int -> tag array
(** The k-tag of every node for instance [k], bottom-up over the
    materialized tree; empty for non-k-enabled nodes. *)

val is_bivalent : tag -> bool
val is_univalent : tag -> bool -> bool
