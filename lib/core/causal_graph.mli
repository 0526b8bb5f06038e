(** The causality graph [CG_i] of Algorithm 5 with the paper's three
    operations: [UpdateCG] ({!add}), [UnionCG] ({!union}) and
    [UpdatePromote] ({!linearize}, and incrementally {!promote_fresh}).
    Persistent, and maintained so that each operation costs what is new
    rather than the whole history. *)

type t

val empty : t
val size : t -> int
val mem : t -> App_msg.id -> bool

val messages : t -> App_msg.t list
(** All nodes, in id order. *)

val messages_from : t -> App_msg.id -> App_msg.t Seq.t
(** The nodes from id [id] on, in id order. *)

type span = { count : int; top : int }
(** One origin's nodes: how many, and the highest sequence number.  The
    graph holds exactly that origin's messages [0..top] iff
    [count = top + 1]. *)

val fold_spans : (Simulator.Types.proc_id -> span -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over each origin with at least one node and its span, in
    increasing origin order. *)

val blocked : t -> App_msg.t list
(** The nodes outside {!ready}, in id order. *)

val add : t -> App_msg.t -> t
(** [UpdateCG(m, C(m))]: add node [m] and edges from each of its
    dependencies.  Idempotent.  O(log size) plus, when [m] completes the
    causal past of waiting nodes, the work of making those ready. *)

val union : t -> t -> t
(** [UnionCG]: union of nodes and edges.  A message's identity determines
    its content, so a node present in both graphs keeps the first graph's
    copy.  Costs O(origins · log size) plus [add] for each message of the
    second graph missing from the first, as long as the first holds each
    origin's messages as a gap-free run from sequence number 0 (as graphs
    built from whole [update] payloads do); otherwise it also visits the
    second graph's messages of the origins with gaps. *)

val edges : t -> (App_msg.id * App_msg.id) list
(** All recorded edges [(m1, m2)] with [m2] present ([m1] may be absent). *)

val ready : t -> t
(** The dependency-closed restriction: the largest subgraph in which every
    node's recorded predecessors are all present.  Nodes with a dangling
    (not-yet-arrived) dependency are excluded transitively.  Algorithm 5
    linearizes [ready g] rather than [g] — the "dependency wait" that keeps
    causal order valid even when a dependency is still in flight.
    Maintained by {!add}: [g] itself when nothing is blocked. *)

val ready_count : t -> int
(** [size (ready g)], in O(1). *)

val default_tie_break : App_msg.t -> App_msg.t -> int

exception Cycle of App_msg.id list

val linearize :
  ?tie_break:(App_msg.t -> App_msg.t -> int) -> t -> prefix:App_msg.t list ->
  App_msg.t list
(** [UpdatePromote]: a sequence [s] such that [prefix] is a prefix of [s],
    [s] contains every message of the graph exactly once, and for every edge
    [(m1, m2)] with both present, [m1] appears before [m2].  Deterministic
    given [tie_break]: among the messages whose present predecessors are
    all placed, the next is the least by [tie_break], then by id.  Raises
    {!Cycle} on a cyclic dependency relation (impossible for genuine
    causality).  O(size · log size). *)

val promote_fresh :
  ?tie_break:(App_msg.t -> App_msg.t -> int) -> t -> since:int ->
  placed:(App_msg.id -> bool) -> App_msg.t list
(** The incremental [UpdatePromote].  [g]'s ready nodes are numbered in the
    order they became ready along [g]'s history of {!add}s; {!union}
    extends its first argument's history (unless that is empty).  Let
    [prefix] hold every ready node of the version of [g] whose
    {!ready_count} was [since], and [placed] recognize [prefix]'s ids.
    Then [prefix @ promote_fresh g ~since ~placed] equals
    [linearize (ready g) ~prefix], for the cost of ordering the nodes that
    became ready since. *)

val fresh_ready : t -> since:int -> App_msg.t list
(** The ready nodes beyond the first [since] of [g]'s history (see
    {!promote_fresh}), in the order they became ready.  Costs what they
    are. *)

val is_valid_linearization : t -> prefix:App_msg.t list -> App_msg.t list -> bool
(** Checks the three UpdatePromote conditions; tie-break independent. *)
