(* Declarative client-population spec for the closed-loop service layer.

   This is pure data plus its text form and QCheck generators: the Builder
   carries it in spec files (one `service ...` line) and the interpreter
   lives in lib/service, keeping the dependency direction
   service -> harness.  Every knob is an integer or flag so the spec
   roundtrips byte-exactly and shrinks well. *)

type arrival =
  | Closed of { think : int }
  | Open_loop of { gap : int }
  | Bursty of { burst : int; gap : int }

type t = {
  clients : int;
  arrival : arrival;
  keys : int;
  skew_pct : int;
  write_pct : int;
  req_deadline : int;
  retries : int;
  backoff_base : int;
  backoff_cap : int;
  jitter_pct : int;
  queue_limit : int;
  breaker_k : int;
  breaker_cooldown : int;
  strong : bool;
  migrate_after : int;
  window : int;
}

let default =
  { clients = 4;
    arrival = Closed { think = 4 };
    keys = 4;
    skew_pct = 50;
    write_pct = 50;
    req_deadline = 16;
    retries = 3;
    backoff_base = 2;
    backoff_cap = 16;
    jitter_pct = 50;
    queue_limit = 8;
    breaker_k = 3;
    breaker_cooldown = 24;
    strong = true;
    migrate_after = 3;
    window = 30 }

let arrival_to_string = function
  | Closed { think } -> Printf.sprintf "closed:%d" think
  | Open_loop { gap } -> Printf.sprintf "open:%d" gap
  | Bursty { burst; gap } -> Printf.sprintf "bursty:%d:%d" burst gap

let arrival_of_string s =
  match String.split_on_char ':' s with
  | [ "closed"; t ] ->
    Option.map (fun think -> Closed { think }) (int_of_string_opt t)
  | [ "open"; g ] -> Option.map (fun gap -> Open_loop { gap }) (int_of_string_opt g)
  | [ "bursty"; b; g ] ->
    (match (int_of_string_opt b, int_of_string_opt g) with
     | Some burst, Some gap -> Some (Bursty { burst; gap })
     | _ -> None)
  | _ -> None

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let pct what v =
    if v < 0 || v > 100 then Some (what, v, "a percentage in [0, 100]") else None
  in
  let pos what v = if v < 1 then Some (what, v, ">= 1") else None in
  let arrival_bad =
    match t.arrival with
    | Closed { think } -> pos "arrival think time" think
    | Open_loop { gap } -> pos "arrival gap" gap
    | Bursty { burst; gap } ->
      (match pos "burst size" burst with
       | Some _ as e -> e
       | None -> pos "burst gap" gap)
  in
  match
    List.find_map Fun.id
      [ pos "clients" t.clients; arrival_bad; pos "keys" t.keys;
        pct "skew" t.skew_pct; pct "writes" t.write_pct;
        pos "timeout" t.req_deadline;
        (if t.retries < 0 then Some ("retries", t.retries, ">= 0") else None);
        pos "backoff base" t.backoff_base;
        (if t.backoff_cap < t.backoff_base then
           Some ("backoff cap", t.backoff_cap, ">= the base")
         else None);
        pct "jitter" t.jitter_pct; pos "queue limit" t.queue_limit;
        pos "breaker threshold" t.breaker_k;
        pos "breaker cooldown" t.breaker_cooldown;
        pos "migrate threshold" t.migrate_after; pos "window" t.window ]
  with
  | Some (what, v, want) -> err "%s must be %s (got %d)" what want v
  | None -> Ok t

let to_string t =
  Printf.sprintf
    "clients=%d arrival=%s keys=%d skew=%d writes=%d timeout=%d retries=%d \
     backoff=%d:%d jitter=%d queue=%d breaker=%d:%d mode=%s migrate=%d \
     window=%d"
    t.clients (arrival_to_string t.arrival) t.keys t.skew_pct t.write_pct
    t.req_deadline t.retries t.backoff_base t.backoff_cap t.jitter_pct
    t.queue_limit t.breaker_k t.breaker_cooldown
    (if t.strong then "strong" else "weak")
    t.migrate_after t.window

let of_fields fields =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_field k v f acc =
    match int_of_string_opt v with
    | Some n -> Ok (f acc n)
    | None -> err "field %s wants an integer, got %S" k v
  in
  let pair_field k v f acc =
    match String.split_on_char ':' v with
    | [ a; b ] ->
      (match (int_of_string_opt a, int_of_string_opt b) with
       | Some a, Some b -> Ok (f acc a b)
       | _ -> err "field %s wants <int>:<int>, got %S" k v)
    | _ -> err "field %s wants <int>:<int>, got %S" k v
  in
  let parse acc (k, v) =
    match acc with
    | Error _ -> acc
    | Ok acc ->
      (match k with
       | "clients" -> int_field k v (fun t n -> { t with clients = n }) acc
       | "arrival" ->
         (match arrival_of_string v with
          | Some arrival -> Ok { acc with arrival }
          | None ->
            err
              "field arrival wants closed:<think>, open:<gap> or \
               bursty:<burst>:<gap>, got %S"
              v)
       | "keys" -> int_field k v (fun t n -> { t with keys = n }) acc
       | "skew" -> int_field k v (fun t n -> { t with skew_pct = n }) acc
       | "writes" -> int_field k v (fun t n -> { t with write_pct = n }) acc
       | "timeout" -> int_field k v (fun t n -> { t with req_deadline = n }) acc
       | "retries" -> int_field k v (fun t n -> { t with retries = n }) acc
       | "backoff" ->
         pair_field k v
           (fun t base cap -> { t with backoff_base = base; backoff_cap = cap })
           acc
       | "jitter" -> int_field k v (fun t n -> { t with jitter_pct = n }) acc
       | "queue" -> int_field k v (fun t n -> { t with queue_limit = n }) acc
       | "breaker" ->
         pair_field k v
           (fun t bk cd -> { t with breaker_k = bk; breaker_cooldown = cd })
           acc
       | "mode" ->
         (match v with
          | "strong" -> Ok { acc with strong = true }
          | "weak" -> Ok { acc with strong = false }
          | _ -> err "field mode wants strong or weak, got %S" v)
       | "migrate" -> int_field k v (fun t n -> { t with migrate_after = n }) acc
       | "window" -> int_field k v (fun t n -> { t with window = n }) acc
       | _ -> err "unknown service field %S" k)
  in
  match List.fold_left parse (Ok default) fields with
  | Error _ as e -> e
  | Ok t -> validate t

(* ------------------------------------------------------------------ *)
(* QCheck generators (test/qgen re-exports these)                      *)
(* ------------------------------------------------------------------ *)

let arrival_gen =
  QCheck.Gen.(
    oneof
      [ map (fun think -> Closed { think }) (int_range 1 8);
        map (fun gap -> Open_loop { gap }) (int_range 2 10);
        map2
          (fun burst gap -> Bursty { burst; gap })
          (int_range 2 5) (int_range 4 16) ])

let gen =
  QCheck.Gen.(
    let* clients = int_range 1 6 in
    let* arrival = arrival_gen in
    let* keys = int_range 1 6 in
    let* skew_pct = int_range 0 100 in
    let* write_pct = int_range 0 100 in
    let* req_deadline = int_range 8 32 in
    let* retries = int_range 0 4 in
    let* backoff_base = int_range 1 4 in
    let* backoff_cap = int_range backoff_base (4 * backoff_base) in
    let* jitter_pct = int_range 0 100 in
    let* queue_limit = int_range 1 12 in
    let* breaker_k = int_range 1 6 in
    let* breaker_cooldown = int_range 8 48 in
    let* strong = bool in
    let* migrate_after = int_range 1 4 in
    let+ window = int_range 10 60 in
    { clients; arrival; keys; skew_pct; write_pct; req_deadline; retries;
      backoff_base; backoff_cap; jitter_pct; queue_limit; breaker_k;
      breaker_cooldown; strong; migrate_after; window })

(* Shrink towards [default], field by field: keeps the spec valid by
   construction. *)
let shrink t yield =
  let try_ t' = if t' <> t then yield t' in
  try_ { t with clients = max 1 (t.clients / 2) };
  try_ { t with arrival = default.arrival };
  try_ { t with keys = max 1 (t.keys / 2) };
  try_ { t with skew_pct = 0 };
  try_ { t with write_pct = 50 };
  try_ { t with retries = max 0 (t.retries - 1) };
  try_ { t with jitter_pct = 0 };
  try_ { t with strong = true };
  try_ { t with queue_limit = t.queue_limit + 4 }

let arbitrary =
  QCheck.make gen ~print:to_string ~shrink
