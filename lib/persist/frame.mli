(** Versioned framed binary codec for trace files and WAL records.

    A {e frame} is [[u32le length][u32le CRC-32][payload]]; a {e trace
    file} is the 8-byte {!header} ("ECTRACE" + version byte) followed by a
    sequence of frames whose payloads each start with a one-byte tag:
    ['E'] for a binary-encoded engine event, ['S'] for an embedded run
    spec text.  WAL records ({!Store}) reuse the bare frame without the
    file header.

    The checksum is the reflected CRC-32 (polynomial [0xEDB88320], the
    zlib/IEEE checksum), computed incrementally over the payload on plain
    OCaml ints.  Decoders never raise on malformed input: they return a
    positioned {!error} describing where and why parsing stopped. *)

(** {2 CRC-32} *)

val crc32 : string -> int
(** Finalized CRC-32 of a whole string; the value fits in 32 bits. *)

val crc32_init : int
val crc32_feed : int -> string -> int
val crc32_finish : int -> int
(** Incremental interface: [crc32 s = crc32_finish (crc32_feed crc32_init s)],
    and [crc32_feed] distributes over concatenation. *)

(** {2 Positioned decode errors} *)

type error = { pos : int; reason : string }
(** [pos] is the byte offset (of the frame, for in-frame damage) where
    decoding stopped. *)

val pp_error : Format.formatter -> error -> unit

(** {2 Bare frames (WAL records)} *)

val frame : string -> string
(** Wrap a payload as [[len][crc][payload]]. *)

val read_frame : string -> int -> (string * int, error) result
(** [read_frame s pos] parses one frame at [pos], verifying the checksum;
    returns the payload and the position after the frame. *)

(** {2 Events} *)

type event =
  | Input of { t : int; proc : int; v : string }
  | Output of { t : int; proc : int; v : string }
  | Send of { t : int; src : int; dst : int; uid : int }
  | Deliver of { t : int; src : int; dst : int; uid : int; lat : int }
  | Drop of { t : int; src : int; dst : int; uid : int }
  | Crash of { t : int; proc : int }
  | Recover of { t : int; proc : int }
      (** Mirrors the jsonl sink's event vocabulary; [v] carries the
          already-rendered input/output text, and all integers are
          non-negative. *)

val event_to_jsonl : event -> string
(** The jsonl line for an event (no trailing newline): the one renderer
    behind [Sink.jsonl] and {!to_jsonl}. *)

val json_escape : string -> string
(** The jsonl string escaper behind {!event_to_jsonl}. *)

(** {2 Trace files} *)

val header : string
(** The 8-byte file header: magic "ECTRACE" plus the format version. *)

type item = Spec of string | Event of event

val event_record : event -> string
(** One framed event record, ready to append after {!header}. *)

val spec_record : string -> string
(** One framed spec record embedding a run spec text.  Writers append it
    after the event stream; on decode the last spec record wins. *)

val decode : string -> (item list, error) result
(** Decode a whole trace file (header plus frames).  Fails with a
    positioned error on bad magic, unsupported version, torn frames,
    checksum mismatches or undecodable records — never raises. *)

val events : item list -> event list
val spec : item list -> string option

val to_jsonl : item list -> string list
(** The jsonl export of the event stream (spec records are not part of
    the jsonl format and are skipped). *)
