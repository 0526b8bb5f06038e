(* Committed-prefix indications on top of ETOB (Section 7 of the paper).

   "Such systems sometimes produce indications when a prefix of operations
   on the replicated service is committed, i.e., is not subject to further
   changes.  A prefix of operations can be committed, e.g., in sufficiently
   long periods of synchrony, when a majority of correct processes elect
   the same leader and all incoming and outgoing messages of the leader to
   the correct majority are delivered within some fixed bound.  We believe
   that such indications could easily be implemented, during the stable
   periods, on top of ETOB."

   This component implements exactly that:

   - every process, on each revision of its output d_i, acknowledges the
     adopted sequence to the process it currently trusts;
   - a process that trusts itself counts, for each sequence length, how
     many distinct processes (itself included) currently hold that prefix
     of its promotion sequence; when a majority does, it marks the prefix
     committed and announces it;
   - processes record the longest announced committed prefix coming from
     their current leader.

   As the paper says, the indication is guaranteed *during stable periods*:
   once a majority of correct processes permanently trust one correct
   leader, every commitment extends the previous ones, because the leader's
   promotion sequence is prefix-monotone and acknowledgments only ever
   concern its prefixes.  During unstable periods the component simply
   (and safely) refrains: commitments require a majority of *current*
   acknowledgments naming this very leader, so two concurrently trusted
   leaders would need overlapping majorities trusting each at the same
   acknowledgment round.  The checkers in [Properties] measure, rather than
   assume, that announced commitments are never rolled back in a given run;
   the tests exercise both the guarantee under stability and the abstention
   under minority. *)

open Simulator

type Msg.payload +=
  | Commit_ack of { seq : Dseq.t }
  | Commit_mark of { seq : Dseq.t }

type Io.output += Committed of Dseq.t

type t = {
  ctx : Engine.ctx;
  promotion : unit -> Dseq.t;  (* the leader-side sequence we certify *)
  majority : int;
  acked : int array;  (* per process, length of our prefix it last acked *)
  mutable committed : Dseq.t;
}

let committed t = t.committed

let record t seq =
  t.committed <- seq;
  t.ctx.Engine.output (Committed seq)

(* Leader side: the k-th largest acknowledged length (k = majority) is the
   committed watermark.  Acks are never withdrawn, so after a change of
   promotion the watermark can exceed it; the prefix taken is then the
   whole promotion. *)
let try_commit t =
  let promotion = t.promotion () in
  t.acked.(t.ctx.Engine.self) <- Dseq.length promotion;
  let lengths = Array.copy t.acked in
  Array.sort (fun a b -> Int.compare b a) lengths;
  let watermark = lengths.(t.majority - 1) in
  if watermark > Dseq.length t.committed then begin
    let seq = Dseq.prefix promotion watermark in
    record t seq;
    t.ctx.Engine.broadcast (Commit_mark { seq })
  end

let create (ctx : Engine.ctx) ~omega ~etob ~promotion =
  let t =
    { ctx; promotion;
      majority = (ctx.Engine.n / 2) + 1;
      acked = Array.make ctx.Engine.n 0;
      committed = Dseq.empty }
  in
  (* Acknowledge every adoption to the process we currently trust. *)
  etob.Etob_intf.on_deliver (fun seq ->
      let leader = omega () in
      if leader <> ctx.Engine.self then
        ctx.Engine.send leader (Commit_ack { seq }));
  let on_message ~src payload =
    match payload with
    | Commit_ack { seq } ->
      (* Count the ack only while we trust ourselves and the acked sequence
         is (still) a prefix of our promotion: acknowledgments for another
         leader's sequence do not certify ours. *)
      if omega () = ctx.Engine.self && Dseq.is_prefix seq (t.promotion ()) then begin
        t.acked.(src) <- max t.acked.(src) (Dseq.length seq);
        try_commit t
      end
    | Commit_mark { seq } when omega () = src ->
      if Dseq.length seq > Dseq.length t.committed then record t seq
    | _ -> ()
  in
  let on_timer () = if omega () = ctx.Engine.self then try_commit t in
  (t, { Engine.on_message; on_timer; on_input = (fun _ -> ()) })

(* Crash-recovery: reinstate a durably logged commitment and re-announce
   it.  Commitments are externally visible promises ("not subject to
   further changes"), so the recoverable wrapper logs them with a sync
   barrier and the restored announcement extends the pre-crash one. *)
let restore t seq = if Dseq.length seq > 0 then record t seq

let () =
  Io.register_output_text (fun () ->
    let w = Dseq.writer () in
    fun b proc -> function
      | Committed seq -> Buffer.add_string b "committed:"; Dseq.write w b proc seq; true
      | _ -> false)
