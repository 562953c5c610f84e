(** Journal-shipping replication: the protocol and the follower side.

    A primary serves its journal over a long-poll endpoint and a replica
    applies the stream to its own journal, so at any moment the replica
    is a crash-consistent prefix of the primary and can be promoted:

    {v
      GET /replication/stream?from=<seq>&epoch=<e>&wait=<s>
        200 "bxrepl 1 <epoch> <next_seq> <count>\n" ^ v2 frames
        200 "bxreset 1 <epoch> <floor>\n"      — [from] predates the
            snapshot floor: the follower must bootstrap from a snapshot
        409 — the poller carried a NEWER epoch: the serving node just
            learned it has been deposed and fences itself
      GET /replication/snapshot
        200 "bxsnap 1 <epoch> <seq> <count>\n" ^ one v2 frame per
            snapshot file (path = flat file name, body = contents)
    v}

    The record frames are exactly the journal's v2 on-disk format
    ({!Journal.encode}), so a follower validates every CRC independently
    of the transport and of the primary's disk.

    Epoch fencing: every stream response carries the serving node's
    epoch.  Promotion bumps and persists the epoch before accepting
    writes; a follower rejects any stream whose epoch is below its own,
    and a primary that observes a poll with a higher epoch refuses all
    subsequent writes.  Stale acknowledgements from a deposed primary
    can therefore never re-enter the replication graph.

    This module knows the wire format, the HTTP client and the retry
    loop; everything stateful (registry, journal, locks, metrics) stays
    in {!Service}, reached through the {!sink} callbacks.

    Failpoints: [repl.frame.read] fires on the follower between
    receiving a stream response and decoding its frames; the primary's
    [repl.stream.write], and the service-side [repl.apply] and
    [repl.promote], live in {!Service}. *)

type stream_reply =
  | Records of { epoch : int; next_seq : int; records : Journal.record list }
      (** records with [seq >= from], possibly empty; [next_seq] is the
          sequence number the primary will assign next, so
          [next_seq - follower's next] is the replication lag in
          records. *)
  | Bootstrap of { epoch : int; floor : int }
      (** [from] predates the snapshot floor — the intervening records
          were compacted away and the follower must install a snapshot. *)

val stream_body :
  epoch:int -> next_seq:int -> records:Journal.record list -> string

val reset_body : epoch:int -> floor:int -> string

val snapshot_body :
  epoch:int -> seq:int -> files:(string * string) list -> string

val parse_stream_body : string -> (stream_reply, string) result

val parse_snapshot_body :
  string -> (int * int * (string * string) list, string) result
(** [(epoch, seq, files)]. *)

type response = {
  status : int;
  headers : (string * string) list;
      (** in arrival order, names lower-cased, values trimmed *)
  body : string;
}

val exchange :
  host:string ->
  port:int ->
  ?timeout:float ->
  ?headers:(string * string) list ->
  meth:string ->
  path:string ->
  body:string ->
  unit ->
  (response, string) result
(** One loopback HTTP request, [Connection: close], sending [headers]
    after [Content-Length].  [timeout] (default 15 s) bounds each socket
    send and receive.  A malformed status line is an [Error]; transport
    failures raise, as [Unix.Unix_error], [End_of_file] (the server
    closed mid-response) or [Sys_error], so each caller names them in
    its own terms. *)

val request :
  host:string ->
  port:int ->
  ?timeout:float ->
  meth:string ->
  path:string ->
  body:string ->
  unit ->
  (int * string, string) result
(** {!exchange}, returning (status, body).  Connection failures and
    timeouts come back as [Error], never as exceptions. *)

type apply_error =
  [ `Gap of int * int
    (** (expected, got): the batch starts past our cursor — recoverable
        by snapshot bootstrap, and counted, not fatal *)
  | `Fail of string  (** anything else (journal write, injected fault) *)
  ]

type sink = {
  next_seq : unit -> int;  (** the sequence number we need next *)
  epoch : unit -> int;  (** the highest epoch we have observed *)
  observe_epoch : int -> unit;  (** adopt (and persist) a higher epoch *)
  apply : Journal.record list -> (unit, apply_error) result;
      (** journal and apply a batch; must tolerate a retried prefix *)
  install_snapshot :
    seq:int -> files:(string * string) list -> (unit, string) result;
  digests : unit -> (int * int) list;
      (** local per-shard content digests, as (shard, digest) rows *)
  install_shard :
    shard:int -> seq:int -> files:(string * string) list
    -> (unit, string) result;
      (** targeted anti-entropy repair: install one shard's snapshot
          payload without touching the others *)
  note_progress : behind:int -> unit;
      (** called after every successful poll with the record lag *)
  note_reconnect : unit -> unit;
  note_epoch_reject : unit -> unit;
  note_snapshot_bootstrap : unit -> unit;
  note_gap : expected:int -> got:int -> unit;
      (** a sequence gap was detected (and recovery is about to run) *)
  note_digest : matched:bool -> unit;
      (** an anti-entropy digest comparison completed *)
  should_stop : unit -> bool;
      (** polled between (and during) sleeps; promotion and shutdown
          both stop the loop *)
}

val poll_once :
  host:string -> port:int -> ?wait:float -> sink -> (int, string) result
(** One poll of the upstream: fetch, epoch-check, apply (or snapshot
    bootstrap).  Returns the records still outstanding after the batch
    was applied — 0 means caught up.  [wait] is the long-poll hold the
    primary is asked for (default 5 s).  A detected sequence gap is
    counted through [sink.note_gap] and healed by a snapshot bootstrap;
    a caught-up poll additionally runs one anti-entropy round: it
    compares [sink.digests ()] with the upstream's
    [GET /replication/digest] and re-bootstraps exactly the diverged
    shards through [sink.install_shard] (fully, when the shard counts
    disagree); an upstream without the endpoint skips the round. *)

val follow :
  host:string ->
  port:int ->
  ?wait:float ->
  ?min_sleep:float ->
  ?max_sleep:float ->
  sink ->
  unit
(** The follower loop: {!poll_once} until [should_stop].  Successful
    polls chain immediately (the long poll provides pacing); failures
    reconnect under capped decorrelated-jitter backoff — each sleep is
    drawn from [[min_sleep, 3 * previous]] and capped at [max_sleep]
    (defaults 0.05 s and 2 s), so a fleet of followers re-finding a
    recovered primary spreads out instead of stampeding. *)
