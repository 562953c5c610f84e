(** Operational metrics for the repository service, exposed in the
    Prometheus text format at [GET /metrics].

    A small registry of families: each counter, gauge or histogram is
    declared once, with its name, help text and label names, and one
    generic loop renders them all.  Among them:
    - [bxwiki_requests_total{route,method,status}] — a counter per
      (route class, method, status) triple;
    - [bxwiki_http_errors_total{route,reason}] — responses with status
      >= 400 plus protocol-level failures (bad request line, body cap,
      read timeout) that never reach the handler;
    - [bxwiki_request_duration_seconds{route}] — a cumulative histogram
      of handling time per route class, on the monotonic clock;
    - [bxwiki_cache_hits_total] / [bxwiki_cache_misses_total] — the
      rendered-page cache ({!Respcache}) counters.

    Recording takes no lock.  Each domain counts into its own shard
    (held in [Domain.DLS]); a shard's series table is replaced, never
    mutated, when a series first appears, and a scrape sums the shards.
    Latency histograms are {!Bx_obs.Hist}s recorded in nanoseconds: the
    [le] bucket counts are read off them at the fixed bounds, so a
    bucket may include observations up to one slot (2{^-7} relative)
    above its bound; [_sum] and [_count] are exact.

    Routes are {e classes}, not raw paths ([entry], [entry.wiki],
    [entry.json], [index], [glossary], ...), so label cardinality stays
    bounded no matter what clients request. *)

type t

val create : unit -> t

val sample :
  t ->
  ?kind:string ->
  ?labels:string list ->
  string ->
  help:string ->
  (unit -> (string list * float) list) ->
  unit
(** [sample t name ~help read] registers a family whose series are read
    at scrape time: [read ()] returns one (label values, value) row per
    series.  [kind] is ["gauge"] (the default) or ["counter"] for
    counts kept elsewhere (lock statistics).  Register each family once,
    before serving. *)

val observe_request :
  t -> route:string -> meth:string -> status:int -> seconds:float -> unit
(** Record one completed request: bumps the request counter, the error
    counter when [status >= 400], and the route's latency histogram. *)

val protocol_error : t -> route:string -> reason:string -> unit
(** Record a request that failed before reaching the handler (malformed
    request line, oversized body, socket timeout...). *)

val observe_lens : t -> lens:string -> op:string -> docs:int -> bytes:int -> unit
(** Record one lens operation served over HTTP: [op] is [get], [put],
    [create] or their batch variants; [docs] the number of documents in
    the request, [bytes] the input payload size.  The engine-level
    counters ([bxwiki_slens_*], [bxwiki_delta_*], [bxwiki_fault_*]) are
    read from the runtimes' own stats at scrape. *)

val cache_hit : t -> unit
val cache_miss : t -> unit

val journal_recovery : t -> torn:bool -> crc_errors:int -> unit
(** Record what journal recovery found at boot: a truncated tail bumps
    [bxwiki_journal_torn_tail_total]; each checksum-rejected record
    bumps [bxwiki_journal_crc_errors_total]. *)

val compaction : t -> ok:bool -> unit
(** Record one compaction attempt; feeds
    [bxwiki_journal_compactions_total{result}] and the
    [bxwiki_journal_last_compaction_ok] gauge. *)

val shed : t -> reason:string -> unit
(** Record one connection shed by overload protection ([queue_full] when
    the pending queue is at capacity, [deadline] when it waited past its
    budget). *)

val stale_response : t -> gen_lag:int -> unit
(** Record one response served stale from the respcache by the brownout
    lane, [gen_lag] generations behind the live registry. *)

(** {1 Replication} *)

val replication_streamed : t -> records:int -> bytes:int -> unit
val replication_applied : t -> records:int -> unit
val replication_reconnect : t -> unit
val replication_snapshot_bootstrap : t -> unit
val replication_epoch_reject : t -> unit

val replication_gap : t -> unit
(** A sequence gap in the applied stream; the follower recovers by
    snapshot re-bootstrap. *)

val replication_digest_check : t -> matched:bool -> unit
(** One anti-entropy digest comparison; [matched = false] means at least
    one shard diverged. *)

val replication_shard_resync : t -> unit

(** {1 Integrity: digests and scrubber} *)

val digest_fold : t -> unit
(** One shard digest folded from the registry: its first request since
    boot or since an install replaced the shard. *)

val digest_hashed : t -> versions:int -> unit
(** [versions] entry versions printed and fed to a CRC for the shard
    digests: by a fold, or by a write on a folded shard. *)


val scrub_pass : t -> unit

val scrub_item : t -> surface:string -> n:int -> unit
(** [n] items examined on one surface ([journal], [snapshot], [entry] or
    [doc]). *)

val scrub_corruption : t -> surface:string -> unit

val render : t -> string
(** The Prometheus text exposition (version 0.0.4): [# HELP]/[# TYPE]
    preambles, then one line per labelled series, sorted by label values
    so output is deterministic. *)

(** {1 Introspection} (for tests and invariant checks; totals over all
    label values and shards) *)

val requests_total : t -> int
val errors_total : t -> int

val cache_counts : t -> int * int
(** (hits, misses). *)

val shed_by_reason : t -> string -> int

val stale_counts : t -> int * int
(** (stale responses served, cumulative generation lag). *)

val journal_recovery_counts : t -> int * int
(** (torn tails truncated, records rejected by checksum). *)

val digest_counts : t -> int * int
(** (shard folds, versions hashed for the digests). *)

val scrub_counts : t -> int * int * int
(** (passes, items examined, corruptions found). *)
