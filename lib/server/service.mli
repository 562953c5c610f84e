(** The repository as a service: {!Bx_repo.Registry} behind a
    reader/writer lock, handled by a pool of worker domains, made
    durable by the {!Journal} and observable through {!Metrics}.

    The seed [bxwiki] was a sequential connection-per-request loop with
    in-process-only state; this module supplies what the paper's
    section 5 "living repository" needs from its infrastructure:

    - {b Concurrency}: an accept loop feeds a queue drained by worker
      domains; GETs run under a shared read lock (and mostly out of the
      {!Respcache}), POSTs serialise under the write lock.  One slow
      client no longer stalls every other.
    - {b Durability}: with a journal directory configured, every
      accepted edit is fsync'd to the {!Journal} before the 200 is
      sent; startup replays the log on top of the last snapshot, and
      the log is compacted into a fresh snapshot every
      [compact_every] edits.  [kill -9] loses nothing acknowledged.
    - {b Hardened HTTP}: {!Httpd} parsing limits, per-socket read
      timeouts, keep-alive, and graceful shutdown — {!shutdown} (wired
      to SIGTERM by [bin/bxwiki]) stops the accept loop, drains
      in-flight work, writes a final snapshot and returns.
    - {b Observability}: [GET /metrics] serves the {!Metrics} in
      Prometheus text format. *)

type config = {
  journal_dir : string option;
      (** durable state lives here; [None] = in-memory only (the seed
          behaviour) *)
  shards : int;
      (** registry shards (default 1): each gets its own reader/writer
          lock, write generation and journal segment, so edits to (and
          compactions of) different shards never serialise against each
          other.  The shard count is part of the on-disk layout: opening
          an existing journal directory with a different count is an
          error, except that a legacy single-segment directory opened
          with [shards > 1] is migrated in place *)
  cache_capacity : int;  (** rendered-page cache entries, across shards *)
  cache_shards : int;
      (** rendered-page cache shards; set to the worker-domain count so
          domains never contend on a cache mutex (default 4) *)
  compact_every : int;
      (** snapshot + truncate once the log holds this many edits;
          [0] disables automatic compaction *)
  max_body : int;  (** request body cap in bytes *)
  read_timeout : float;  (** per-socket receive timeout, seconds *)
  queue_capacity : int;
      (** pending-connection bound: beyond it the accept loop sheds with
          a fast 503 + [Retry-After] instead of queueing *)
  queue_deadline : float;
      (** seconds a connection may wait queued before a worker sheds it
          unprocessed (the per-request deadline budget) *)
  write_timeout : float;
      (** per-socket send timeout, seconds — a slow reader cannot pin a
          worker *)
  failpoints_admin : bool;
      (** mount [GET/PUT /debug/failpoints]; defaults to whether
          [BXWIKI_FAILPOINTS] was present in the environment *)
  replica : bool;
      (** start in read-only replica mode: plain POSTs answer 503, state
          arrives through the replication apply path, and
          [POST /admin/promote] flips the node writable *)
  replica_lag_threshold : float;
      (** seconds of replication lag beyond which a replica reports not
          ready *)
  stream_wait : float;
      (** longest the stream endpoint holds an empty long poll open *)
  stream_max_records : int;
      (** record cap per stream response; a further-behind follower just
          polls again *)
  scrub_rate : int;
      (** items/second the background scrubber re-verifies (journal
          records, snapshot checksums, entry laws, document round
          trips); [0] (the default) disables the scrubber domain *)
  entry_law : (Bx_repo.Template.t -> (unit, string) result) option;
      (** an extra deterministic per-version check the scrubber runs on
          every entry (the CLI injects the QCheck law harness here, so
          the server library itself never depends on the test stack) *)
  brownout : bool;
      (** degrade reads instead of shedding them: admission overflow
          routes GETs to a dedicated lane that answers from the response
          cache at whatever generation it holds, marked with an
          [X-Bxwiki-Stale: <generation lag>] header (default true) *)
  min_concurrency : int;
      (** the floor the AIMD admission limit may decrease to (default
          8); the ceiling is [queue_capacity] *)
  chaos_admin : bool;
      (** mount [GET/PUT /debug/chaos] (see {!Bx_fault.Netchaos});
          defaults to whether [BXWIKI_CHAOS] or [BXWIKI_FAILPOINTS] was
          present in the environment *)
}

val default_config : config
(** No journal, 256 cached pages, compact every 64 edits, 1 MiB bodies,
    10 s read timeout, 4 lens workers, 256 queued connections, 5 s queue
    deadline, 10 s write timeout, failpoint admin iff
    [BXWIKI_FAILPOINTS] is set; primary role, 5 s lag threshold, 5 s
    stream hold, 512 records per stream response; scrubber off, no
    injected entry law; brownout on with an AIMD floor of 8, chaos admin
    iff [BXWIKI_CHAOS] or [BXWIKI_FAILPOINTS] is set. *)

type t

val create :
  ?config:config
  -> ?pages:(string * (unit -> string * string)) list
  -> ?lenses:(string * Bx_strlens.Slens.t) list
  -> seed:(unit -> Bx_repo.Registry.t)
  -> unit
  -> (t, string) result
(** [seed] produces the registry used when there is no snapshot to load
    (first boot, or no journal configured).  [pages] adds extra GET
    routes exactly as in {!Bx_repo.Webui.handle}.  [lenses] registers
    named string lenses served at [POST /slens/<name>/<op>] — see
    {!handle}.  With a journal directory the snapshot is loaded (or
    [seed] run), the log replayed, and the log opened for appending. *)

val handle :
  t -> meth:string -> path:string -> body:string -> Bx_repo.Webui.response
(** One request through locks, cache, journal and metrics — the
    transport-free core, used by every worker and directly by tests and
    benchmarks.  [GET /metrics] is answered here, as are the health
    probes ([GET /healthz] — process liveness, always 200 — and
    [GET /readyz] — 200 only while the journal is writable, the service
    is not draining, and the pending queue is below its high-water mark;
    503 with the reasons otherwise) and, when [failpoints_admin] is set,
    the fault-injection admin route ([GET /debug/failpoints] shows the
    current rules, [PUT] replaces them with the body's
    [site=ACTION;...] spec — an empty body clears them).

    Replication routes (see {!Replication} for the protocol):
    [GET /replication/stream?from=N&epoch=E&wait=S] long-polls the
    journal, [GET /replication/snapshot] ships the snapshot for
    bootstrap ([?shard=K] seals and ships exactly one segment — the
    targeted anti-entropy payload), [GET /replication/digest] serves
    the per-shard content digests a caught-up follower compares, and
    [POST /admin/promote] promotes a replica.

    Quarantine semantics: a 200 for an entry the scrubber has flagged
    carries a [Warning: 299] header naming the finding; a flagged
    document answers 410 until repaired or resynced.  On a
    replica, every other POST (except lens execution, which touches no
    registry state) answers 503; on a fenced primary — one that has
    observed a newer epoch — they answer 503 too.  {!handle} itself
    carries no query string; {!handle_query} is the variant the socket
    workers (and replication tests) use.

    An injected fault ({!Bx_fault.Fault.Injected}) escaping any handler
    is answered as a 503, the same shape as overload, so the retrying
    client's backoff covers both.

    Registered lenses are served at [POST /slens/<name>/<op>], bypassing
    the registry lock (lens runs touch no shared state):
    - [get] / [create]: the body is the document, the response its image;
    - [put]: body is [view RS source] (RS = byte 0x1e);
    - [get_batch]: body is RS-separated sources, answered in order;
    - [put_batch]: RS-separated records of [view US source] (US = 0x1f).
    Batch operations run in order on the worker domain that received
    the request ({!Bx_strlens.Slens.get_all}/[put_all] at width 1); no
    request spawns a domain.  Fanning out loses: every OCaml 5 minor
    collection stops all domains and a domain costs ~0.67 ms to spawn
    and join.  On two cores, eight ~20 kB Composers documents took about
    5 ms (get) / 16 ms (put) inline and 7 / 20 ms over four domains.  One
    ill-typed document fails the whole batch with a 422, never a partial
    body; a [put_batch] record without US is a 400; unknown lenses and
    ops are 404. *)

val handle_query :
  ?deadline:float ->
  t ->
  query:string ->
  meth:string ->
  path:string ->
  body:string ->
  Bx_repo.Webui.response
(** {!handle} with the request's raw query string ([""] for none) —
    the replication stream endpoint reads its parameters from it.

    [deadline] is the request's absolute deadline ({!Bx_obs.Clock.now}
    clock), parsed by the socket workers from the [X-Bxwiki-Deadline]
    header (a millisecond budget).  An exhausted deadline sheds with 504
    and [bxwiki_shed_total{reason="deadline_propagated"}] — checked
    before dispatch, re-checked after lock acquisition and before the
    in-memory apply + journal fsync on the write paths, and used to
    clamp the replication long-poll hold.  Expired GETs are answered
    stale from the cache when [brownout] allows.  Operational routes
    ([/metrics], health probes, [/debug/*], the replication plane,
    [/admin/promote]) never shed on a deadline. *)

val serve :
  t
  -> ?port:int
  -> ?workers:int
  -> ?port_file:string
  -> ?quiet:bool
  -> unit
  -> (unit, string) result
(** Bind the loopback interface ([port] 0 picks an ephemeral port,
    written to [port_file] when given), spawn [workers] domains, and
    block until {!shutdown}.  On the way out: drain, final
    {!checkpoint}, close the journal. *)

val shutdown : t -> unit
(** Ask a running {!serve} to stop; safe from a signal handler or
    another thread.  Idempotent. *)

val checkpoint : t -> (int, string) result
(** Write a snapshot now and truncate the journal (no-op count 0 when
    no journal is configured).  Takes the write lock. *)

val close : t -> unit
(** Release the journal file descriptor without checkpointing — for
    tests that want the next {!create} to exercise log replay. *)

(** {1 Introspection} *)

val metrics : t -> Metrics.t
val metrics_text : t -> string
val generation : t -> int
(** Bumped on every accepted write; the {!Respcache} key. *)

val replay_stats : t -> int * int
(** (records applied, records that failed to apply) during {!create}. *)

val lock_stats : t -> (string * string * int * int) list
(** Contention counters per (lock, mode): acquisitions since boot and
    how many of them had to block.  Rows: [("registry", "read", ...)],
    [("registry", "write", ...)], [("respcache", "all", ...)].  Also
    exported as [bxwiki_lock_*] at [/metrics]; the load benchmarks
    diff these across a run to name the lock that flattens a scaling
    curve. *)

val port : t -> int option
(** The bound port while {!serve} runs. *)

val ready : t -> bool
(** The [/readyz] predicate, directly. *)

val readiness : t -> string list
(** Why the service is not ready ([[]] when it is): any of
    [journal_unwritable], [draining], [queue_high_water],
    [replica_syncing] (a replica that has not yet caught up),
    [replication_lag] (a replica whose lag exceeds
    [replica_lag_threshold]), [fenced] (a deposed primary),
    [corruption_burst] (five or more fresh corruption findings inside
    the last minute — the medium is failing, drain traffic away),
    [journal_disk_full] (a sticky ENOSPC latched by a journal append:
    the node is read-only until an operator frees space and
    restarts). *)

val queue_depth : t -> int
(** Pending connections currently queued for a worker. *)

val concurrency_limit : t -> int
(** The AIMD adaptive admission limit right now: halved (at most once
    per 100ms) whenever admission overflows, bumped by one per promptly
    served connection, kept within
    [[min_concurrency, queue_capacity]]. *)

val with_registry : t -> (Bx_repo.Registry.t -> 'a) -> 'a
(** Run [f] under the read lock — for invariant checks in tests. *)

(** {1 Integrity} *)

val scrub_once :
  ?rate:float -> ?stop:(unit -> bool) -> t -> int * (string * string) list
(** One full scrub pass over every storage surface — journal record
    CRCs, snapshot checksums against their [DIGESTS], entry round-trip
    laws (plus [config.entry_law]), document view/source agreement.
    [rate] paces it through a token bucket (0 = unmetered, the offline
    [bxwiki scrub] mode); [stop] aborts between items.  Findings are
    quarantined and counted ([bxwiki_scrub_*]); healthy items clear
    stale flags.  Returns (items checked, (name, error) findings).
    Each item checks under its own shard's read lock, so a running
    server keeps serving. *)

val quarantine : t -> Integrity.Quarantine.t
(** The live quarantine set — corrupted-but-never-dropped data. *)

val shard_digests : t -> (int * int) list
(** The per-shard content digests, as served at
    [GET /replication/digest] — maintained incrementally in O(|item|)
    per write, recomputed wholesale only at boot and snapshot
    installs. *)

(** {1 Replication} *)

val promote : t -> (int, string) result
(** Flip a replica to writable primary: bump the epoch, persist it
    (journaled services), then accept writes — in that order, so a crash
    mid-promotion leaves at worst an advanced epoch.  Refused on a
    primary and on a replica that has never synced.  Returns the new
    epoch.  Failpoint: [repl.promote]. *)

val follow :
  t ->
  host:string ->
  port:int ->
  ?wait:float ->
  ?min_sleep:float ->
  ?max_sleep:float ->
  unit ->
  unit
(** Run the follower loop against an upstream, blocking until
    {!shutdown} or {!promote} stops it — callers that want a hot standby
    run it in a [Thread].  [wait] is the long-poll hold requested from
    the upstream; [min_sleep]/[max_sleep] bound the reconnect backoff
    (see {!Replication.follow}). *)

val replication_sink : t -> Replication.sink
(** The service wired up as a {!Replication.sink} — lets tests drive
    {!Replication.poll_once} synchronously. *)

val is_replica : t -> bool
val epoch : t -> int
val fenced : t -> bool
(** Whether this node observed a newer epoch and now rejects writes. *)

val replication_lag : t -> float
(** Seconds this replica may be stale: 0 while demonstrably caught up
    (always 0 on a primary). *)

val replication_behind : t -> int
(** Record lag reported by the last successful poll. *)

val replication_synced : t -> bool
(** Whether this replica has ever fully caught up. *)

val last_stream_poll : t -> int
(** The highest [from] any follower has polled this node with — every
    record below it is known applied downstream.  The failover tests use
    it to wait for a replica without back-channels. *)
