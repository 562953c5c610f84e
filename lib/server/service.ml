type config = {
  journal_dir : string option;
  shards : int;
  cache_shards : int;
  compact_every : int;
  read_timeout : float;
  queue_capacity : int;
  queue_deadline : float;
  failpoints_admin : bool;
  replica : bool;
  replica_lag_threshold : float;
  stream_wait : float;
  stream_max_records : int;
  scrub_rate : int;
  entry_law : (Bx_repo.Template.t -> (unit, string) result) option;
  brownout : bool;
  min_concurrency : int;
  chaos_admin : bool;
}

let default_config =
  {
    journal_dir = None;
    shards = 1;
    cache_shards = 4;
    compact_every = 64;
    read_timeout = 10.0;
    queue_capacity = 256;
    queue_deadline = 5.0;
    failpoints_admin = Bx_fault.Fault.env_configured;
    replica = false;
    replica_lag_threshold = 5.0;
    stream_wait = 5.0;
    stream_max_records = 512;
    scrub_rate = 0;
    entry_law = None;
    brownout = true;
    min_concurrency = 8;
    chaos_admin = Bx_fault.Netchaos.env_configured || Bx_fault.Fault.env_configured;
  }

(* Rendered-page cache entries, across shards. *)
let cache_capacity = 256

(* Per-socket send timeout, seconds: a slow reader cannot pin a worker. *)
let write_timeout = 10.0

(* ------------------------------------------------------------------ *)
(* A writer-preferring reader/writer lock.  Writers are rare (edits) and
   must not starve behind a stream of page views. *)

module Rwlock = struct
  type t = {
    m : Mutex.t;
    ok_read : Condition.t;
    ok_write : Condition.t;
    mutable readers : int;
    mutable writing : bool;
    mutable waiting_writers : int;
    (* Contention accounting: every acquisition, plus the ones that had
       to block — on the guard mutex itself or behind a conflicting
       holder.  The load benchmarks read these to tell whether a flat
       scaling curve is this lock's fault. *)
    reads : int Atomic.t;
    writes : int Atomic.t;
    reads_contended : int Atomic.t;
    writes_contended : int Atomic.t;
  }

  let create () =
    {
      m = Mutex.create ();
      ok_read = Condition.create ();
      ok_write = Condition.create ();
      readers = 0;
      writing = false;
      waiting_writers = 0;
      reads = Atomic.make 0;
      writes = Atomic.make 0;
      reads_contended = Atomic.make 0;
      writes_contended = Atomic.make 0;
    }

  (* Take the guard mutex, reporting whether we had to block for it. *)
  let lock_guard t =
    if Mutex.try_lock t.m then false
    else begin
      Mutex.lock t.m;
      true
    end

  let read t f =
    Atomic.incr t.reads;
    let blocked = lock_guard t in
    let blocked = blocked || t.writing || t.waiting_writers > 0 in
    while t.writing || t.waiting_writers > 0 do
      Condition.wait t.ok_read t.m
    done;
    if blocked then Atomic.incr t.reads_contended;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock t.m;
        t.readers <- t.readers - 1;
        if t.readers = 0 then Condition.signal t.ok_write;
        Mutex.unlock t.m)

  let write t f =
    Atomic.incr t.writes;
    let blocked = lock_guard t in
    let blocked = blocked || t.writing || t.readers > 0 in
    t.waiting_writers <- t.waiting_writers + 1;
    while t.writing || t.readers > 0 do
      Condition.wait t.ok_write t.m
    done;
    t.waiting_writers <- t.waiting_writers - 1;
    t.writing <- true;
    if blocked then Atomic.incr t.writes_contended;
    Mutex.unlock t.m;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock t.m;
        t.writing <- false;
        Condition.broadcast t.ok_read;
        Condition.signal t.ok_write;
        Mutex.unlock t.m)

  let stats t =
    ( Atomic.get t.reads,
      Atomic.get t.reads_contended,
      Atomic.get t.writes,
      Atomic.get t.writes_contended )
end

type t = {
  config : config;
  mutable registry : Bx_repo.Registry.t;
      (* replaced wholesale by a snapshot bootstrap, under every lock's
         write side; everything else reads it under a read side *)
  locks : Rwlock.t array;
      (* one reader/writer lock per registry shard: edits to entries in
         different shards do not serialise against each other, and an
         entry read only ever waits on its own shard's writer *)
  pages : (string * (unit -> string * string)) list;
  lenses : (string * Bx_strlens.Slens.t) list;
  docstore : Docstore.t;
      (* lens-backed documents; mutations ride shard 0's write lock and
         journal segment (lock order: shard lock, then the store's own
         mutex) *)
  pages_mutex : Mutex.t;
      (* extra-page thunks may force lazies; serialise them so worker
         domains cannot race inside [Lazy.force] *)
  log : Shardlog.t option;
  metrics : Metrics.t;
  cache : Respcache.t;
  gens : int array;
      (* per-shard write generations, each guarded by its shard lock's
         write side; the service-wide generation is their sum, so it
         still advances by one on every accepted write *)
  digests : int array;
      (* per-shard content digests (XOR over entry hashes; shard 0 also
         folds the docstore), maintained incrementally under the same
         write locks as [gens] — the O(shards) anti-entropy currency *)
  quarantine : Integrity.Quarantine.t;
  cm : Mutex.t; (* guards [corruption_times] *)
  mutable corruption_times : float list;
      (* when each fresh corruption was found, pruned to the last 60 s:
         a burst flips /readyz *)
  replay_applied : int;
  replay_failed : int;
  stop : bool Atomic.t;
  journal_ok : bool Atomic.t;
      (* false after a failed append, true again after a successful one;
         feeds /readyz *)
  disk_full : bool Atomic.t;
      (* sticky: ENOSPC at the journal means no retry can succeed until
         an operator frees space, so writes stay refused (503) and
         /readyz stays down while reads keep serving *)
  mutable bound_port : int option;
  (* connection queue between the accept loop and the workers; each
     entry remembers when it was enqueued so workers can shed
     connections that waited past their deadline budget *)
  qm : Mutex.t;
  qc : Condition.t;
  queue : (Unix.file_descr * float) Queue.t;
  mutable accepting : bool;
  (* AIMD adaptive admission: [limit] replaces the static queue capacity
     as the admission bound — halved (at most once per window) when
     admission overflows, grown by one per timely completion, kept in
     [min_concurrency, queue_capacity].  [last_md] is guarded by qm. *)
  limit : int Atomic.t;
  mutable last_md : float;
  (* the brownout lane: connections the admission controller refused are
     parked here and answered from the respcache (stale, labelled) by a
     dedicated degraded worker instead of being shed outright *)
  dqm : Mutex.t;
  dqc : Condition.t;
  dqueue : (Unix.file_descr * float) Queue.t;
  mutable daccepting : bool;
  (* Replication.  [replica] flips to false on promotion; [epoch] is the
     highest epoch this node has observed (persisted when journaled);
     [fenced_by] is the epoch that deposed this primary (0 = none);
     [applied_next] is the next sequence number this node will journal —
     the follower's poll cursor and the primary's stream head alike. *)
  replica : bool Atomic.t;
  epoch : int Atomic.t;
  fenced_by : int Atomic.t;
  applied_next : int Atomic.t;
  last_stream_from : int Atomic.t;
      (* the highest [from] any follower has polled with — everything
         below it is known applied downstream *)
  created_at : float;
  rm : Mutex.t; (* guards the follower-progress fields below *)
  mutable repl_synced : bool; (* caught up at least once *)
  mutable repl_behind : int; (* record lag at the last successful poll *)
  mutable repl_last_sync : float; (* when [repl_behind] last hit 0 *)
  mutable repl_allowance : float;
      (* the long-poll hold: an idle follower's [repl_last_sync] is
         legitimately this stale *)
}

let metrics t = t.metrics

(* Nested acquisition over every shard lock, always in index order, so
   an all-shard reader/writer (index page, replication, promotion) can
   never deadlock against another. *)
let read_shard t k f = Rwlock.read t.locks.(k) (fun () -> f ())

let write_shard t k f = Rwlock.write t.locks.(k) (fun () -> f ())

let read_all t f =
  let rec go k = if k = Array.length t.locks then f () else Rwlock.read t.locks.(k) (fun () -> go (k + 1)) in
  go 0

let write_all t f =
  let rec go k = if k = Array.length t.locks then f () else Rwlock.write t.locks.(k) (fun () -> go (k + 1)) in
  go 0

let total_gen t = Array.fold_left ( + ) 0 t.gens
let generation t = total_gen t
let replay_stats t = (t.replay_applied, t.replay_failed)
let port t = t.bound_port
let with_registry t f = read_all t (fun () -> f t.registry)
let metrics_text t = Metrics.render t.metrics

let lock_stats t =
  (* Shard locks are one logical registry lock to observers: the rows
     (and the /metrics series behind them) keep their pre-sharding
     labels, summed across shards. *)
  let reads, reads_c, writes, writes_c =
    Array.fold_left
      (fun (r, rc, w, wc) lock ->
        let r', rc', w', wc' = Rwlock.stats lock in
        (r + r', rc + rc', w + w', wc + wc'))
      (0, 0, 0, 0) t.locks
  in
  let cache_acq, cache_cont = Respcache.lock_stats t.cache in
  [
    ("registry", "read", reads, reads_c);
    ("registry", "write", writes, writes_c);
    ("respcache", "all", cache_acq, cache_cont);
  ]

(* ------------------------------------------------------------------ *)
(* Integrity bookkeeping: per-shard content digests and the quarantine *)

(* The docstore's contribution to shard 0's digest (documents ride
   shard 0's snapshot and write lock). *)
let doc_digest t =
  List.fold_left
    (fun acc (lens, docid, gen, source) ->
      acc lxor Integrity.doc_hash ~lens ~docid ~gen ~source)
    0
    (Docstore.doc_digest_parts t.docstore)

(* Full recomputation — boot, snapshot install, shard resync.  Steady
   state maintains the same value incrementally: every accepted write
   XORs the mutated item's hash out (pre-image) and back in
   (post-image), O(|item|) per write.  Caller holds the shard's write
   lock. *)
let recompute_shard_digest t k =
  let d = Integrity.shard_digest_of t.registry k in
  t.digests.(k) <- (if k = 0 then d lxor doc_digest t else d)

let recompute_digests t =
  Array.iteri (fun k _ -> recompute_shard_digest t k) t.digests

let shard_digests t =
  read_all t (fun () ->
      Array.to_list (Array.mapi (fun k d -> (k, d)) t.digests))

let quarantine t = t.quarantine

let note_corruption t =
  Mutex.lock t.cm;
  let now = Bx_obs.Clock.now () in
  t.corruption_times <-
    now :: List.filter (fun ts -> now -. ts < 60.) t.corruption_times;
  Mutex.unlock t.cm

(* Five fresh corruptions inside a minute is no longer bit rot, it is a
   failing disk (or an attack): stop advertising readiness so the load
   balancer drains this node while it still serves what it can. *)
let corruption_burst t =
  Mutex.lock t.cm;
  let now = Bx_obs.Clock.now () in
  t.corruption_times <-
    List.filter (fun ts -> now -. ts < 60.) t.corruption_times;
  let n = List.length t.corruption_times in
  Mutex.unlock t.cm;
  n >= 5

(* Flag a finding: quarantined data keeps serving (entries under a
   Warning header, documents as 410, files excluded from loads) but is
   never silently dropped.  Counted once per distinct finding. *)
let flag_corruption t key ~surface ~why =
  if Integrity.Quarantine.flag t.quarantine key ~reason:why then begin
    Metrics.scrub_corruption t.metrics ~surface;
    note_corruption t;
    Printf.eprintf "bxwiki: integrity: %s: %s\n%!"
      (Integrity.Quarantine.key_name key)
      why
  end

(* ------------------------------------------------------------------ *)
(* Boot: snapshot, then log replay *)

(* Documents persist in shard 0's snapshot. *)
let load_docs docstore log =
  Docstore.load_dir docstore ~dir:(Shardlog.snapshot_dir log 0)

let is_slens_path path =
  String.length path > 7 && String.sub path 0 7 = "/slens/"

let replay_edits registry docstore records =
  List.fold_left
    (fun (ok, failed) (r : Journal.record) ->
      if is_slens_path r.path then
        (* Lens-document records replay against the docstore; the
           registry never sees them. *)
        match Docstore.apply docstore ~path:r.path ~body:r.body with
        | Ok () -> (ok + 1, failed)
        | Error e ->
            Printf.eprintf
              "bxwiki: journal record %d (%s) no longer applies (%s)\n%!"
              r.seq r.path e;
            (ok, failed + 1)
      else
        let response =
          Bx_repo.Webui.handle registry ~meth:"POST" ~path:r.path ~body:r.body
        in
        if response.Bx_repo.Webui.status = 200 then (ok + 1, failed)
        else begin
          Printf.eprintf
            "bxwiki: journal record %d (%s) no longer applies (status %d)\n%!"
            r.seq r.path response.Bx_repo.Webui.status;
          (ok, failed + 1)
        end)
    (0, 0) records

(* Per-shard snapshot writer: segment [k] dumps only shard [k], so
   compacting one segment costs O(shard), not O(catalogue). *)
let save_shard_cb t k ~dir =
  match Bx_repo.Store.save_shard ~dir t.registry k with
  | Error _ as e -> e
  | Ok n ->
      (* Lens-backed documents ride shard 0's snapshot as one extra flat
         file; every other loader ignores it (page files are recognised
         by name). *)
      if k <> 0 || Docstore.doc_count t.docstore = 0 then Ok n
      else
        match Docstore.save_dir t.docstore ~dir with
        | Ok () -> Ok (n + 1)
        | Error e -> Error e

let checkpoint_shard_locked t k =
  (* Caller holds shard [k]'s write lock. *)
  match t.log with
  | None -> Ok 0
  | Some log ->
      let result =
        Shardlog.checkpoint_shard log ~shard:k ~save:(fun ~dir ->
            save_shard_cb t k ~dir)
      in
      Metrics.compaction t.metrics ~ok:(Result.is_ok result);
      result

let checkpoint_all_locked t =
  (* Caller holds every write lock (or is single-threaded at boot or
     shutdown): all segments seal at the same global cut. *)
  match t.log with
  | None -> Ok 0
  | Some log ->
      let result =
        Shardlog.checkpoint_all log ~save:(fun k ~dir -> save_shard_cb t k ~dir)
      in
      Metrics.compaction t.metrics ~ok:(Result.is_ok result);
      result

(* ------------------------------------------------------------------ *)
(* What /metrics samples rather than counts: read at scrape time,
   registered once per service. *)

let fenced t = Atomic.get t.fenced_by > 0

let replication_behind t =
  Mutex.lock t.rm;
  let b = t.repl_behind in
  Mutex.unlock t.rm;
  b

(* How stale this replica's data may be: 0 while it is demonstrably
   caught up (the idle long-poll hold is legitimate staleness and is
   allowed for), growing from the moment it last knew it was current —
   whether because records are queueing up or because the primary has
   gone quiet.  A replica that has never synced is lagging since
   birth. *)
let replication_lag t =
  if not (Atomic.get t.replica) then 0.
  else begin
    let now = Bx_obs.Clock.now () in
    Mutex.lock t.rm;
    let lag =
      if not t.repl_synced then now -. t.created_at
      else if t.repl_behind > 0 then now -. t.repl_last_sync
      else Float.max 0. (now -. t.repl_last_sync -. t.repl_allowance)
    in
    Mutex.unlock t.rm;
    lag
  end

let queue_depth t =
  Mutex.lock t.qm;
  let n = Queue.length t.queue in
  Mutex.unlock t.qm;
  n

let register_sampled t =
  let gauge ?kind ?labels name help read =
    Metrics.sample t.metrics ?kind ?labels name ~help read
  in
  let counter ?labels name help read = gauge ~kind:"counter" ?labels name help read in
  let one v = [ ([], float_of_int v) ] in
  gauge "bxwiki_queue_depth"
    "Pending connections queued for a worker (sampled at scrape)."
    (fun () -> one (queue_depth t));
  gauge "bxwiki_concurrency_limit"
    "AIMD adaptive admission limit (sampled at scrape)."
    (fun () -> one (Atomic.get t.limit));
  gauge "bxwiki_journal_disk_full"
    "1 while the journal has hit ENOSPC and writes are refused."
    (fun () -> one (Bool.to_int (Atomic.get t.disk_full)));
  let locks pick () =
    List.map
      (fun (lock, mode, acq, cont) -> ([ lock; mode ], float_of_int (pick acq cont)))
      (lock_stats t)
  in
  counter ~labels:[ "lock"; "mode" ] "bxwiki_lock_acquisitions_total"
    "Lock acquisitions by lock and mode (sampled at scrape)."
    (locks (fun acq _ -> acq));
  counter ~labels:[ "lock"; "mode" ] "bxwiki_lock_contended_total"
    "Lock acquisitions that had to block behind another holder."
    (locks (fun _ cont -> cont));
  gauge "bxwiki_respcache_shards" "Response-cache shards (one per worker domain)."
    (fun () -> one (Respcache.shard_count t.cache));
  gauge "bxwiki_respcache_entries"
    "Cached rendered responses across all shards (sampled at scrape)."
    (fun () -> one (Respcache.size t.cache));
  gauge "bxwiki_registry_shards" "Registry shards (identifier-hashed partitions)."
    (fun () -> one (Bx_repo.Registry.shard_count t.registry));
  gauge "bxwiki_registry_entries"
    "Catalogue entries across all registry shards (sampled at scrape)."
    (fun () -> one (Bx_repo.Registry.size t.registry));
  gauge ~labels:[ "kind" ] "bxwiki_quarantine_size"
    "Items currently quarantined, by kind (sampled at scrape)."
    (fun () ->
      let entries, docs, files = Integrity.Quarantine.counts t.quarantine in
      List.map (fun (k, n) -> ([ k ], float_of_int n))
        [ ("entry", entries); ("doc", docs); ("file", files) ]);
  gauge "bxwiki_replication_epoch"
    "The replication epoch this node believes is current."
    (fun () -> one (Atomic.get t.epoch));
  gauge "bxwiki_replication_fenced"
    "Whether this node has been deposed by a newer epoch (writes rejected)."
    (fun () -> one (Bool.to_int (fenced t)));
  gauge ~labels:[ "role" ] "bxwiki_replication_role"
    "Role of this node (1 for the held role)."
    (fun () ->
      let r = Bool.to_int (Atomic.get t.replica) in
      [ ([ "replica" ], float_of_int r); ([ "primary" ], float_of_int (1 - r)) ]);
  gauge "bxwiki_replication_lag_seconds"
    "Time since this replica was last known caught up (0 when in sync)."
    (fun () -> [ ([], replication_lag t) ]);
  gauge "bxwiki_replication_behind_records"
    "Records the upstream had that this replica had not applied at last poll."
    (fun () -> one (replication_behind t));
  (* The engines' own counters: process-global atomics in the string-lens
     and fault runtimes, read where they live. *)
  let slens pick () = one (pick (Bx_strlens.Slens.stats ())) in
  counter "bxwiki_slens_bytes_processed_total" "Input bytes through the string-lens engine."
    (slens (fun s -> s.bytes));
  counter "bxwiki_slens_splits_total" "Split decisions made by the slice engine."
    (slens (fun s -> s.splits));
  counter "bxwiki_slens_ctx_reuse_total"
    "Lens runs that reused their domain's execution context."
    (slens (fun s -> s.ctx_reuse));
  counter "bxwiki_slens_ctx_fresh_total"
    "Lens runs that allocated a fresh execution context."
    (slens (fun s -> s.ctx_fresh));
  counter ~labels:[ "outcome" ] "bxwiki_slens_chunks_total"
    "Star put chunks spliced verbatim, re-put through the body, or created."
    (fun () ->
      let s = Bx_strlens.Slens.stats () in
      List.map (fun (o, n) -> ([ o ], float_of_int n))
        [ ("spliced", s.chunks_spliced); ("put", s.chunks_put); ("created", s.chunks_created) ]);
  (* The runtime's allocation and collection counts, all domains. *)
  let gc rows () =
    let s = Gc.quick_stat () in
    List.map (fun (kind, pick) -> ([ kind ], pick s)) rows
  in
  counter ~labels:[ "kind" ] "bxwiki_gc_collections_total"
    "Minor and major garbage collections."
    (gc
       [ ("minor", fun s -> float_of_int s.Gc.minor_collections);
         ("major", fun s -> float_of_int s.Gc.major_collections) ]);
  counter ~labels:[ "kind" ] "bxwiki_gc_words_total"
    "Words allocated in the minor heap, promoted out of it, and allocated \
     in the major heap (promoted words included)."
    (gc
       [ ("minor", fun s -> s.Gc.minor_words); ("promoted", fun s -> s.Gc.promoted_words);
         ("major", fun s -> s.Gc.major_words) ]);
  let delta rows () =
    let s = Bx_strlens.Slens_delta.stats () in
    List.map (fun (l, pick) -> ([ l ], float_of_int (pick s))) rows
  in
  let open Bx_strlens.Slens_delta in
  counter ~labels:[ "path" ] "bxwiki_delta_puts_total" "put_delta calls, by tier."
    (delta
       [ ("fast", fun s -> s.fast_puts); ("slow", fun s -> s.slow_puts);
         ("fallback", fun s -> s.fallback_puts) ]);
  counter ~labels:[ "path" ] "bxwiki_delta_gets_total" "get_delta calls, by tier."
    (delta [ ("fast", fun s -> s.fast_gets); ("fallback", fun s -> s.fallback_gets) ]);
  counter ~labels:[ "action" ] "bxwiki_delta_chunks_total"
    "Chunks spliced verbatim vs re-run through the body lens."
    (delta
       [ ("reused", fun s -> s.chunks_reused); ("recomputed", fun s -> s.chunks_recomputed) ]);
  counter ~labels:[ "kind" ] "bxwiki_delta_bytes_total"
    "Edit payload bytes vs the full documents they stand for."
    (delta [ ("delta", fun s -> s.delta_bytes); ("full", fun s -> s.full_bytes) ]);
  let faults pick () =
    List.map (fun (site, hits, fired) -> ([ site ], float_of_int (pick hits fired)))
      (Bx_fault.Fault.stats ())
  in
  counter ~labels:[ "site" ] "bxwiki_fault_hits_total"
    "Failpoint evaluations, per configured site." (faults (fun h _ -> h));
  counter ~labels:[ "site" ] "bxwiki_fault_fired_total"
    "Failpoint actions actually taken, per configured site." (faults (fun _ f -> f))

let create ?(config = default_config) ?(pages = []) ?(lenses = []) ~seed () =
  let metrics = Metrics.create () in
  let shards = max 1 config.shards in
  (* Shard assignment must agree with the journal segment layout, so a
     seed partitioned differently is re-sharded (export/import re-hashes
     every entry). *)
  let resharded registry =
    if Bx_repo.Registry.shard_count registry = shards then Ok registry
    else Bx_repo.Registry.import ~shards (Bx_repo.Registry.export registry)
  in
  (* Built before replay: journalled lens-document records apply to the
     docstore, not the registry. *)
  let docstore = Docstore.create ~lenses in
  let fresh ~registry ~log ~applied ~failed =
    (* Epoch at boot: a primary starts at (at least) 1 and persists it,
       so any future promotion elsewhere necessarily fences it; a
       replica starts from whatever it last persisted (0 when it has
       never observed a primary). *)
    let persisted =
      match config.journal_dir with
      | Some dir -> Journal.read_epoch ~dir
      | None -> 0
    in
    let epoch0 =
      if config.replica then persisted else max 1 persisted
    in
    (if (not config.replica) && persisted < epoch0 then
       match config.journal_dir with
       | Some dir -> (
           match Journal.write_epoch ~dir epoch0 with
           | Ok () -> ()
           | Error e -> Printf.eprintf "bxwiki: epoch persist: %s\n%!" e)
       | None -> ());
    let t = {
      config;
      registry;
      locks = Array.init shards (fun _ -> Rwlock.create ());
      pages;
      lenses;
      docstore;
      pages_mutex = Mutex.create ();
      log;
      metrics;
      cache =
        Respcache.create ~capacity:cache_capacity
          ~shards:config.cache_shards metrics;
      gens = Array.make shards 0;
      digests = Array.make shards 0;
      quarantine = Integrity.Quarantine.create ();
      cm = Mutex.create ();
      corruption_times = [];
      replay_applied = applied;
      replay_failed = failed;
      stop = Atomic.make false;
      journal_ok = Atomic.make true;
      disk_full = Atomic.make false;
      bound_port = None;
      qm = Mutex.create ();
      qc = Condition.create ();
      queue = Queue.create ();
      accepting = false;
      limit = Atomic.make config.queue_capacity;
      last_md = 0.;
      dqm = Mutex.create ();
      dqc = Condition.create ();
      dqueue = Queue.create ();
      daccepting = false;
      replica = Atomic.make config.replica;
      epoch = Atomic.make epoch0;
      fenced_by = Atomic.make 0;
      applied_next =
        Atomic.make
          (match log with Some l -> Shardlog.next_seq l | None -> 1);
      last_stream_from = Atomic.make 0;
      created_at = Bx_obs.Clock.now ();
      rm = Mutex.create ();
      repl_synced = false;
      repl_behind = 0;
      repl_last_sync = 0.;
      repl_allowance = config.stream_wait +. 1.0;
    }
    in
    (* Single-threaded here; steady state keeps these incremental. *)
    recompute_digests t;
    register_sampled t;
    t
  in
  match config.journal_dir with
  | None -> (
      match resharded (seed ()) with
      | Error e -> Error ("seed re-shard: " ^ e)
      | Ok registry -> Ok (fresh ~registry ~log:None ~applied:0 ~failed:0))
  | Some dir -> (
      match Shardlog.open_ ~dir ~shards with
      | Error e -> Error e
      | Ok (log, recovery) -> (
          (* What recovery found is an operational signal: torn tails
             are the benign residue of a crash, checksum failures are
             corruption worth an operator's attention. *)
          Metrics.journal_recovery metrics ~torn:recovery.torn
            ~crc_errors:recovery.crc_errors;
          let registry0 =
            if recovery.complete then
              (* Every segment carries a sealed snapshot: the pages are
                 the whole catalogue, no seed needed. *)
              Result.map_error
                (fun e -> "snapshot load: " ^ e)
                (Bx_repo.Registry.import ~shards recovery.pages)
            else
              (* Partial (or no) snapshots: start from the seed and lay
                 the sealed shards' pages over it — cheaper than forcing
                 a full initial checkpoint just to make boot uniform. *)
              match resharded (seed ()) with
              | Error e -> Error ("seed re-shard: " ^ e)
              | Ok registry -> (
                  match Bx_repo.Registry.overlay registry recovery.pages with
                  | Error e -> Error ("snapshot overlay: " ^ e)
                  | Ok () -> Ok registry)
          in
          match registry0 with
          | Error e ->
              Shardlog.close log;
              Error e
          | Ok registry -> (
              (* Documents persist in shard 0's snapshot; load them
                 before replay so journalled patches find their
                 documents at the right generation.  A dump that failed
                 its checksum is quarantined below, not parsed. *)
              let docs_corrupt =
                List.exists
                  (fun (k, file, _) -> k = 0 && file = Docstore.docs_file)
                  recovery.corrupt
              in
              (if not docs_corrupt then
                 match load_docs docstore log with
                 | Ok () -> ()
                 | Error e -> Printf.eprintf "bxwiki: %s\n%!" e);
              let applied, failed =
                replay_edits registry docstore recovery.replay
              in
              let t = fresh ~registry ~log:(Some log) ~applied ~failed in
              (* Checksum casualties found at boot enter the quarantine
                 like scrub findings would: flagged, counted, kept on
                 disk for the operator (or an anti-entropy resync). *)
              List.iter
                (fun (k, file, why) ->
                  let name = Shardlog.file_name ~shards k file in
                  flag_corruption t
                    (Integrity.Quarantine.File name)
                    ~surface:"snapshot" ~why)
                recovery.corrupt;
              if not recovery.migrated then Ok t
              else
                (* A legacy layout was absorbed: capture the rebuilt
                   state into the segments, and only then delete the
                   legacy files and stamp the directory — a crash before
                   the stamp redoes the migration from the still-intact
                   legacy state. *)
                match checkpoint_all_locked t with
                | Error e -> Error ("migration checkpoint: " ^ e)
                | Ok _ -> (
                    match Shardlog.seal_migration log with
                    | Error e -> Error ("migration seal: " ^ e)
                    | Ok () -> Ok t))))

(* ------------------------------------------------------------------ *)
(* Request handling *)

let route_of t path =
  let ends_with suffix = Filename.check_suffix path suffix in
  if path = "/" || path = "" then "index"
  else if path = "/metrics" then "metrics"
  else if path = "/healthz" || path = "/readyz" then "health"
  else if path = "/debug/failpoints" || path = "/debug/chaos" then "debug"
  else if
    path = "/replication/stream"
    || path = "/replication/snapshot"
    || path = "/replication/digest"
  then "replication"
  else if path = "/admin/promote" then "admin"
  else if is_slens_path path then "slens"
  else if path = "/search" then "search"
  else if path = "/glossary" then "glossary"
  else if path = "/manuscript" then "manuscript"
  else if List.mem_assoc path t.pages then path
  else if ends_with ".wiki" then "entry.wiki"
  else if ends_with ".json" then "entry.json"
  else "entry"

let respond_html status title body =
  {
    Bx_repo.Webui.status;
    content_type = "text/html; charset=utf-8";
    body = Bx_repo.Webui.html_page ~title body;
    headers = [];
  }

(* Which registry shard a path's cache validity rides on: an entry route
   is exactly as fresh as its shard's generation, everything else (the
   index, search, the manuscript...) reads the whole catalogue and is
   invalidated by any write.  Purely syntactic, so it can classify both
   live requests and already-cached keys. *)
let shard_route t path =
  match route_of t path with
  | "entry" | "entry.wiki" | "entry.json" -> (
      match Bx_repo.Webui.page_identifier path with
      | Some id -> Some (Bx_repo.Registry.shard_of_id t.registry id)
      | None -> None)
  | _ -> None

let cache_key ~path ~query = if query = "" then path else path ^ "?" ^ query

(* The generation a cached key would have to carry to be fresh now.
   Sampled racily (like the pre-sharding code sampled [t.gen]): a stale
   sample only causes a miss or an eviction, never a stale hit, because
   the store-side generation is sampled under the rendering lock. *)
let gen_for_key t key =
  let path =
    match String.index_opt key '?' with
    | None -> key
    | Some i -> String.sub key 0 i
  in
  match shard_route t path with
  | Some k -> t.gens.(k)
  | None -> total_gen t

let respond_text status body =
  {
    Bx_repo.Webui.status;
    content_type = "text/plain; charset=utf-8";
    body;
    headers = [];
  }

(* ------------------------------------------------------------------ *)
(* Deadline propagation.  A request carries the client's remaining
   budget (X-Bxwiki-Deadline, parsed by Httpd into an absolute time);
   once it is exhausted nobody is waiting for the answer, so work is
   shed *before* the expensive steps — lock acquisition, rendering, the
   journal fsync — with a 504 and its own shed reason. *)

let deadline_expired = function
  | None -> false
  | Some d -> Bx_obs.Clock.now () > d

let shed_deadline t =
  Metrics.shed t.metrics ~reason:"deadline_propagated";
  respond_text 504 "deadline exceeded: request budget exhausted\n"

(* Serve [path] from whatever render the cache still holds, at any
   generation, labelled with how far behind the live registry it is.
   The brownout bargain: freshness is traded for availability, visibly —
   the client can always tell a stale answer from a fresh one. *)
let try_stale t ~query path =
  let key = cache_key ~path ~query in
  match Respcache.find_stale t.cache ~path:key with
  | Some (gen, response) when response.Bx_repo.Webui.status = 200 ->
      let lag = max 0 (gen_for_key t key - gen) in
      Metrics.stale_response t.metrics ~gen_lag:lag;
      Some
        {
          response with
          Bx_repo.Webui.headers =
            ("X-Bxwiki-Stale", string_of_int lag)
            :: response.Bx_repo.Webui.headers;
        }
  | _ -> None

let handle_get ?deadline t ~query path =
  let key = cache_key ~path ~query in
  let render () =
    Bx_fault.Fault.point "service.lock.read";
    if List.mem_assoc path t.pages then begin
      (* Serialise extra-page thunks (they may force lazies, which is
         not safe to race from parallel domains); the result is cached,
         so this mutex is cold after the first render. *)
      Mutex.lock t.pages_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.pages_mutex)
        (fun () ->
          read_all t (fun () ->
              ( total_gen t,
                Bx_repo.Webui.handle ~pages:t.pages ~query t.registry
                  ~meth:"GET" ~path ~body:"" )))
    end
    else
      match shard_route t path with
      | Some k ->
          (* An entry page renders under just its shard's read lock: a
             write to any other shard neither blocks this read nor
             invalidates its cache entry. *)
          read_shard t k (fun () ->
              ( t.gens.(k),
                Bx_repo.Webui.handle ~query t.registry ~meth:"GET" ~path
                  ~body:"" ))
      | None ->
          read_all t (fun () ->
              ( total_gen t,
                Bx_repo.Webui.handle ~query t.registry ~meth:"GET" ~path
                  ~body:"" ))
  in
  (* The generation is sampled under the same read lock that renders, so
     a cached page can never be older than the generation it is filed
     under. *)
  match Respcache.find t.cache ~path:key ~generation:(gen_for_key t key) with
  | Some response -> response
  | None when deadline_expired deadline -> (
      (* The budget ran out before the expensive part (lock + render).  A
         stale copy is still worth shipping — it costs nothing — but a
         fresh render would finish after the client has given up. *)
      match try_stale t ~query path with
      | Some response -> response
      | None -> shed_deadline t)
  | None ->
      let generation, response = render () in
      if response.Bx_repo.Webui.status = 200 then
        Respcache.store t.cache ~path:key ~generation response
          ~current:(gen_for_key t);
      response

(* ------------------------------------------------------------------ *)
(* Lens execution routes, POST /slens/<name>/<op>: the wire format, and
   why batches stay on the serving worker, are documented in service.mli.
   Lens runs never touch the registry, so they bypass the reader/writer
   lock entirely. *)

let rs = '\x1e'
let us = '\x1f'
let rs_str = String.make 1 rs

(* The first [c] in [body[pos .. stop)], or [stop]. *)
let rec index_in body c pos stop =
  if pos >= stop || String.unsafe_get body pos = c then pos else index_in body c (pos + 1) stop

(* [f pos len] on each RS-separated document of [body], in order: none
   in an empty body, an empty last one after a trailing RS. *)
let each_doc body f =
  let n = String.length body in
  let rec go pos =
    let stop = index_in body rs pos n in
    f pos (stop - pos);
    if stop < n then go (stop + 1)
  in
  if n > 0 then go 0

(* [f out pos len] on every document of a batch, RS between outputs.
   As in {!Bx_strlens.Slens.get_all}, each passes the
   [slens.batch.worker] failpoint and runs even after one failed; the
   first failure is re-raised at the end, after [counted] has the
   number of documents. *)
let run_batch ~counted out body f =
  let first = ref None and docs = ref 0 in
  each_doc body (fun pos len ->
      if pos > 0 then Buffer.add_char out rs;
      incr docs;
      try
        Bx_fault.Fault.point "slens.batch.worker";
        f out pos len
      with e -> if Option.is_none !first then first := Some (e, Printexc.get_raw_backtrace ()));
  counted !docs;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !first

(* Lens output goes to one buffer per domain, taken for the request (a
   second thread on the domain makes its own) and dropped, not kept,
   once it grew past the largest request body. *)
let out_slot = Domain.DLS.new_key (fun () -> ref None)

let with_out emit =
  let slot = Domain.DLS.get out_slot in
  let out = match !slot with Some b -> slot := None; b | None -> Buffer.create 4096 in
  Fun.protect
    (fun () -> emit out; Buffer.contents out)
    ~finally:(fun () ->
      if Buffer.length out <= Httpd.default_max_body then (Buffer.clear out; slot := Some out))

let handle_slens t path body =
  match String.split_on_char '/' path with
  | [ ""; "slens"; name; op ] -> (
      match List.assoc_opt name t.lenses with
      | None -> respond_text 404 (Printf.sprintf "unknown lens %S\n" name)
      | Some lens -> (
          let observe op docs =
            Metrics.observe_lens t.metrics ~lens:name ~op ~docs
              ~bytes:(String.length body)
          in
          let n = String.length body in
          let ok emit = respond_text 200 (with_out emit) in
          (* Put the record [view sep source] at [body[pos .. pos+len)]. *)
          let put_record sep out pos len =
            let u = index_in body sep pos (pos + len) in
            Bx_strlens.Slens.put_into lens out body pos (u - pos) body (u + 1)
              (pos + len - u - 1)
          in
          try
            match op with
            | "get" ->
                observe "get" 1;
                respond_text 200 (lens.Bx_strlens.Slens.get body)
            | "create" ->
                observe "create" 1;
                respond_text 200 (lens.Bx_strlens.Slens.create body)
            | "put" ->
                if index_in body rs 0 n = n then
                  respond_text 400 "put body must be <view> RS (0x1e) <source>\n"
                else (
                  observe "put" 1;
                  ok (fun out -> put_record rs out 0 n))
            | "get_batch" ->
                ok (fun out ->
                    run_batch ~counted:(observe "get_batch") out body
                      (fun out -> Bx_strlens.Slens.get_into lens out body))
            | "put_batch" ->
                let malformed = ref false in
                each_doc body (fun pos len ->
                    if index_in body us pos (pos + len) = pos + len then malformed := true);
                if !malformed then
                  respond_text 400
                    "put_batch records must be <view> US (0x1f) <source>\n"
                else
                  ok (fun out -> run_batch ~counted:(observe "put_batch") out body (put_record us))
            | _ -> respond_text 404 (Printf.sprintf "unknown lens op %S\n" op)
          with
          | Bx_strlens.Slens.Type_error m | Bx_strlens.Split.Split_error m ->
            respond_text 422 (m ^ "\n")))
  | _ -> respond_text 404 "lens paths are /slens/<name>/<op>\n"

(* Why this node cannot accept a write right now, if it cannot. *)
let write_barrier t =
  if Atomic.get t.replica then
    Some (respond_text 503 "read-only replica: writes go to the primary\n")
  else if Atomic.get t.fenced_by > 0 then
    Some
      (respond_text 503
         (Printf.sprintf "fenced: deposed by epoch %d, writes rejected\n"
            (Atomic.get t.fenced_by)))
  else if Atomic.get t.disk_full then
    Some
      (respond_text 503
         "read-only: journal disk full, writes refused until space is \
          freed\n")
  else None

(* The durability half of an accepted write: bump shard [k]'s
   generation, append the record, compact the segment when it is due.
   The caller holds shard [k]'s write lock and has already applied the
   edit in memory. *)
let journal_accepted t ~k ~path ~body response =
  t.gens.(k) <- t.gens.(k) + 1;
  match t.log with
  | None ->
      Atomic.incr t.applied_next;
      response
  | Some log -> (
      match Shardlog.append log ~shard:k ~path ~body with
      | Error e ->
          (* The in-memory edit stands, but durability was promised and
             could not be delivered: tell the client the truth, flip
             /readyz, and let the operator look at the disk.  ENOSPC is
             special — no retry can succeed until an operator frees
             space, so it latches [disk_full] and the write barrier turns
             the node read-only instead of flapping per request. *)
          Atomic.set t.journal_ok false;
          if Journal.is_disk_full_error e then Atomic.set t.disk_full true;
          Metrics.protocol_error t.metrics ~route:"journal"
            ~reason:"append_failed";
          respond_html 500 "Journal write failed"
            ("<p>Edit applied in memory but not journaled: "
            ^ Bx_repo.Markup.html_escape e ^ "</p>")
      | Ok _ ->
          Atomic.set t.journal_ok true;
          Atomic.set t.applied_next (Shardlog.next_seq log);
          if
            t.config.compact_every > 0
            && Shardlog.record_count log k >= t.config.compact_every
          then begin
            (* A failed compaction must not take the service down: the
               journal keeps growing, the failure is counted and
               surfaced in /metrics, and serving continues.  Only this
               shard's segment snapshots and truncates — compaction
               cost is O(shard), whatever the catalogue size. *)
            match checkpoint_shard_locked t k with
            | Ok _ -> ()
            | Error e -> Printf.eprintf "bxwiki: compaction failed: %s\n%!" e
          end;
          response)

let handle_post ?deadline t path body =
  match write_barrier t with
  | Some refusal -> refusal
  | None when deadline_expired deadline -> shed_deadline t
  | None ->
  Bx_fault.Fault.point "service.lock.write";
  (* An entry edit takes only its shard's write lock (and lands in that
     shard's journal segment); edits to entries in other shards proceed
     in parallel.  Anything unroutable serialises against everything. *)
  let id_opt = Bx_repo.Webui.page_identifier path in
  let shard_opt =
    Option.map (fun id -> Bx_repo.Registry.shard_of_id t.registry id) id_opt
  in
  let locked =
    match shard_opt with
    | Some k -> write_shard t k
    | None -> write_all t
  in
  locked (fun () ->
      (* Re-checked after the (possibly contended) lock wait, and before
         the edit is applied: this is the last point an exhausted budget
         can abort cleanly — once the in-memory apply happens, skipping
         the journal fsync would diverge memory from disk. *)
      if deadline_expired deadline then shed_deadline t
      else
      (* The entry's pre-image hash, sampled under the same write lock
         that applies the edit: XORing it out and the post-image in
         keeps the shard digest exact without rescanning the shard. *)
      let before =
        match id_opt with
        | Some id -> Integrity.entry_hash t.registry id
        | None -> 0
      in
      let response =
        Bx_repo.Webui.handle t.registry ~meth:"POST" ~path ~body
      in
      if response.Bx_repo.Webui.status <> 200 then response
      else begin
        (match (id_opt, shard_opt) with
        | Some id, Some k ->
            t.digests.(k) <-
              t.digests.(k) lxor before lxor Integrity.entry_hash t.registry id
        | _ ->
            (* Unroutable writes hold every lock already. *)
            recompute_digests t);
        journal_accepted t
          ~k:(Option.value shard_opt ~default:0)
          ~path ~body response
      end)

(* ------------------------------------------------------------------ *)
(* Lens-backed documents.  POST /slens/<name>/doc/<docid> stores a
   source document (the view is maintained through the lens);
   GET /slens/<name>/doc/<docid>[?as=view] reads either side back with
   its generation; POST /slens/<name>/patch ships an {e edit} instead
   of a document — a [<docid> RS <gen> RS <edit>] frame propagated
   incrementally by {!Bx_strlens.Slens_delta}, answered with the new
   generation and the complementary source edit.  [/patch_source] is
   the mirror direction (a source edit, answered with the view edit).

   Mutations ride shard 0's write lock and journal segment, and the
   journal record {e is} the request frame: what the log and the
   replication stream carry for a patch is the edit, not the
   document. *)

(* The (lens, docid) a docstore mutation touches — the unit of shard 0's
   digest.  Patch frames carry the docid as their first RS field. *)
let doc_key_of path body =
  match String.split_on_char '/' path with
  | [ ""; "slens"; name; "doc"; docid ] -> Some (name, docid)
  | [ ""; "slens"; name; ("patch" | "patch_source") ] ->
      let n = String.length body in
      let i = index_in body rs 0 n in
      if i = n then None else Some (name, String.sub body 0 i)
  | _ -> None

(* One document's contribution to shard 0's digest; 0 when absent, so
   before/after XOR covers creation too.  Caller holds shard 0's lock. *)
let doc_contrib t (lens, docid) =
  match Docstore.get_doc t.docstore ~lens ~docid ~view:false with
  | Ok (gen, source) -> Integrity.doc_hash ~lens ~docid ~gen ~source
  | Error _ -> 0

let docstore_error e =
  let status =
    match e with
    | Docstore.Not_found _ -> 404
    | Docstore.Stale _ -> 409
    | Docstore.Bad_request _ -> 400
    | Docstore.Unprocessable _ -> 422
  in
  respond_text status (Docstore.describe e ^ "\n")

let handle_docstore_get t ~query path =
  match String.split_on_char '/' path with
  | [ ""; "slens"; name; "doc"; docid ] -> (
      match
        Integrity.Quarantine.find t.quarantine
          (Integrity.Quarantine.Doc (name, docid))
      with
      | Some reason ->
          (* Never serve bytes the scrubber could not vouch for: a
             quarantined document is Gone until repaired (or resynced),
             not silently replaced by something plausible. *)
          respond_text 410 ("quarantined: " ^ reason ^ "\n")
      | None ->
      let as_view =
        List.assoc_opt "as" (Httpd.query_params query) = Some "view"
      in
      Metrics.observe_lens t.metrics ~lens:name ~op:"doc_get" ~docs:1
        ~bytes:0;
      read_shard t 0 (fun () ->
          match
            Docstore.get_doc t.docstore ~lens:name ~docid ~view:as_view
          with
          | Ok (gen, doc) ->
              respond_text 200 (string_of_int gen ^ rs_str ^ doc)
          | Error e -> docstore_error e))
  | _ -> respond_text 404 "document paths are /slens/<name>/doc/<docid>\n"

let handle_docstore_post ?deadline t path body =
  match write_barrier t with
  | Some refusal -> refusal
  | None when deadline_expired deadline -> shed_deadline t
  | None ->
      Bx_fault.Fault.point "service.lock.write";
      write_shard t 0 (fun () ->
          (* Same pre-apply re-check as {!handle_post}: abort while
             aborting is still free. *)
          if deadline_expired deadline then shed_deadline t
          else
          let key = doc_key_of path body in
          let before =
            match key with Some dk -> doc_contrib t dk | None -> 0
          in
          let result =
            match String.split_on_char '/' path with
            | [ ""; "slens"; name; "doc"; docid ] ->
                Metrics.observe_lens t.metrics ~lens:name ~op:"doc_put"
                  ~docs:1 ~bytes:(String.length body);
                Result.map
                  (fun gen -> respond_text 200 (string_of_int gen ^ "\n"))
                  (Docstore.put_doc t.docstore ~lens:name ~docid
                     ~source:body)
            | [ ""; "slens"; name; (("patch" | "patch_source") as op) ] ->
                Metrics.observe_lens t.metrics ~lens:name ~op ~docs:1
                  ~bytes:(String.length body);
                Result.map
                  (fun (gen, edit) ->
                    respond_text 200
                      (string_of_int gen ^ rs_str
                     ^ Bx_strlens.Sdiff.encode edit))
                  (Docstore.patch t.docstore ~lens:name
                     ~reverse:(op = "patch_source") body)
            | _ ->
                Ok
                  (respond_text 404
                     "document paths are /slens/<name>/doc/<docid> and \
                      /slens/<name>/patch\n")
          in
          match result with
          | Error e -> docstore_error e
          | Ok response when response.Bx_repo.Webui.status <> 200 -> response
          | Ok response ->
              (match key with
              | Some dk ->
                  t.digests.(0) <-
                    t.digests.(0) lxor before lxor doc_contrib t dk
              | None -> ());
              journal_accepted t ~k:0 ~path ~body response)

(* ------------------------------------------------------------------ *)
(* Replication: the primary side (stream + snapshot endpoints), the
   replica side (apply + snapshot install, reached through the
   {!Replication.sink}), and promotion. *)

let is_replica t = Atomic.get t.replica
let epoch t = Atomic.get t.epoch
let last_stream_poll t = Atomic.get t.last_stream_from

let replication_synced t =
  Mutex.lock t.rm;
  let s = t.repl_synced in
  Mutex.unlock t.rm;
  s

let octet_response body =
  {
    Bx_repo.Webui.status = 200;
    content_type = "application/octet-stream";
    body;
    headers = [];
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let handle_stream ?deadline:client_deadline t query =
  match t.log with
  | None -> respond_text 404 "replication requires a journal\n"
  | Some log ->
      let params = Httpd.query_params query in
      let int_param name default =
        match List.assoc_opt name params with
        | None -> Some default
        | Some v -> int_of_string_opt v
      in
      let wait =
        match List.assoc_opt "wait" params with
        | None -> 0.
        | Some v -> Option.value ~default:0. (float_of_string_opt v)
      in
      (match (int_param "from" 1, int_param "epoch" 0) with
      | None, _ | _, None -> respond_text 400 "bad from/epoch\n"
      | Some from, Some peer_epoch when from < 0 || peer_epoch < 0 ->
          respond_text 400 "bad from/epoch\n"
      | Some from, Some peer_epoch ->
          let my_epoch = Atomic.get t.epoch in
          if peer_epoch > my_epoch then begin
            (* The poller has seen a newer primary than us: we are the
               deposed one.  Fence: refuse all further writes, so no
               stale ack from this node can contradict the new epoch. *)
            Atomic.set t.fenced_by peer_epoch;
            respond_text 409
              (Printf.sprintf "deposed: epoch %d supersedes ours (%d)\n"
                 peer_epoch my_epoch)
          end
          else begin
            (* A poll at [from] acknowledges everything below it. *)
            if from > Atomic.get t.last_stream_from then
              Atomic.set t.last_stream_from from;
            let wait = Float.min wait t.config.stream_wait in
            (* A long poll held past the client's budget answers nobody:
               clamp the hold so the poll returns (possibly empty) while
               the follower is still listening. *)
            let wait =
              match client_deadline with
              | None -> wait
              | Some d ->
                  Float.max 0. (Float.min wait (d -. Bx_obs.Clock.now ()))
            in
            let deadline = Bx_obs.Clock.now () +. wait in
            (* The long poll: re-read under the read lock (compaction
               swaps the snapshot and truncates the log under the write
               lock), sleep in slices outside it. *)
            let rec attempt () =
              let r =
                read_all t (fun () ->
                    (* The floor is the max over segment manifests: a
                       cursor at or below it may point into a truncated
                       segment and must re-bootstrap. *)
                    let floor = Shardlog.floor log in
                    if from <= floor then `Reset floor
                    else
                      match Shardlog.tail log ~from with
                      | Error e -> `Err e
                      | Ok records ->
                          `Records (records, Atomic.get t.applied_next))
              in
              match r with
              | `Records ([], _)
                when Bx_obs.Clock.now () < deadline && not (Atomic.get t.stop)
                ->
                  Thread.delay 0.01;
                  attempt ()
              | r -> r
            in
            match attempt () with
            | `Err e -> respond_text 500 ("journal read: " ^ e ^ "\n")
            | `Reset floor ->
                Bx_fault.Fault.point "repl.stream.write";
                octet_response
                  (Replication.reset_body ~epoch:my_epoch ~floor)
            | `Records (records, next_seq) ->
                let records = take t.config.stream_max_records records in
                Bx_fault.Fault.point "repl.stream.write";
                let body =
                  Replication.stream_body ~epoch:my_epoch ~next_seq ~records
                in
                Metrics.replication_streamed t.metrics
                  ~records:(List.length records) ~bytes:(String.length body);
                octet_response body
          end)

let snapshot_response t files =
  match files with
  | Error e -> respond_text 404 (e ^ "\n")
  | Ok (seq, files) ->
      Bx_fault.Fault.point "repl.stream.write";
      let body =
        Replication.snapshot_body ~epoch:(Atomic.get t.epoch) ~seq ~files
      in
      Metrics.replication_streamed t.metrics ~records:0
        ~bytes:(String.length body);
      octet_response body

let handle_snapshot t query =
  match t.log with
  | None -> respond_text 404 "replication requires a journal\n"
  | Some log -> (
      match List.assoc_opt "shard" (Httpd.query_params query) with
      | Some v -> (
          (* Targeted anti-entropy: seal and ship exactly one segment —
             the other shards neither checkpoint nor block. *)
          match int_of_string_opt v with
          | Some k when k >= 0 && k < Shardlog.shards log ->
              snapshot_response t
                (write_shard t k (fun () ->
                     match checkpoint_shard_locked t k with
                     | Error e -> Error e
                     | Ok _ -> Shardlog.snapshot_files_shard log ~shard:k))
          | _ -> respond_text 400 (Printf.sprintf "bad shard %S\n" v))
      | None ->
          let files =
            if Shardlog.shards log = 1 then
              (* Single shard: ship whatever snapshot exists (404 until
                 the first checkpoint), exactly the pre-sharding
                 contract. *)
              read_all t (fun () -> Shardlog.snapshot_files log)
            else
              (* Sharded: a consistent ship needs every segment sealed
                 at one global cut, so cut one now under all write
                 locks. *)
              write_all t (fun () ->
                  match checkpoint_all_locked t with
                  | Error e -> Error e
                  | Ok _ -> Shardlog.snapshot_files log)
          in
          snapshot_response t files)

(* The anti-entropy currency: O(shards) numbers a caught-up follower
   compares against its own to find silent divergence — and, on a
   mismatch, knows exactly which shard to re-fetch. *)
let handle_digest t =
  respond_text 200
    (Integrity.render_digests ~epoch:(Atomic.get t.epoch) (shard_digests t))

(* Apply one streamed batch: journal first (a crash between journal and
   registry replays to the same state at next boot), then the registry,
   then bump the cache generation — a replica's Respcache is invalidated
   by the replication apply path exactly as a primary's is by local
   writes.  Retried prefixes (the upstream resent records we already
   hold) are skipped; a gap means the stream and our cursor disagree and
   is fatal for the batch. *)
let replication_apply t records =
  try
    Bx_fault.Fault.point "repl.apply";
    write_all t (fun () ->
        (* Replayed records fan into the same shard (lock, generation and
           journal segment) a local edit would have used — a replica's
           on-disk layout converges on the primary's. *)
        let shard_of_path path =
          if is_slens_path path then 0
          else
            match Bx_repo.Webui.page_identifier path with
            | Some id -> Bx_repo.Registry.shard_of_id t.registry id
            | None -> 0
        in
        let apply_one (r : Journal.record) =
          let k = shard_of_path r.path in
          let id_opt =
            if is_slens_path r.path then None
            else Bx_repo.Webui.page_identifier r.path
          in
          let doc_key =
            if is_slens_path r.path then doc_key_of r.path r.body else None
          in
          let before =
            match (id_opt, doc_key) with
            | Some id, _ -> Integrity.entry_hash t.registry id
            | None, Some dk -> doc_contrib t dk
            | None, None -> 0
          in
          (if is_slens_path r.path then begin
             (* A streamed patch record carries the edit, not the
                document: the follower propagates it through its own
                docstore (put_delta and its internal full-put
                fallback), converging on the primary's state. *)
             match Docstore.apply t.docstore ~path:r.path ~body:r.body with
             | Ok () -> ()
             | Error e ->
                 Printf.eprintf
                   "bxwiki: streamed record %d (%s) did not apply (%s)\n%!"
                   r.seq r.path e;
                 Metrics.protocol_error t.metrics ~route:"replication"
                   ~reason:"apply_failed"
           end
           else
             let response =
               Bx_repo.Webui.handle t.registry ~meth:"POST" ~path:r.path
                 ~body:r.body
             in
             if response.Bx_repo.Webui.status <> 200 then begin
               Printf.eprintf
                 "bxwiki: streamed record %d (%s) did not apply (status %d)\n%!"
                 r.seq r.path response.Bx_repo.Webui.status;
               Metrics.protocol_error t.metrics ~route:"replication"
                 ~reason:"apply_failed"
             end);
          (* The replica's digests track the same incremental XOR a
             primary maintains, so a digest comparison measures real
             content divergence, not bookkeeping drift. *)
          (match (id_opt, doc_key) with
          | Some id, _ ->
              t.digests.(k) <-
                t.digests.(k) lxor before
                lxor Integrity.entry_hash t.registry id
          | None, Some dk ->
              t.digests.(0) <- t.digests.(0) lxor before lxor doc_contrib t dk
          | None, None ->
              if not (is_slens_path r.path) then recompute_digests t);
          Atomic.set t.applied_next (r.seq + 1);
          t.gens.(k) <- t.gens.(k) + 1;
          Metrics.replication_applied t.metrics ~records:1;
          match t.log with
          | Some log
            when t.config.compact_every > 0
                 && Shardlog.record_count log k >= t.config.compact_every -> (
              match checkpoint_shard_locked t k with
              | Ok _ -> ()
              | Error e -> Printf.eprintf "bxwiki: compaction failed: %s\n%!" e)
          | _ -> ()
        in
        let rec go = function
          | [] -> Ok ()
          | (r : Journal.record) :: rest ->
              let next = Atomic.get t.applied_next in
              if r.seq < next then go rest
              else if r.seq > next then Error (`Gap (next, r.seq))
              else begin
                match t.log with
                | None ->
                    apply_one r;
                    go rest
                | Some log ->
                    let k = shard_of_path r.path in
                    if r.seq <= Shardlog.shard_floor log k then begin
                      (* A targeted resync sealed this segment past
                         [r.seq]: the record is already embodied in the
                         installed shard snapshot.  Skip it (the cursor
                         still advances — other shards' records in this
                         range apply normally). *)
                      Atomic.set t.applied_next (r.seq + 1);
                      go rest
                    end
                    else (
                      match
                        Shardlog.append_at log ~shard:k ~seq:r.seq
                          ~path:r.path ~body:r.body
                      with
                      | Error e ->
                          Atomic.set t.journal_ok false;
                          if Journal.is_disk_full_error e then
                            Atomic.set t.disk_full true;
                          Error (`Fail e)
                      | Ok _ ->
                          Atomic.set t.journal_ok true;
                          apply_one r;
                          go rest)
              end
        in
        go records)
  with Bx_fault.Fault.Injected m -> Error (`Fail m)

let replication_install_snapshot t ~seq ~files =
  try
    Bx_fault.Fault.point "repl.apply";
    write_all t (fun () ->
        match t.log with
        | Some log -> (
            match Shardlog.install_snapshot log ~seq ~files with
            | Error e -> Error e
            | Ok () -> (
                match Shardlog.snapshot_pages log with
                | Error e -> Error ("snapshot load: " ^ e)
                | Ok pages -> (
                    match
                      Bx_repo.Registry.import
                        ~shards:(Shardlog.shards log) pages
                    with
                    | Error e -> Error ("snapshot load: " ^ e)
                    | Ok registry ->
                        t.registry <- registry;
                        (* Everything cached is superseded. *)
                        Array.iteri
                          (fun i _ -> t.gens.(i) <- t.gens.(i) + 1)
                          t.gens;
                        Atomic.set t.applied_next (seq + 1);
                        (* The shipped snapshot carries the primary's
                           documents (or none); either way it replaces
                           ours. *)
                        let docs = load_docs t.docstore log in
                        recompute_digests t;
                        docs)))
        | None -> Error "snapshot bootstrap requires a journal")
  with Bx_fault.Fault.Injected m -> Error m

(* Targeted anti-entropy repair: replace exactly one shard — its segment
   on disk, its slice of the registry, and (for shard 0) the docstore —
   leaving every other shard untouched.  [applied_next] deliberately
   does not move: records below the new segment floor are skipped by the
   apply loop, records for {e other} shards in the same range still need
   applying. *)
let replication_install_shard t ~shard ~seq ~files =
  try
    Bx_fault.Fault.point "repl.apply";
    write_all t (fun () ->
        match t.log with
        | None -> Error "shard resync requires a journal"
        | Some log ->
            if shard < 0 || shard >= Shardlog.shards log then
              Error (Printf.sprintf "shard %d out of range" shard)
            else (
              match Shardlog.install_shard log ~shard ~seq ~files with
              | Error e -> Error e
              | Ok () -> (
                  match Shardlog.snapshot_pages_shard log ~shard with
                  | Error e -> Error ("snapshot load: " ^ e)
                  | Ok pages -> (
                      match
                        Bx_repo.Registry.replace_shard t.registry shard pages
                      with
                      | Error e -> Error ("shard import: " ^ e)
                      | Ok () ->
                          t.gens.(shard) <- t.gens.(shard) + 1;
                          let docs =
                            if shard <> 0 then Ok () else load_docs t.docstore log
                          in
                          recompute_shard_digest t shard;
                          Metrics.replication_shard_resync t.metrics;
                          docs))))
  with Bx_fault.Fault.Injected m -> Error m

let observe_epoch t e =
  if e > Atomic.get t.epoch then begin
    Atomic.set t.epoch e;
    match t.config.journal_dir with
    | Some dir -> (
        match Journal.write_epoch ~dir e with
        | Ok () -> ()
        | Error err -> Printf.eprintf "bxwiki: epoch persist: %s\n%!" err)
    | None -> ()
  end

let replication_sink t =
  {
    Replication.next_seq = (fun () -> Atomic.get t.applied_next);
    epoch = (fun () -> Atomic.get t.epoch);
    observe_epoch = observe_epoch t;
    apply = replication_apply t;
    install_snapshot = replication_install_snapshot t;
    digests = (fun () -> shard_digests t);
    install_shard =
      (fun ~shard ~seq ~files -> replication_install_shard t ~shard ~seq ~files);
    note_gap =
      (fun ~expected ~got ->
        Metrics.replication_gap t.metrics;
        Printf.eprintf
          "bxwiki: replication gap: expected seq %d, got %d; re-bootstrapping\n%!"
          expected got);
    note_digest =
      (fun ~matched -> Metrics.replication_digest_check t.metrics ~matched);
    note_progress =
      (fun ~behind ->
        Mutex.lock t.rm;
        t.repl_behind <- behind;
        if behind = 0 then begin
          t.repl_synced <- true;
          t.repl_last_sync <- Bx_obs.Clock.now ()
        end;
        Mutex.unlock t.rm);
    note_reconnect = (fun () -> Metrics.replication_reconnect t.metrics);
    note_epoch_reject = (fun () -> Metrics.replication_epoch_reject t.metrics);
    note_snapshot_bootstrap =
      (fun () -> Metrics.replication_snapshot_bootstrap t.metrics);
    should_stop =
      (fun () -> Atomic.get t.stop || not (Atomic.get t.replica));
  }

let follow t ~host ~port ?(wait = default_config.stream_wait) ?min_sleep
    ?max_sleep () =
  Mutex.lock t.rm;
  t.repl_allowance <- wait +. 1.0;
  Mutex.unlock t.rm;
  Replication.follow ~host ~port ~wait ?min_sleep ?max_sleep
    (replication_sink t)

(* Promotion: bump and persist the epoch, then flip writable — in that
   order, so a crash in between leaves a replica with a monotonically
   advanced epoch and nothing worse.  A replica that has never synced
   and never persisted an epoch has nothing worth promoting and is
   refused. *)
let promote t =
  if not (Atomic.get t.replica) then Error "already primary"
  else
    write_all t (fun () ->
        if not (Atomic.get t.replica) then Error "already primary"
        else if not (replication_synced t || Atomic.get t.epoch > 0) then
          Error "replica has never synced with a primary"
        else begin
          try
            Bx_fault.Fault.point "repl.promote";
            let e = Atomic.get t.epoch + 1 in
            let persisted =
              match t.config.journal_dir with
              | Some dir -> Journal.write_epoch ~dir e
              | None -> Ok ()
            in
            match persisted with
            | Error err -> Error ("epoch persist: " ^ err)
            | Ok () ->
                Atomic.set t.epoch e;
                Atomic.set t.fenced_by 0;
                Atomic.set t.replica false;
                Ok e
          with Bx_fault.Fault.Injected m -> Error m
        end)

let handle_promote t =
  match promote t with
  | Ok e -> respond_text 200 (Printf.sprintf "promoted: epoch %d\n" e)
  | Error ("already primary" as e) -> respond_text 409 (e ^ "\n")
  | Error e -> respond_text 503 ("promote failed: " ^ e ^ "\n")

(* ------------------------------------------------------------------ *)
(* Health, readiness and the failpoint admin route *)

let queue_high_water t = max 1 (t.config.queue_capacity * 3 / 4)
let concurrency_limit t = Atomic.get t.limit

(* Readiness = this process can usefully take traffic right now: the
   journal accepted its last write (replay completed inside [create], so
   a constructed service has replayed), we are not draining, and the
   pending queue is below its high-water mark. *)
let readiness t =
  let replica = Atomic.get t.replica in
  let synced = (not replica) || replication_synced t in
  List.filter_map
    (fun (ok, reason) -> if ok then None else Some reason)
    [
      (Atomic.get t.journal_ok, "journal_unwritable");
      (* Sticky: once the disk filled, only an operator restart after
         freeing space clears it (a transient later success proves
         nothing about the next write). *)
      (not (Atomic.get t.disk_full), "journal_disk_full");
      (not (Atomic.get t.stop), "draining");
      (queue_depth t < queue_high_water t, "queue_high_water");
      (* A replica is ready only once it has caught up and is staying
         caught up; a fenced (deposed) primary is never ready. *)
      (synced, "replica_syncing");
      ( (not replica) || (not synced)
        || replication_lag t <= t.config.replica_lag_threshold,
        "replication_lag" );
      (not (fenced t), "fenced");
      (* A burst of fresh corruption findings means the medium under us
         is failing: drain traffic away while still serving reads. *)
      (not (corruption_burst t), "corruption_burst");
    ]

let ready t = readiness t = []

let handle_readyz t =
  match readiness t with
  | [] -> respond_text 200 "ready\n"
  | reasons -> respond_text 503 ("not ready: " ^ String.concat ", " reasons ^ "\n")

let handle_failpoints_admin t ~meth ~body =
  if not t.config.failpoints_admin then
    respond_text 404 "failpoint admin is not enabled (set BXWIKI_FAILPOINTS)\n"
  else
    match meth with
    | "GET" -> respond_text 200 (Bx_fault.Fault.describe () ^ "\n")
    | "PUT" -> (
        match Bx_fault.Fault.configure body with
        | Ok () -> respond_text 200 (Bx_fault.Fault.describe () ^ "\n")
        | Error e -> respond_text 400 (e ^ "\n"))
    | _ -> respond_text 405 "use GET or PUT\n"

(* The network-chaos twin of the failpoint admin route: GET shows the
   armed toxic rules plus live proxy counters, PUT replaces the rule set
   (pushed to every live proxy).  Gated exactly like failpoints — the
   route exists only when chaos was armed at startup. *)
let handle_chaos_admin t ~meth ~body =
  if not t.config.chaos_admin then
    respond_text 404 "chaos admin is not enabled (set BXWIKI_CHAOS)\n"
  else
    match meth with
    | "GET" ->
        respond_text 200
          (Bx_fault.Netchaos.describe () ^ "\n" ^ Bx_fault.Netchaos.stats_text ())
    | "PUT" -> (
        match Bx_fault.Netchaos.configure body with
        | Ok () -> respond_text 200 (Bx_fault.Netchaos.describe () ^ "\n")
        | Error e -> respond_text 400 (e ^ "\n"))
    | _ -> respond_text 405 "use GET or PUT\n"

(* Quarantined entries keep serving — but honestly: every 200 for a
   flagged entry carries a Warning header.  Applied after the cache
   lookup, so the header is never cached and clears the moment the
   flag does. *)
let with_quarantine_warning t path response =
  if
    response.Bx_repo.Webui.status <> 200
    || Integrity.Quarantine.size t.quarantine = 0
  then response
  else
    match Bx_repo.Webui.page_identifier path with
    | None -> response
    | Some id -> (
        match
          Integrity.Quarantine.find t.quarantine
            (Integrity.Quarantine.Entry (Bx_repo.Identifier.to_string id))
        with
        | None -> response
        | Some reason ->
            let reason =
              String.map (fun c -> if c = '"' then '\'' else c) reason
            in
            {
              response with
              Bx_repo.Webui.headers =
                ("Warning", Printf.sprintf "299 bxwiki \"quarantined: %s\"" reason)
                :: response.Bx_repo.Webui.headers;
            })

let handle_query ?deadline t ~query ~meth ~path ~body =
  let started = Bx_obs.Clock.now () in
  let meth = String.uppercase_ascii meth in
  (* Operational routes never shed on a client deadline: health checks,
     metrics scrapes, debug admin and the replication plane must answer
     even (especially) when the node is struggling.  The stream route
     honours the deadline its own way — by clamping its long-poll hold. *)
  let ops_route =
    path = "/metrics" || path = "/healthz" || path = "/readyz"
    || path = "/debug/failpoints" || path = "/debug/chaos"
    || path = "/replication/stream" || path = "/replication/snapshot"
    || path = "/replication/digest" || path = "/admin/promote"
  in
  let response =
    (* An injected fault at a lock or lens seam is answered like any
       other transient overload: a 503 the retrying client backs off
       from, never a hung connection or a dead worker. *)
    try
      if (not ops_route) && deadline_expired deadline then
        (* The budget was gone before dispatch.  A stale cached render is
           free and still useful to a client that races the answer
           against its timeout; anything else is wasted work. *)
        if meth = "GET" && t.config.brownout then
          match try_stale t ~query path with
          | Some r -> r
          | None -> shed_deadline t
        else shed_deadline t
      else
      match meth with
      | "GET" when path = "/metrics" ->
          {
            Bx_repo.Webui.status = 200;
            content_type = "text/plain; version=0.0.4; charset=utf-8";
            body = Metrics.render t.metrics;
            headers = [];
          }
      | "GET" when path = "/healthz" -> respond_text 200 "ok\n"
      | "GET" when path = "/readyz" -> handle_readyz t
      | ("GET" | "PUT") when path = "/debug/failpoints" ->
          handle_failpoints_admin t ~meth ~body
      | ("GET" | "PUT") when path = "/debug/chaos" ->
          handle_chaos_admin t ~meth ~body
      | "GET" when path = "/replication/stream" ->
          handle_stream ?deadline t query
      | "GET" when path = "/replication/snapshot" -> handle_snapshot t query
      | "GET" when path = "/replication/digest" -> handle_digest t
      | "POST" when path = "/admin/promote" -> handle_promote t
      | "GET" when is_slens_path path -> handle_docstore_get t ~query path
      | "GET" ->
          with_quarantine_warning t path (handle_get ?deadline t ~query path)
      | "POST" when is_slens_path path ->
          if Docstore.is_doc_path path then
            handle_docstore_post ?deadline t path body
          else handle_slens t path body
      | "POST" -> handle_post ?deadline t path body
      | _ ->
          respond_html 405 "Method not allowed" "<p>Use GET or POST.</p>"
    with Bx_fault.Fault.Injected m ->
      respond_text 503 ("injected fault: " ^ m ^ "\n")
  in
  Metrics.observe_request t.metrics ~route:(route_of t path) ~meth
    ~status:response.Bx_repo.Webui.status
    ~seconds:(Bx_obs.Clock.now () -. started);
  response

let handle t ~meth ~path ~body = handle_query t ~query:"" ~meth ~path ~body

let checkpoint t = write_all t (fun () -> checkpoint_all_locked t)

let close t = Option.iter Shardlog.close t.log

(* ------------------------------------------------------------------ *)
(* The background scrubber: one pass re-verifies every storage surface —
   journal record CRCs, snapshot file checksums against their DIGESTS,
   entry round-trip laws, document view/source agreement — under a token
   bucket so foreground latency is untouched.  Findings are quarantined
   (never dropped); a healthy item clears any stale flag, so repair (a
   re-checkpoint, a corrective edit, an anti-entropy resync) is
   self-acquitting.  Each item is checked under its own shard's read
   lock — the pass never blocks writers for longer than one item. *)

exception Stop_scrub

let scrub_once ?(rate = 0.) ?(stop = fun () -> false) t =
  let module Q = Integrity.Quarantine in
  let bucket = Integrity.Bucket.create ~rate in
  let items = ref 0 in
  let findings = ref [] in
  let pace ~surface =
    if stop () then raise Stop_scrub;
    Integrity.Bucket.take bucket 1.;
    incr items;
    Metrics.scrub_item t.metrics ~surface ~n:1
  in
  let found key ~surface why =
    findings := (Q.key_name key, why) :: !findings;
    flag_corruption t key ~surface ~why
  in
  let shards = Array.length t.locks in
  let seg_name = Shardlog.file_name ~shards in
  (try
     (* Journal segments: re-read every record, re-checking framing and
        CRCs.  A dirty tail at rest is corruption (boot would truncate
        it); mid-append torn reads are benign and not flagged. *)
     (match (t.log, t.config.journal_dir) with
     | Some log, Some dir ->
         for k = 0 to shards - 1 do
           pace ~surface:"journal";
           let seg =
             Shardlog.segment_dir ~dir ~shards:(Shardlog.shards log) k
           in
           let key = Q.File (seg_name k "journal.log") in
           read_shard t k (fun () ->
               match Journal.read ~dir:seg with
               | Error why -> found key ~surface:"journal" why
               | Ok r ->
                   if r.Journal.crc_errors > 0 then
                     found key ~surface:"journal"
                       (Printf.sprintf "%d record(s) failed CRC"
                          r.Journal.crc_errors)
                   else Q.clear t.quarantine key)
         done
     | _ -> ());
     (* Snapshot directories: recompute every cold file's CRC against
        the DIGESTS manifest. *)
     (match (t.log, t.config.journal_dir) with
     | Some log, Some dir ->
         for k = 0 to shards - 1 do
           pace ~surface:"snapshot";
           let seg = Shardlog.segment_dir ~dir ~shards:(Shardlog.shards log) k in
           read_shard t k (fun () ->
               (* The MANIFEST carries its own CRC and is not covered by
                  DIGESTS, so check it separately: a flipped cut point
                  must stay quarantined until a re-checkpoint rewrites
                  it. *)
               let mkey = Q.File (seg_name k Bx_repo.Fsio.marker) in
               (match Journal.read_manifest ~dir:seg with
               | `Corrupt ->
                   found mkey ~surface:"snapshot"
                     "manifest checksum mismatch: cut point untrusted"
               | `None | `Seq _ -> Q.clear t.quarantine mkey);
               let report =
                 Integrity.Digests.verify_dir ~dir:(Shardlog.snapshot_dir log k)
               in
               if report.Integrity.Digests.corrupt = [] then
                 (* Clean segment: acquit its previously-flagged
                    snapshot files (a re-checkpoint rewrote them). *)
                 List.iter
                   (fun (key, _) ->
                     match key with
                     | Q.File name
                       when name = seg_name k (Filename.basename name)
                            && name <> seg_name k "journal.log"
                            && name <> seg_name k Bx_repo.Fsio.marker
                       -> Q.clear t.quarantine key
                     | _ -> ())
                   (Q.items t.quarantine)
               else
                 List.iter
                   (fun (file, why) ->
                     found (Q.File (seg_name k file)) ~surface:"snapshot" why)
                   report.Integrity.Digests.corrupt)
         done
     | _ -> ());
     (* Entries: template validity plus the wiki round-trip laws (and
        any injected law), every stored version.  An entry that vanishes
        between the id walk and the check simply passes. *)
     for k = 0 to shards - 1 do
       let ids =
         read_shard t k (fun () -> Bx_repo.Registry.shard_ids t.registry k)
       in
       List.iter
         (fun id ->
           pace ~surface:"entry";
           let key = Q.Entry (Bx_repo.Identifier.to_string id) in
           read_shard t k (fun () ->
               match
                 Integrity.check_entry ?law:t.config.entry_law t.registry id
               with
               | Ok () -> Q.clear t.quarantine key
               | Error why ->
                   if String.length why >= 8 && String.sub why 0 8 = "no entry"
                   then ()
                   else found key ~surface:"entry" why))
         ids
     done;
     (* Documents: the stored view must equal what the lens derives from
        the stored source — GetPut at rest. *)
     List.iter
       (fun (lens, docid) ->
         pace ~surface:"doc";
         let key = Q.Doc (lens, docid) in
         read_shard t 0 (fun () ->
             match Docstore.check_doc t.docstore ~lens ~docid with
             | Ok () -> Q.clear t.quarantine key
             | Error why ->
                 if String.length why >= 7 && String.sub why 0 7 = "unknown"
                 then ()
                 else found key ~surface:"doc" why))
       (Docstore.doc_keys t.docstore)
   with Stop_scrub -> ());
  Metrics.scrub_pass t.metrics;
  (!items, List.rev !findings)

(* ------------------------------------------------------------------ *)
(* The socket server: accept loop + worker pool *)

let shutdown t =
  Atomic.set t.stop true;
  (* Wake idle workers so they can notice. *)
  Mutex.lock t.qm;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm;
  Mutex.lock t.dqm;
  Condition.broadcast t.dqc;
  Mutex.unlock t.dqm

(* How long a shed client should stay away: 1s while the queue is under
   its high-water mark, then 2..8s scaling with how far past it the
   depth has climbed.  A storm of simultaneous sheds then spreads its
   retries over several seconds instead of reconverging after exactly
   one — the server-side half of the decorrelation the client's jittered
   backoff provides. *)
let retry_after_for_depth t ~depth =
  let hw = queue_high_water t in
  if depth < hw then 1
  else
    let span = max 1 (t.config.queue_capacity - hw) in
    min 8 (2 + (6 * (depth - hw) / span))

(* Shed one connection: a tiny 503 + Retry-After written straight from
   whichever loop is rejecting it (the write goes to a socket buffer
   that is empty, and SO_SNDTIMEO bounds the pathological case), then
   close. *)
let shed_connection t fd ~reason =
  Metrics.shed t.metrics ~reason;
  let retry_after = retry_after_for_depth t ~depth:(queue_depth t) in
  (try
     Httpd.write_response fd ~keep_alive:false
       (Httpd.shed_response ~retry_after ~reason ())
   with Unix.Unix_error _ | Bx_fault.Fault.Injected _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Brownout: the degraded read lane.  When admission overflows, GETs are
   not shed outright — they land in a small second queue served by one
   dedicated domain that answers from the response cache at whatever
   generation it still holds, marked [X-Bxwiki-Stale].  Anything the
   cache cannot answer (a miss, a write) is shed exactly as the full
   queue used to shed everything, so the worst case is unchanged and the
   common case (a hot read during an overload spike) degrades instead of
   erroring. *)

let degraded_enqueue t fd =
  Mutex.lock t.dqm;
  (* The lane's queue is several times the front queue: a stale cache
     hit costs microseconds, and this queue exists precisely to absorb
     the burst spike the admission limit just refused. *)
  if (not t.daccepting) || Queue.length t.dqueue >= 4 * t.config.queue_capacity
  then begin
    Mutex.unlock t.dqm;
    shed_connection t fd ~reason:"queue_full"
  end
  else begin
    Queue.push (fd, Bx_obs.Clock.now ()) t.dqueue;
    Condition.signal t.dqc;
    Mutex.unlock t.dqm
  end

let ddequeue t =
  Mutex.lock t.dqm;
  let rec wait () =
    match Queue.take_opt t.dqueue with
    | Some entry -> Some entry
    | None ->
        if not t.daccepting then None
        else begin
          Condition.wait t.dqc t.dqm;
          wait ()
        end
  in
  let r = wait () in
  Mutex.unlock t.dqm;
  r

(* Serve one overflow connection from cache only — no locks, no
   rendering, no keep-alive.  The read budget is short: this lane exists
   because the node is overloaded, and a slow client does not get to pin
   its one domain. *)
let serve_degraded t fd =
  let reader = Httpd.reader_of_fd fd in
  match
    Httpd.read_request ~read_budget:(Float.min 1.0 t.config.read_timeout) reader
  with
  | Error _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | exception (Unix.Unix_error _ | Bx_fault.Fault.Injected _) -> (
      try Unix.close fd with Unix.Unix_error _ -> ())
  | Ok req -> (
      let started = Bx_obs.Clock.now () in
      let answer =
        if String.uppercase_ascii req.Httpd.meth = "GET" then
          try_stale t ~query:req.Httpd.query req.Httpd.path
        else None
      in
      match answer with
      | Some response ->
          Metrics.observe_request t.metrics
            ~route:(route_of t req.Httpd.path)
            ~meth:"GET" ~status:response.Bx_repo.Webui.status
            ~seconds:(Bx_obs.Clock.now () -. started);
          (try Httpd.write_response fd ~keep_alive:false response
           with Unix.Unix_error _ | Bx_fault.Fault.Injected _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> shed_connection t fd ~reason:"queue_full")

let degraded_loop t =
  let rec go () =
    match ddequeue t with
    | None -> ()
    | Some (fd, enqueued_at) ->
        if Bx_obs.Clock.now () -. enqueued_at > t.config.queue_deadline then
          shed_connection t fd ~reason:"deadline"
        else (
          try serve_degraded t fd
          with exn ->
            Metrics.protocol_error t.metrics ~route:"wire"
              ~reason:"worker_exn";
            Printf.eprintf "bxwiki: degraded lane: %s\n%!"
              (Printexc.to_string exn);
            (try Unix.close fd with Unix.Unix_error _ -> ()));
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Bounded, adaptive admission.  The static [queue_capacity] is now a
   ceiling; the operative limit is AIMD: each overflow halves it (at
   most once per 100ms window — a burst that overflows fifty times is
   one congestion signal, not fifty), each promptly-served connection
   adds one back.  Under sustained overload the backlog a client waits
   behind shrinks toward [min_concurrency], keeping queueing delay — and
   with it the deadline-miss rate — bounded. *)

let aimd_increase t =
  let cur = Atomic.get t.limit in
  if cur < t.config.queue_capacity then
    ignore (Atomic.compare_and_set t.limit cur (cur + 1))

let enqueue t fd =
  Mutex.lock t.qm;
  let cap = min t.config.queue_capacity (Atomic.get t.limit) in
  if Queue.length t.queue >= cap then begin
    let now = Bx_obs.Clock.now () in
    if now -. t.last_md >= 0.1 then begin
      t.last_md <- now;
      Atomic.set t.limit
        (max t.config.min_concurrency (Atomic.get t.limit / 2))
    end;
    Mutex.unlock t.qm;
    if t.config.brownout then degraded_enqueue t fd
    else shed_connection t fd ~reason:"queue_full"
  end
  else begin
    Queue.push (fd, Bx_obs.Clock.now ()) t.queue;
    Condition.signal t.qc;
    Mutex.unlock t.qm
  end

(* None once the accept loop has stopped and the queue is drained. *)
let dequeue t =
  Mutex.lock t.qm;
  let rec wait () =
    match Queue.take_opt t.queue with
    | Some entry -> Some entry
    | None ->
        if not t.accepting then None
        else begin
          Condition.wait t.qc t.qm;
          wait ()
        end
  in
  let r = wait () in
  Mutex.unlock t.qm;
  r

let handle_connection t fd =
  let reader = Httpd.reader_of_fd fd in
  let bad route reason status =
    Metrics.protocol_error t.metrics ~route ~reason;
    try Httpd.write_response fd ~keep_alive:false (Httpd.error_response status)
    with Unix.Unix_error _ -> ()
  in
  let rec loop () =
    match
      Httpd.read_request ~read_budget:t.config.read_timeout reader
    with
    | Error `Eof -> ()
    | Error (`Bad e) -> bad "wire" e.Httpd.reason e
    | Error `Deadline ->
        (* Slowloris: every byte arrived inside SO_RCVTIMEO, but the
           request as a whole overstayed its wall-clock budget.  Reap
           the socket and count the shed — a trickling client must not
           hold a worker for longer than a queued one may wait. *)
        Metrics.shed t.metrics ~reason:"deadline";
        (try
           Httpd.write_response fd ~keep_alive:false
             (Httpd.shed_response ~retry_after:1 ~reason:"deadline" ())
         with Unix.Unix_error _ | Bx_fault.Fault.Injected _ -> ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        bad "wire" "read_timeout" { Httpd.status = 408; reason = "read timeout" }
    | exception Unix.Unix_error (_, _, _) -> ()
    | exception Bx_fault.Fault.Injected _ ->
        (* An injected wire-read fault behaves like a peer reset. *)
        Metrics.protocol_error t.metrics ~route:"wire" ~reason:"fault_injected"
    | Ok req -> (
        let response =
          handle_query ?deadline:req.Httpd.deadline t ~query:req.query
            ~meth:req.meth ~path:req.path ~body:req.body
        in
        (* Drop keep-alive while draining so shutdown terminates. *)
        let keep_alive = req.keep_alive && not (Atomic.get t.stop) in
        match Httpd.write_response fd ~keep_alive response with
        | () -> if keep_alive then loop ()
        | exception Unix.Unix_error (_, _, _) -> ()
        | exception Bx_fault.Fault.Injected _ ->
            Metrics.protocol_error t.metrics ~route:"wire"
              ~reason:"fault_injected")
  in
  loop ();
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let worker_loop t =
  let rec go () =
    match dequeue t with
    | None -> ()
    | Some (fd, enqueued_at) ->
        (* The deadline budget: a connection that sat queued longer than
           [queue_deadline] is answered with a fast 503 — by now the
           client has likely timed out or retried, and burning a worker
           on stale work only deepens the overload. *)
        if Bx_obs.Clock.now () -. enqueued_at > t.config.queue_deadline then
          shed_connection t fd ~reason:"deadline"
        else begin
          let began = Bx_obs.Clock.now () in
          (try handle_connection t fd
           with exn ->
             (* A worker must survive anything one connection throws. *)
             Metrics.protocol_error t.metrics ~route:"wire" ~reason:"worker_exn";
             Printf.eprintf "bxwiki: worker: %s\n%!" (Printexc.to_string exn);
             (try Unix.close fd with Unix.Unix_error (_, _, _) -> ()));
          (* Additive increase: a connection served promptly earns one
             admission slot back. *)
          if Bx_obs.Clock.now () -. began <= t.config.queue_deadline then
            aimd_increase t
        end;
        go ()
  in
  go ()

let write_port_file file port =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Printf.fprintf oc "%d\n" port)

let serve t ?(port = 8008) ?(workers = 4) ?port_file ?(quiet = false) () =
  try
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 128;
    let bound =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    t.bound_port <- Some bound;
    Option.iter (fun f -> write_port_file f bound) port_file;
    if not quiet then
      Printf.printf
        "bxwiki: serving %d entries on http://127.0.0.1:%d/ (%d workers%s)\n%!"
        (with_registry t Bx_repo.Registry.size)
        bound workers
        (match t.config.journal_dir with
        | Some dir -> ", journal " ^ dir
        | None -> ", no journal");
    t.accepting <- true;
    if t.config.brownout then begin
      Mutex.lock t.dqm;
      t.daccepting <- true;
      Mutex.unlock t.dqm
    end;
    let pool = List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t)) in
    (* The degraded lane rides one extra domain so brownout answers keep
       flowing even when every pool worker is wedged on slow requests. *)
    let degraded =
      if not t.config.brownout then None
      else Some (Domain.spawn (fun () -> degraded_loop t))
    in
    (* The scrubber rides its own domain, paced by the token bucket so
       the worker pool's latency is unaffected; it re-walks everything
       continuously until shutdown. *)
    let scrubber =
      if t.config.scrub_rate <= 0 then None
      else
        Some
          (Domain.spawn (fun () ->
               let rate = float_of_int t.config.scrub_rate in
               let stop () = Atomic.get t.stop in
               (* Sleep in slices so shutdown is prompt. *)
               let rec pause n =
                 if n > 0 && not (stop ()) then begin
                   Thread.delay 0.1;
                   pause (n - 1)
                 end
               in
               while not (stop ()) do
                 (try ignore (scrub_once ~rate ~stop t)
                  with exn ->
                    Printf.eprintf "bxwiki: scrubber: %s\n%!"
                      (Printexc.to_string exn));
                 pause 10
               done))
    in
    let rec accept_loop () =
      if Atomic.get t.stop then ()
      else
        match Unix.select [ sock ] [] [] 0.2 with
        | [], _, _ -> accept_loop ()
        | _ -> (
            match Unix.accept sock with
            | client, _ ->
                (match Bx_fault.Fault.point "httpd.accept" with
                | () ->
                    Unix.setsockopt_float client Unix.SO_RCVTIMEO
                      t.config.read_timeout;
                    (* A slow reader cannot pin a worker: response writes
                       time out too, and the connection is dropped. *)
                    Unix.setsockopt_float client Unix.SO_SNDTIMEO
                      write_timeout;
                    enqueue t client
                | exception Bx_fault.Fault.Injected _ -> (
                    Metrics.protocol_error t.metrics ~route:"wire"
                      ~reason:"fault_injected";
                    try Unix.close client with Unix.Unix_error _ -> ()));
                accept_loop ()
            | exception
                Unix.Unix_error
                  ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                    | Unix.ECONNABORTED),
                    _,
                    _ ) ->
                accept_loop ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    in
    accept_loop ();
    (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
    (* Drain: no more connections will arrive; workers finish the queue
       and their in-flight requests, then exit. *)
    Mutex.lock t.qm;
    t.accepting <- false;
    Condition.broadcast t.qc;
    Mutex.unlock t.qm;
    List.iter Domain.join pool;
    (* Only after the pool has drained: workers may still be routing
       overflow into the degraded queue. *)
    Mutex.lock t.dqm;
    t.daccepting <- false;
    Condition.broadcast t.dqc;
    Mutex.unlock t.dqm;
    Option.iter Domain.join degraded;
    Option.iter Domain.join scrubber;
    t.bound_port <- None;
    let result =
      match checkpoint t with
      | Ok _ -> Ok ()
      | Error e -> Error ("final snapshot: " ^ e)
    in
    close t;
    if not quiet then
      Printf.printf "bxwiki: drained, snapshot written, bye\n%!";
    result
  with Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
