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

(* A shard's anti-entropy digest.  Unfolded: nothing is hashed, from
   boot or from the install that last replaced the shard until someone
   asks for the digest.  Folded: the value, kept exact by every write
   after it.  Guarded by the shard's lock. *)
type digest = Unfolded | Folded of int

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
  digests : digest array;
      (* per-shard content digests (XOR over entry hashes; shard 0 also
         folds the docstore), folded on first demand and then kept under
         the same write locks as [gens] — the O(shards) anti-entropy
         currency *)
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
  admission : (Unix.file_descr * float) Admission.t;
      (* connections, each with its request deadline, between the
         accept loop and the workers; under brownout, the front lane's
         overflow waits on the stale lane for the degraded worker *)
  node : Node.t; (* role, epoch, fencing and follower progress *)
  applied_next : int Atomic.t;
      (* the next sequence number this node will journal — the
         follower's poll cursor and the primary's stream head alike *)
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

(* The touched item's contribution to its shard's digest; 0 when absent,
   so the before/after XOR covers creation too.  An entry hashes every
   stored version, and the counter says how many.  Caller holds the
   shard's lock. *)
let item_hash t = function
  | Route.Entry_item id ->
      (match Bx_repo.Registry.versions t.registry id with
      | Ok vs -> Metrics.digest_hashed t.metrics ~versions:(List.length vs)
      | Error _ -> ());
      Integrity.entry_hash t.registry id
  | Doc_item (lens, docid) -> (
      match Docstore.get_doc t.docstore ~lens ~docid ~view:false with
      | Ok (gen, source) -> Integrity.doc_hash ~lens ~docid ~gen ~source
      | Error _ -> 0)
  | No_item -> 0

(* Hash every stored version of the shard once.  Caller holds shard
   [k]'s write lock. *)
let fold_shard t k =
  let value =
    List.fold_left
      (fun acc id -> acc lxor item_hash t (Route.Entry_item id))
      (if k = 0 then doc_digest t else 0)
      (Bx_repo.Registry.shard_ids t.registry k)
  in
  Metrics.digest_fold t.metrics;
  t.digests.(k) <- Folded value;
  value

let folded t k = match t.digests.(k) with Folded d -> Some d | Unfolded -> None

(* A folded shard answers under its read lock; an unfolded one is folded
   under its write lock, once, and keeps the value for the next caller. *)
let shard_digest t k =
  match read_shard t k (fun () -> folded t k) with
  | Some d -> d
  | None ->
      write_shard t k (fun () ->
          match folded t k with Some d -> d | None -> fold_shard t k)

let shard_digests t =
  List.init (Array.length t.digests) (fun k -> (k, shard_digest t k))

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

let ( let* ) = Result.bind
let tag what = Result.map_error (fun e -> what ^ e)

(* Documents persist in shard 0's snapshot. *)
let load_docs docstore log =
  Docstore.load_dir docstore ~dir:(Shardlog.snapshot_dir log 0)

let respond_html status title body =
  {
    Bx_repo.Webui.status;
    content_type = "text/html; charset=utf-8";
    body = Bx_repo.Webui.html_page ~title body;
    headers = [];
  }

let respond_text status body =
  {
    Bx_repo.Webui.status;
    content_type = "text/plain; charset=utf-8";
    body;
    headers = [];
  }

let docstore_error e =
  let status =
    match e with
    | Docstore.Not_found _ -> 404
    | Docstore.Stale _ -> 409
    | Docstore.Bad_request _ -> 400
    | Docstore.Unprocessable _ -> 422
  in
  respond_text status (Docstore.describe e ^ "\n")

(* The in-memory half of every write — a live POST, a replayed journal
   record, a streamed replica record: document writes mutate the
   docstore, entry edits go to the registry.  Nothing here locks,
   journals or counts; the callers decide that. *)
let perform registry docstore route ~path ~body =
  match route with
  | Route.Doc_write op -> (
      match Docstore.mutate docstore op ~body with
      | Ok reply -> respond_text 200 reply
      | Error e -> docstore_error e)
  | Edit { id; _ } ->
      Bx_repo.Webui.post ~editor:Bx_repo.Webui.default_editor registry ~path id
        ~body
  | _ -> respond_text 404 ("not a write: " ^ path ^ "\n")

(* A journal record stores the request path verbatim; it parses as the
   POST it was.  Extra pages never shadow a journaled write: the write
   path did not consult them when the record was taken. *)
let journaled (r : Journal.record) = Route.parse ~pages:[] "POST" r.path

let replay_edits registry docstore records =
  List.fold_left
    (fun (ok, failed) (r : Journal.record) ->
      let response =
        perform registry docstore (journaled r) ~path:r.path ~body:r.body
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
  let* n = Bx_repo.Store.save_shard ~dir t.registry k in
  (* Lens-backed documents ride shard 0's snapshot as one extra flat
     file; every other loader ignores it (page files are recognised by
     name). *)
  if k <> 0 || Docstore.doc_count t.docstore = 0 then Ok n
  else Result.map (fun () -> n + 1) (Docstore.save_dir t.docstore ~dir)

(* Caller holds shard [k]'s write lock, or for [`All] every write lock
   (or is single-threaded at boot or shutdown): then all segments seal at
   the same global cut. *)
let checkpoint_locked t which =
  match t.log with
  | None -> Ok 0
  | Some log ->
      let save k ~dir = save_shard_cb t k ~dir in
      let result =
        match which with
        | `Shard k -> Shardlog.checkpoint_shard log ~shard:k ~save:(save k)
        | `All -> Shardlog.checkpoint_all log ~save
      in
      Metrics.compaction t.metrics ~ok:(Result.is_ok result);
      result

(* ------------------------------------------------------------------ *)
(* What /metrics samples rather than counts: read at scrape time,
   registered once per service. *)

let fenced t = Node.fenced t.node
let replication_behind t = Node.behind t.node
let replication_lag t = Node.lag t.node ~now:(Bx_obs.Clock.now ())

let register_sampled t ~boot =
  let gauge ?kind ?labels name help read =
    Metrics.sample t.metrics ?kind ?labels name ~help read
  in
  let counter ?labels name help read = gauge ~kind:"counter" ?labels name help read in
  let one v = [ ([], float_of_int v) ] in
  gauge ~labels:[ "phase" ] "bxwiki_boot_seconds"
    "Seconds each boot phase took: journal, seed or snapshot, replay."
    (fun () -> List.map (fun (phase, s) -> ([ phase ], s)) boot);
  gauge "bxwiki_queue_depth"
    "Pending connections queued for a worker (sampled at scrape)."
    (fun () -> one (Admission.depth t.admission));
  gauge "bxwiki_concurrency_limit"
    "AIMD adaptive admission limit (sampled at scrape)."
    (fun () -> one (Admission.limit t.admission));
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
  gauge "bxwiki_respcache_shards" "Response-cache shards (a page's path picks one)."
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
    (fun () -> one (Node.epoch t.node));
  gauge "bxwiki_replication_fenced"
    "Whether this node has been deposed by a newer epoch (writes rejected)."
    (fun () -> one (Bool.to_int (fenced t)));
  gauge ~labels:[ "role" ] "bxwiki_replication_role"
    "Role of this node (1 for the held role)."
    (fun () ->
      let r = Bool.to_int (Node.is_replica t.node) in
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
  (* Each boot phase's seconds, in the order they ran. *)
  let phases = ref [] in
  let timed phase f =
    let t0 = Bx_obs.Clock.now_ns () in
    let r = f () in
    phases := (phase, float_of_int (Bx_obs.Clock.now_ns () - t0) *. 1e-9) :: !phases;
    r
  in
  let fresh ~registry ~log ~applied ~failed =
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
      digests = Array.make shards Unfolded;
      quarantine = Integrity.Quarantine.create ();
      cm = Mutex.create ();
      corruption_times = [];
      replay_applied = applied;
      replay_failed = failed;
      stop = Atomic.make false;
      journal_ok = Atomic.make true;
      disk_full = Atomic.make false;
      bound_port = None;
      admission =
        Admission.create ~capacity:config.queue_capacity
          ~budget:config.queue_deadline ~stale:config.brownout;
      node =
        Node.create ~dir:config.journal_dir ~replica:config.replica
          ~wait:config.stream_wait ~now:(Bx_obs.Clock.now ());
      applied_next =
        Atomic.make
          (match log with Some l -> Shardlog.next_seq l | None -> 1);
    }
    in
    register_sampled t ~boot:(List.rev !phases);
    t
  in
  let seeded () = tag "seed re-shard: " (resharded (seed ())) in
  match config.journal_dir with
  | None ->
      let* registry = timed "seed" seeded in
      Ok (fresh ~registry ~log:None ~applied:0 ~failed:0)
  | Some dir -> (
      let* log, recovery = timed "journal" (fun () -> Shardlog.open_ ~dir ~shards) in
      (* What recovery found is an operational signal: torn tails are the
         benign residue of a crash, checksum failures are corruption
         worth an operator's attention. *)
      Metrics.journal_recovery metrics ~torn:recovery.torn
        ~crc_errors:recovery.crc_errors;
      let registry0 =
        if recovery.complete then
          (* Every segment carries a sealed snapshot: the pages are the
             whole catalogue, no seed needed. *)
          timed "snapshot" (fun () ->
              tag "snapshot load: " (Bx_repo.Registry.import ~shards recovery.pages))
        else
          (* Partial (or no) snapshots: start from the seed and lay the
             sealed shards' pages over it — cheaper than forcing a full
             initial checkpoint just to make boot uniform. *)
          timed "seed" (fun () ->
              let* registry = seeded () in
              let* () =
                tag "snapshot overlay: " (Bx_repo.Registry.overlay registry recovery.pages)
              in
              Ok registry)
      in
      match registry0 with
      | Error e ->
          Shardlog.close log;
          Error e
      | Ok registry ->
          (* Documents persist in shard 0's snapshot; load them before
             replay so journalled patches find their documents at the
             right generation.  A dump that failed its checksum is
             quarantined below, not parsed. *)
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
            timed "replay" (fun () -> replay_edits registry docstore recovery.replay)
          in
          let t = fresh ~registry ~log:(Some log) ~applied ~failed in
          (* Checksum casualties found at boot enter the quarantine like
             scrub findings would: flagged, counted, kept on disk for the
             operator (or an anti-entropy resync). *)
          List.iter
            (fun (k, file, why) ->
              let name = Shardlog.file_name ~shards k file in
              flag_corruption t (Integrity.Quarantine.File name)
                ~surface:"snapshot" ~why)
            recovery.corrupt;
          Ok t)

(* ------------------------------------------------------------------ *)
(* Request handling *)

(* The generation counter a rendered page is filed under: an entry page
   is exactly as fresh as its registry shard; every other page reads the
   whole catalogue (scope -1) and any write invalidates it. *)
let page_scope t = function
  | Bx_repo.Webui.Entry { id; _ } -> Bx_repo.Registry.shard_of_id t.registry id
  | Index | Search | Glossary | Manuscript | Extra _ -> -1

(* Sampled racily (like the pre-sharding code sampled [t.gen]): a stale
   sample only causes a miss or an eviction, never a stale hit, because
   the store-side generation is sampled under the rendering lock. *)
let scope_gen t k = if k < 0 then total_gen t else t.gens.(k)

let cache_key ~path ~query = if query = "" then path else path ^ "?" ^ query

(* ------------------------------------------------------------------ *)
(* The request deadline.  A request carries one absolute deadline: its
   connection's accept time (or, on keep-alive, its first byte) plus
   [queue_deadline], tightened by the client's X-Bxwiki-Deadline.  Once
   it has passed nobody is waiting for the answer, so work is shed
   *before* the expensive steps — lock acquisition, rendering, the
   journal fsync — with a 504 and its own shed reason. *)

let shed_deadline t =
  Metrics.shed t.metrics ~reason:"deadline_propagated";
  respond_text 504 "deadline exceeded: request budget exhausted\n"

(* Serve [path] from whatever render the cache still holds, at any
   generation, labelled with how far behind the live registry it is.
   The brownout bargain: freshness is traded for availability, visibly —
   the client can always tell a stale answer from a fresh one. *)
let try_stale t page ~query path =
  match Respcache.find_stale t.cache ~path:(cache_key ~path ~query) with
  | Some (gen, response) when response.Bx_repo.Webui.status = 200 ->
      let lag = max 0 (scope_gen t (page_scope t page) - gen) in
      Metrics.stale_response t.metrics ~gen_lag:lag;
      Some
        {
          response with
          Bx_repo.Webui.headers =
            ("X-Bxwiki-Stale", string_of_int lag)
            :: response.Bx_repo.Webui.headers;
        }
  | _ -> None

let handle_get t page ~query path =
  let key = cache_key ~path ~query in
  let scope = page_scope t page in
  let render () =
    ( scope_gen t scope,
      Bx_repo.Webui.get ~pages:t.pages ~query t.registry ~path page )
  in
  let render () =
    Bx_fault.Fault.point "service.lock.read";
    match page with
    | Bx_repo.Webui.Extra _ ->
        (* Serialise extra-page thunks (they may force lazies, which is
           not safe to race from parallel domains); the result is cached,
           so this mutex is cold after the first render. *)
        Mutex.lock t.pages_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.pages_mutex)
          (fun () -> read_all t render)
    | Entry _ ->
        (* An entry page renders under just its shard's read lock: a
           write to any other shard neither blocks this read nor
           invalidates its cache entry. *)
        read_shard t scope render
    | Index | Search | Glossary | Manuscript -> read_all t render
  in
  (* The generation is sampled under the same read lock that renders, so
     a cached page can never be older than the generation it is filed
     under. *)
  match Respcache.find t.cache ~path:key ~generation:(scope_gen t scope) with
  | Some response -> response
  | None ->
      let generation, response = render () in
      if response.Bx_repo.Webui.status = 200 then
        Respcache.store t.cache ~path:key ~scope ~generation response
          ~current:(scope_gen t);
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
   Each passes the [slens.batch.worker] failpoint and runs even after
   one failed; the first failure is re-raised at the end, after
   [counted] has the number of documents. *)
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

let handle_slens t ~lens:name ~op body =
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
        respond_text 422 (m ^ "\n"))

(* Why this node cannot accept a write right now, if it cannot. *)
let write_barrier t =
  match Node.write_barrier t.node with
  | Some why -> Some (respond_text 503 why)
  | None when Atomic.get t.disk_full ->
    Some
      (respond_text 503
         "read-only: journal disk full, writes refused until space is \
          freed\n")
  | None -> None

(* ------------------------------------------------------------------ *)
(* The write path.  A write at run time — a live POST or a streamed
   replica record — rides the shard {!Route.touch} names: its lock,
   generation and journal segment, and the item whose hash moves that
   shard's digest.  An entry edit rides its entry's shard; a lens
   document rides shard 0 (its snapshot carries the docstore).
   [apply_write] then runs {!perform} and keeps a folded digest exact
   (boot replay runs {!perform} alone: the digests are folded on first
   demand after it).  The two orders around it: a primary applies, then
   journals (a refused edit never reaches the log); a replica journals,
   then applies (a crash in between replays to the same state at the
   next boot). *)

(* Caller holds shard [k]'s write lock.  An unfolded shard hashes
   nothing: its first digest request folds what the write left.  On a
   folded shard the pre-image hash is sampled under the same lock that
   applies the write: XORing it out and the post-image in keeps the
   shard digest exact without rescanning the shard.  A replica's digests
   track the same XOR, so a digest comparison measures content
   divergence, not bookkeeping drift. *)
let apply_write t (k, item) route ~path ~body =
  match t.digests.(k) with
  | Unfolded -> perform t.registry t.docstore route ~path ~body
  | Folded d ->
      let before = item_hash t item in
      let response = perform t.registry t.docstore route ~path ~body in
      if response.Bx_repo.Webui.status = 200 then
        t.digests.(k) <- Folded (d lxor before lxor item_hash t item);
      response

(* An append's verdict on the journal.  A failure flips /readyz until the
   next successful append; ENOSPC is special — no retry can succeed
   until an operator frees space, so it latches [disk_full] and the
   write barrier turns the node read-only instead of flapping per
   request. *)
let note_append t = function
  | Ok _ -> Atomic.set t.journal_ok true
  | Error e ->
      Atomic.set t.journal_ok false;
      if Journal.is_disk_full_error e then Atomic.set t.disk_full true

(* Caller holds shard [k]'s write lock.  A failed compaction must not
   take the service down: the journal keeps growing, the failure is
   counted and surfaced in /metrics, and serving continues.  Only this
   shard's segment snapshots and truncates — compaction cost is
   O(shard), whatever the catalogue size. *)
let maybe_compact t k =
  match t.log with
  | Some log
    when t.config.compact_every > 0
         && Shardlog.record_count log k >= t.config.compact_every -> (
      match checkpoint_locked t (`Shard k) with
      | Ok _ -> ()
      | Error e -> Printf.eprintf "bxwiki: compaction failed: %s\n%!" e)
  | _ -> ()

(* The durability half of an accepted live write: bump shard [k]'s
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
      let appended = Shardlog.append log ~shard:k ~path ~body in
      note_append t appended;
      match appended with
      | Error e ->
          (* The in-memory edit stands, but durability was promised and
             could not be delivered: tell the client the truth and let
             the operator look at the disk. *)
          Metrics.protocol_error t.metrics ~route:"journal"
            ~reason:"append_failed";
          respond_html 500 "Journal write failed"
            ("<p>Edit applied in memory but not journaled: "
            ^ Bx_repo.Markup.html_escape e ^ "</p>")
      | Ok _ ->
          Atomic.set t.applied_next (Shardlog.next_seq log);
          maybe_compact t k;
          response)

(* Live document writes count in the lens metrics; replayed and streamed
   records do not. *)
let observe_doc_write t route body =
  let observe lens op =
    Metrics.observe_lens t.metrics ~lens ~op ~docs:1
      ~bytes:(String.length body)
  in
  match route with
  | Route.Doc_write (Put { lens; _ }) -> observe lens "doc_put"
  | Doc_write (Patch { lens; reverse }) ->
      observe lens (if reverse then "patch_source" else "patch")
  | _ -> ()

(* A live POST: an entry edit takes only its shard's write lock, so
   edits to entries in other shards proceed in parallel; a document
   write takes shard 0's. *)
let handle_write ?deadline t route ~path ~body =
  match write_barrier t with
  | Some refusal -> refusal
  | None ->
      Bx_fault.Fault.point "service.lock.write";
      let ((k, _) as touch) = Route.touch t.registry route ~body in
      write_shard t k (fun () ->
          (* Re-checked after the (possibly contended) lock wait, and
             before the edit is applied: this is the last point an
             exhausted budget can abort cleanly — once the in-memory
             apply happens, skipping the journal fsync would diverge
             memory from disk. *)
          match deadline with
          | Some d when Bx_obs.Clock.now () > d -> shed_deadline t
          | _ ->
              observe_doc_write t route body;
              let response = apply_write t touch route ~path ~body in
              if response.Bx_repo.Webui.status <> 200 then response
              else journal_accepted t ~k ~path ~body response)

(* ------------------------------------------------------------------ *)
(* Lens-backed documents.  POST /slens/<name>/doc/<docid> stores a
   source document (the view is maintained through the lens);
   GET /slens/<name>/doc/<docid>[?as=view] reads either side back with
   its generation; POST /slens/<name>/patch ships an {e edit} instead
   of a document — a [<docid> RS <gen> RS <edit>] frame propagated
   incrementally by {!Bx_strlens.Slens_delta}, answered with the new
   generation and the complementary source edit.  [/patch_source] is
   the mirror direction (a source edit, answered with the view edit).

   Writes go through {!handle_write}, and the journal record {e is} the
   request frame: what the log and the replication stream carry for a
   patch is the edit, not the document. *)

let handle_docstore_get t ~query ~lens ~docid =
  match
    Integrity.Quarantine.find t.quarantine (Integrity.Quarantine.Doc (lens, docid))
  with
  | Some reason ->
      (* Never serve bytes the scrubber could not vouch for: a
         quarantined document is Gone until repaired (or resynced), not
         silently replaced by something plausible. *)
      respond_text 410 ("quarantined: " ^ reason ^ "\n")
  | None -> (
      let as_view =
        List.assoc_opt "as" (Bx_repo.Webui.query_params query) = Some "view"
      in
      Metrics.observe_lens t.metrics ~lens ~op:"doc_get" ~docs:1 ~bytes:0;
      read_shard t 0 (fun () ->
          match Docstore.get_doc t.docstore ~lens ~docid ~view:as_view with
          | Ok (gen, doc) -> respond_text 200 (string_of_int gen ^ rs_str ^ doc)
          | Error e -> docstore_error e))

(* ------------------------------------------------------------------ *)
(* Replication: the primary side (stream + snapshot endpoints), the
   replica side (apply + snapshot install, reached through the
   {!Replication.sink}), and promotion. *)

let is_replica t = Node.is_replica t.node
let epoch t = Node.epoch t.node
let last_stream_poll t = Node.last_stream_from t.node
let replication_synced t = Node.synced t.node

let octet_response body =
  {
    Bx_repo.Webui.status = 200;
    content_type = "application/octet-stream";
    body;
    headers = [];
  }

let handle_stream ?deadline:request_deadline t query =
  match t.log with
  | None -> respond_text 404 "replication requires a journal\n"
  | Some log ->
      let params = Bx_repo.Webui.query_params query in
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
          let my_epoch = Node.epoch t.node in
          if peer_epoch > my_epoch then begin
            (* The poller has seen a newer primary than us: we are the
               deposed one.  Fence: refuse all further writes, so no
               stale ack from this node can contradict the new epoch. *)
            Node.fence t.node peer_epoch;
            respond_text 409
              (Printf.sprintf "deposed: epoch %d supersedes ours (%d)\n"
                 peer_epoch my_epoch)
          end
          else begin
            (* A poll at [from] acknowledges everything below it. *)
            Node.note_poll t.node from;
            let wait = Float.min wait t.config.stream_wait in
            (* A long poll held past its request's deadline answers
               nobody: clamp the hold so the poll returns (possibly
               empty) while the follower is still listening. *)
            let wait =
              match request_deadline with
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
                let records =
                  List.filteri (fun i _ -> i < t.config.stream_max_records) records
                in
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
        Replication.snapshot_body ~epoch:(Node.epoch t.node) ~seq ~files
      in
      Metrics.replication_streamed t.metrics ~records:0
        ~bytes:(String.length body);
      octet_response body

let handle_snapshot t query =
  match t.log with
  | None -> respond_text 404 "replication requires a journal\n"
  | Some log -> (
      match List.assoc_opt "shard" (Bx_repo.Webui.query_params query) with
      | Some v -> (
          (* Targeted anti-entropy: seal and ship exactly one segment —
             the other shards neither checkpoint nor block. *)
          match int_of_string_opt v with
          | Some k when k >= 0 && k < Shardlog.shards log ->
              snapshot_response t
                (write_shard t k (fun () ->
                     let* _ = checkpoint_locked t (`Shard k) in
                     Shardlog.snapshot_files_shard log ~shard:k))
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
                  let* _ = checkpoint_locked t `All in
                  Shardlog.snapshot_files log)
          in
          snapshot_response t files)

(* The anti-entropy currency: O(shards) numbers a caught-up follower
   compares against its own to find silent divergence — and, on a
   mismatch, knows exactly which shard to re-fetch. *)
let handle_digest t =
  respond_text 200
    (Integrity.render_digests ~epoch:(Node.epoch t.node) (shard_digests t))

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
        (* A streamed patch record carries the edit, not the document:
           the follower propagates it through its own docstore (put_delta
           and its internal full-put fallback), converging on the
           primary's state.  Records fan into the same shard (lock,
           generation and journal segment) a local edit would have used —
           a replica's on-disk layout converges on the primary's. *)
        let apply_one (r : Journal.record) route ((k, _) as touch) =
          let response = apply_write t touch route ~path:r.path ~body:r.body in
          if response.Bx_repo.Webui.status <> 200 then begin
            Printf.eprintf
              "bxwiki: streamed record %d (%s) did not apply (status %d)\n%!"
              r.seq r.path response.Bx_repo.Webui.status;
            Metrics.protocol_error t.metrics ~route:"replication"
              ~reason:"apply_failed"
          end;
          Atomic.set t.applied_next (r.seq + 1);
          t.gens.(k) <- t.gens.(k) + 1;
          Metrics.replication_applied t.metrics ~records:1;
          maybe_compact t k
        in
        let rec go = function
          | [] -> Ok ()
          | (r : Journal.record) :: rest -> (
              let next = Atomic.get t.applied_next in
              if r.seq < next then go rest
              else if r.seq > next then Error (`Gap (next, r.seq))
              else
                let route = journaled r in
                let ((k, _) as touch) = Route.touch t.registry route ~body:r.body in
                match t.log with
                | None ->
                    apply_one r route touch;
                    go rest
                | Some log when r.seq <= Shardlog.shard_floor log k ->
                    (* A targeted resync sealed this segment past
                       [r.seq]: the record is already embodied in the
                       installed shard snapshot.  Skip it (the cursor
                       still advances — other shards' records in this
                       range apply normally). *)
                    Atomic.set t.applied_next (r.seq + 1);
                    go rest
                | Some log -> (
                    let appended =
                      Shardlog.append_at log ~shard:k ~seq:r.seq
                        ~path:r.path ~body:r.body
                    in
                    note_append t appended;
                    match appended with
                    | Error e -> Error (`Fail e)
                    | Ok _ ->
                        apply_one r route touch;
                        go rest))
        in
        go records)
  with Bx_fault.Fault.Injected m -> Error (`Fail m)

let replication_install_snapshot t ~seq ~files =
  try
    Bx_fault.Fault.point "repl.apply";
    write_all t (fun () ->
        match t.log with
        | None -> Error "snapshot bootstrap requires a journal"
        | Some log ->
            let* () = Shardlog.install_snapshot log ~seq ~files in
            let* pages = tag "snapshot load: " (Shardlog.snapshot_pages log) in
            let* registry =
              tag "snapshot load: "
                (Bx_repo.Registry.import ~shards:(Shardlog.shards log) pages)
            in
            t.registry <- registry;
            (* Everything cached is superseded. *)
            Array.iteri (fun i _ -> t.gens.(i) <- t.gens.(i) + 1) t.gens;
            Atomic.set t.applied_next (seq + 1);
            (* The shipped snapshot carries the primary's documents (or
               none); either way it replaces ours. *)
            let docs = load_docs t.docstore log in
            Array.fill t.digests 0 (Array.length t.digests) Unfolded;
            docs)
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
        | Some log when shard < 0 || shard >= Shardlog.shards log ->
            Error (Printf.sprintf "shard %d out of range" shard)
        | Some log ->
            let* () = Shardlog.install_shard log ~shard ~seq ~files in
            let* pages =
              tag "snapshot load: " (Shardlog.snapshot_pages_shard log ~shard)
            in
            let* () =
              tag "shard import: "
                (Bx_repo.Registry.replace_shard t.registry shard pages)
            in
            t.gens.(shard) <- t.gens.(shard) + 1;
            let docs = if shard <> 0 then Ok () else load_docs t.docstore log in
            t.digests.(shard) <- Unfolded;
            Metrics.replication_shard_resync t.metrics;
            docs)
  with Bx_fault.Fault.Injected m -> Error m

let replication_sink t =
  {
    Replication.next_seq = (fun () -> Atomic.get t.applied_next);
    epoch = (fun () -> Node.epoch t.node);
    observe_epoch = Node.observe_epoch t.node;
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
        Node.note_progress t.node ~now:(Bx_obs.Clock.now ()) ~behind);
    note_reconnect = (fun () -> Metrics.replication_reconnect t.metrics);
    note_epoch_reject = (fun () -> Metrics.replication_epoch_reject t.metrics);
    note_snapshot_bootstrap =
      (fun () -> Metrics.replication_snapshot_bootstrap t.metrics);
    should_stop =
      (fun () -> Atomic.get t.stop || not (Node.is_replica t.node));
  }

let follow t ~host ~port ?(wait = default_config.stream_wait) ?min_sleep
    ?max_sleep () =
  Node.set_allowance t.node ~wait;
  Replication.follow ~host ~port ~wait ?min_sleep ?max_sleep
    (replication_sink t)

(* Promotion runs under every shard lock, so no write is in flight
   while the role flips. *)
let promote t =
  if not (Node.is_replica t.node) then Error "already primary"
  else write_all t (fun () -> Node.promote t.node)

let handle_promote t =
  match promote t with
  | Ok e -> respond_text 200 (Printf.sprintf "promoted: epoch %d\n" e)
  | Error ("already primary" as e) -> respond_text 409 (e ^ "\n")
  | Error e -> respond_text 503 ("promote failed: " ^ e ^ "\n")

(* ------------------------------------------------------------------ *)
(* Health, readiness and the failpoint admin route *)

let concurrency_limit t = Admission.limit t.admission

(* Readiness = this process can usefully take traffic right now: the
   journal accepted its last write (replay completed inside [create], so
   a constructed service has replayed), we are not draining, and the
   pending queue is below its high-water mark. *)
let readiness t =
  List.filter_map
    (fun (ok, reason) -> if ok then None else Some reason)
    [
      (Atomic.get t.journal_ok, "journal_unwritable");
      (* Sticky: once the disk filled, only an operator restart after
         freeing space clears it (a transient later success proves
         nothing about the next write). *)
      (not (Atomic.get t.disk_full), "journal_disk_full");
      (not (Atomic.get t.stop), "draining");
      ( Admission.depth t.admission < Admission.high_water t.admission,
        "queue_high_water" );
    ]
  @ Node.readiness t.node ~now:(Bx_obs.Clock.now ())
      ~lag_threshold:t.config.replica_lag_threshold
  (* A burst of fresh corruption findings means the medium under us is
     failing: drain traffic away while still serving reads. *)
  @ if corruption_burst t then [ "corruption_burst" ] else []

let ready t = readiness t = []

let handle_readyz t =
  match readiness t with
  | [] -> respond_text 200 "ready\n"
  | reasons -> respond_text 503 ("not ready: " ^ String.concat ", " reasons ^ "\n")

(* The failpoint and network-chaos admin routes: GET shows the armed
   rules (chaos adds live proxy counters), PUT replaces the rule set
   (chaos pushes it to every live proxy).  Each route exists only when
   its mechanism was armed at startup. *)
let handle_admin ~enabled ~unarmed ~describe ~show ~configure ~put ~body =
  if not enabled then respond_text 404 unarmed
  else if not put then respond_text 200 (show ())
  else
    match configure body with
    | Ok () -> respond_text 200 (describe () ^ "\n")
    | Error e -> respond_text 400 (e ^ "\n")

let handle_failpoints_admin t =
  let describe = Bx_fault.Fault.describe in
  handle_admin ~enabled:t.config.failpoints_admin
    ~unarmed:"failpoint admin is not enabled (set BXWIKI_FAILPOINTS)\n"
    ~describe ~show:(fun () -> describe () ^ "\n")
    ~configure:Bx_fault.Fault.configure

let handle_chaos_admin t =
  let describe = Bx_fault.Netchaos.describe in
  handle_admin ~enabled:t.config.chaos_admin
    ~unarmed:"chaos admin is not enabled (set BXWIKI_CHAOS)\n"
    ~describe
    ~show:(fun () -> describe () ^ "\n" ^ Bx_fault.Netchaos.stats_text ())
    ~configure:Bx_fault.Netchaos.configure

(* Quarantined entries keep serving — but honestly: every 200 for a
   flagged entry carries a Warning header.  Applied after the cache
   lookup, so the header is never cached and clears the moment the
   flag does. *)
let with_quarantine_warning t id response =
  if
    response.Bx_repo.Webui.status <> 200
    || Integrity.Quarantine.size t.quarantine = 0
  then response
  else
    match
      Integrity.Quarantine.find t.quarantine
        (Integrity.Quarantine.Entry (Bx_repo.Identifier.to_string id))
    with
    | None -> response
    | Some reason ->
        let reason = String.map (fun c -> if c = '"' then '\'' else c) reason in
        {
          response with
          Bx_repo.Webui.headers =
            ("Warning", Printf.sprintf "299 bxwiki \"quarantined: %s\"" reason)
            :: response.Bx_repo.Webui.headers;
        }

let not_allowed allow =
  {
    (respond_text 405
       ("method not allowed; use " ^ String.concat " or " allow ^ "\n"))
    with
    Bx_repo.Webui.headers = [ ("Allow", String.concat ", " allow) ];
  }

let handle_query ?deadline t ~query ~meth ~path ~body =
  let started = Bx_obs.Clock.now () in
  let expired = match deadline with Some d -> started > d | None -> false in
  let meth = String.uppercase_ascii meth in
  let route = Route.parse ~pages:t.pages meth path in
  let response =
    (* An injected fault at a lock or lens seam is answered like any
       other transient overload: a 503 the retrying client backs off
       from, never a hung connection or a dead worker. *)
    try
      match route with
      | Route.Bad_path -> respond_text 400 "bad request path: it must begin with /\n"
      | Not_allowed { allow; _ } -> not_allowed allow
      | _ when expired && not (Route.deadline_exempt route) -> (
          (* The budget was gone before dispatch.  A stale cached render is
             free and still useful to a client that races the answer
             against its timeout; anything else is wasted work.
             Operational routes never shed on a client deadline: they
             must answer even (especially) when the node is struggling,
             and the stream route clamps its long-poll hold instead. *)
          match route with
          | Page page when t.config.brownout -> (
              match try_stale t page ~query path with
              | Some r -> r
              | None -> shed_deadline t)
          | _ -> shed_deadline t)
      | Metrics ->
          {
            Bx_repo.Webui.status = 200;
            content_type = "text/plain; version=0.0.4; charset=utf-8";
            body = Metrics.render t.metrics;
            headers = [];
          }
      | Healthz -> respond_text 200 "ok\n"
      | Readyz -> handle_readyz t
      | Failpoints { put } -> handle_failpoints_admin t ~put ~body
      | Chaos { put } -> handle_chaos_admin t ~put ~body
      | Stream -> handle_stream ?deadline t query
      | Snapshot -> handle_snapshot t query
      | Digest -> handle_digest t
      | Promote -> handle_promote t
      | Page (Entry { id; _ } as page) ->
          with_quarantine_warning t id (handle_get t page ~query path)
      | Page page -> handle_get t page ~query path
      | Missing _ -> Bx_repo.Webui.not_found path
      | Doc_get { lens; docid } -> handle_docstore_get t ~query ~lens ~docid
      | Lens_op { lens; op } -> handle_slens t ~lens ~op body
      | No_lens_path ->
          respond_text 404
            "lens paths are /slens/<name>/<op>, /slens/<name>/doc/<docid> \
             and /slens/<name>/patch\n"
      | Edit _ | Doc_write _ -> handle_write ?deadline t route ~path ~body
    with Bx_fault.Fault.Injected m ->
      respond_text 503 ("injected fault: " ^ m ^ "\n")
  in
  Metrics.observe_request t.metrics ~route:(Route.label route) ~meth
    ~status:response.Bx_repo.Webui.status
    ~seconds:(Bx_obs.Clock.now () -. started);
  response

let handle t ~meth ~path ~body = handle_query t ~query:"" ~meth ~path ~body

let checkpoint t = write_all t (fun () -> checkpoint_locked t `All)

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
  let segments =
    match (t.log, t.config.journal_dir) with
    | Some log, Some dir ->
        List.init shards (fun k -> (k, log, Shardlog.segment_dir ~dir ~shards k))
    | _ -> []
  in
  (try
     (* Journal segments: re-read every record, re-checking framing and
        CRCs.  Every append holds its shard's write lock, so under the
        read lock the segment is at rest, and a torn tail there is
        corruption (boot would truncate it).  A damaged header on a
        record-less segment reads as an empty torn log, and is flagged
        the same way. *)
     List.iter
       (fun (k, _, seg) ->
         pace ~surface:"journal";
         let key = Q.File (seg_name k "journal.log") in
         read_shard t k (fun () ->
             match Journal.read ~dir:seg with
             | Error why -> found key ~surface:"journal" why
             | Ok r ->
                 if r.Journal.crc_errors > 0 then
                   found key ~surface:"journal"
                     (Printf.sprintf "%d record(s) failed CRC"
                        r.Journal.crc_errors)
                 else if r.Journal.torn then
                   found key ~surface:"journal"
                     (Printf.sprintf
                        "torn tail at rest: bytes past offset %d do not parse"
                        r.Journal.valid_bytes)
                 else Q.clear t.quarantine key))
       segments;
     (* Snapshot directories: recompute every cold file's CRC against
        the DIGESTS manifest. *)
     List.iter
       (fun (k, log, seg) ->
         pace ~surface:"snapshot";
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
                 report.Integrity.Digests.corrupt))
       segments;
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
               | `Ok -> Q.clear t.quarantine key
               | `Gone -> ()
               | `Bad why -> found key ~surface:"entry" why))
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
             | `Ok -> Q.clear t.quarantine key
             | `Gone -> ()
             | `Bad why -> found key ~surface:"doc" why))
       (Docstore.doc_keys t.docstore)
   with Stop_scrub -> ());
  Metrics.scrub_pass t.metrics;
  (!items, List.rev !findings)

let scrub_loop ~rate ~stop t =
  (* Sleep in slices so a stop is prompt. *)
  let rec pause n =
    if n > 0 && not (stop ()) then begin
      Thread.delay 0.1;
      pause (n - 1)
    end
  in
  while not (stop ()) do
    (try ignore (scrub_once ~rate ~stop t)
     with exn -> Printf.eprintf "bxwiki: scrubber: %s\n%!" (Printexc.to_string exn));
    pause 10
  done

(* ------------------------------------------------------------------ *)
(* The socket server: accept loop + worker pool *)

let shutdown t = Atomic.set t.stop true

(* A connection's last response: the peer may be gone already, which
   must not fail the worker. *)
let write_last fd response =
  try Httpd.write_response fd ~keep_alive:false response
  with Unix.Unix_error _ | Bx_fault.Fault.Injected _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Shed one connection: a tiny 503 + Retry-After written straight from
   whichever loop is rejecting it (the write goes to a socket buffer
   that is empty, and SO_SNDTIMEO bounds the pathological case).  The
   caller closes the socket. *)
let shed_connection t fd ~reason =
  Metrics.shed t.metrics ~reason;
  write_last fd
    (Httpd.shed_response ~retry_after:(Admission.retry_after t.admission) ~reason)

(* The next request on [fd] and its deadline: [deadline], or else
   [queue_deadline] after the request's first byte (SO_RCVTIMEO alone
   bounds a keep-alive connection's idle wait), tightened by
   X-Bxwiki-Deadline.  Both lanes read here, so every read failure is
   answered the same way, and yields None. *)
let read_next t fd reader ~deadline =
  let bad reason status =
    Metrics.protocol_error t.metrics ~route:"wire" ~reason;
    write_last fd (Httpd.error_response status);
    None
  in
  match
    if not (Httpd.await reader) then Error `Eof
    else
      let deadline =
        match deadline with
        | Some d -> d
        | None -> Bx_obs.Clock.now () +. t.config.queue_deadline
      in
      Result.map
        (fun req ->
          (req, Option.fold ~none:deadline ~some:(Float.min deadline) req.Httpd.deadline))
        (Httpd.read_request ~deadline reader)
  with
  | Ok next -> Some next
  | Error `Eof -> None
  | Error (`Bad e) -> bad e.Httpd.reason e
  | Error `Deadline ->
      (* Slowloris: each byte came inside SO_RCVTIMEO, the request late. *)
      shed_connection t fd ~reason:"deadline";
      None
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      bad "read_timeout" { Httpd.status = 408; reason = "read timeout" }
  | exception Unix.Unix_error (_, _, _) -> None
  | exception Bx_fault.Fault.Injected _ ->
      (* An injected wire-read fault behaves like a peer reset. *)
      Metrics.protocol_error t.metrics ~route:"wire" ~reason:"fault_injected";
      None

(* ------------------------------------------------------------------ *)
(* Brownout: the degraded read lane.  When admission overflows, GETs are
   not shed outright — they land on the stale lane, served by one
   dedicated domain that answers from the response cache at whatever
   generation it still holds, marked [X-Bxwiki-Stale].  Anything the
   cache cannot answer (a miss, a write) is shed exactly as the full
   queue used to shed everything, so the worst case is unchanged and the
   common case (a hot read during an overload spike) degrades instead of
   erroring. *)

(* Serve one overflow connection from cache only — no locks, no
   rendering, no keep-alive.  Its deadline is at most 1 s out: this lane
   exists because the node is overloaded, and a slow client does not get
   to pin its one domain. *)
let serve_degraded t fd ~now ~deadline =
  match
    read_next t fd (Httpd.reader_of_fd fd)
      ~deadline:(Some (Float.min deadline (now +. 1.0)))
  with
  | None -> ()
  | Some (req, _) -> (
      let started = Bx_obs.Clock.now () in
      let route =
        Route.parse ~pages:t.pages (String.uppercase_ascii req.Httpd.meth)
          req.Httpd.path
      in
      let answer =
        match route with
        | Route.Page page -> try_stale t page ~query:req.Httpd.query req.Httpd.path
        | _ -> None
      in
      match answer with
      | Some response ->
          Metrics.observe_request t.metrics ~route:(Route.label route)
            ~meth:"GET" ~status:response.Bx_repo.Webui.status
            ~seconds:(Bx_obs.Clock.now () -. started);
          write_last fd response
      | None -> shed_connection t fd ~reason:"queue_full")

(* A front-lane connection, request after request.  The first request's
   deadline is the connection's; each later one's starts at its first
   byte.  Served promptly, the connection earns one admission slot back,
   whatever it threw. *)
let serve_front t fd ~now ~deadline =
  let reader = Httpd.reader_of_fd fd in
  let rec loop deadline =
    match read_next t fd reader ~deadline with
    | None -> ()
    | Some (req, deadline) -> (
        let response =
          handle_query ~deadline t ~query:req.Httpd.query ~meth:req.meth
            ~path:req.path ~body:req.body
        in
        (* Drop keep-alive while draining so shutdown terminates. *)
        let keep_alive = req.keep_alive && not (Atomic.get t.stop) in
        match Httpd.write_response fd ~keep_alive response with
        | () -> if keep_alive then loop None
        | exception Unix.Unix_error (_, _, _) -> ()
        | exception Bx_fault.Fault.Injected _ ->
            Metrics.protocol_error t.metrics ~route:"wire"
              ~reason:"fault_injected")
  in
  Fun.protect
    ~finally:(fun () -> Admission.served t.admission ~began:now)
    (fun () -> loop (Some deadline))

(* One worker's life on a lane, until the lane is closed and empty.  A
   connection whose deadline passed while it waited is answered with a
   fast 503: by now the client has likely timed out or retried, and
   burning a worker on stale work only deepens the overload.  Every
   connection is closed here, once, whatever its service threw. *)
let drain t lane serve =
  let rec go () =
    match Admission.take lane with
    | None -> ()
    | Some (fd, deadline) ->
        (try
           let now = Bx_obs.Clock.now () in
           if now > deadline then shed_connection t fd ~reason:"deadline"
           else serve fd ~now ~deadline
         with exn ->
           (* A worker must survive anything one connection throws. *)
           Metrics.protocol_error t.metrics ~route:"wire" ~reason:"worker_exn";
           Printf.eprintf "bxwiki: worker: %s\n%!" (Printexc.to_string exn));
        close_quietly fd;
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
    let front = Admission.front t.admission
    and stale = Admission.stale t.admission in
    let pool =
      List.init workers (fun _ -> Domain.spawn (fun () -> drain t front (serve_front t)))
    in
    (* The stale lane rides one extra domain so brownout answers keep
       flowing even when every pool worker is wedged on slow requests. *)
    let degraded =
      Option.map
        (fun lane -> Domain.spawn (fun () -> drain t lane (serve_degraded t)))
        stale
    in
    (* The scrubber rides its own domain, paced by the token bucket so
       the worker pool's latency is unaffected; it re-walks everything
       continuously until shutdown. *)
    let scrubber =
      if t.config.scrub_rate <= 0 then None
      else
        let rate = float_of_int t.config.scrub_rate in
        Some
          (Domain.spawn (fun () ->
               scrub_loop ~rate ~stop:(fun () -> Atomic.get t.stop) t))
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
                    let deadline = Bx_obs.Clock.now () +. t.config.queue_deadline in
                    if Admission.admit t.admission (client, deadline) = `Shed then (
                      shed_connection t client ~reason:"queue_full";
                      close_quietly client)
                | exception Bx_fault.Fault.Injected _ -> (
                    Metrics.protocol_error t.metrics ~route:"wire"
                      ~reason:"fault_injected";
                    close_quietly client));
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
    close_quietly sock;
    (* Drain: no more connections will arrive; workers finish the queue
       and their in-flight requests, then exit.  The stale lane closes
       only after the pool has joined. *)
    Admission.close front;
    List.iter Domain.join pool;
    Option.iter Admission.close stale;
    Option.iter Domain.join degraded;
    Option.iter Domain.join scrubber;
    t.bound_port <- None;
    let result = Result.map ignore (tag "final snapshot: " (checkpoint t)) in
    close t;
    if not quiet then
      Printf.printf "bxwiki: drained, snapshot written, bye\n%!";
    result
  with Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
