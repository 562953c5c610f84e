(** A segmented write-ahead journal: one {!Journal} segment per registry
    shard, sharing a single global sequence space.

    Layout under the journal directory [dir]:
    - 1 shard: the segment {e is} [dir] itself — bit-compatible with the
      plain {!Journal} layout;
    - N > 1 shards: [dir/SHARDS] stamps the shard count, and segment [k]
      lives under [dir/shard-00k/] with its own [journal.log] and
      [snapshot/].  The replication epoch stays at the top level.

    {b Sequence discipline.}  All appends draw from one global counter
    and are serialised (allocation, segment write and fsync) under one
    mutex, so the durable records across all segments always form a
    dense prefix of the accepted writes: a crash can lose only a suffix,
    never punch a hole — which is what lets replication keep a single
    scalar cursor over the merged stream.  A segment's own sequence
    numbers are therefore sparse (dense globally, not locally).

    {b Compaction.}  Each segment checkpoints independently
    ({!checkpoint_shard}): its shard's entries are snapshotted, the
    manifest seals at the segment's last record, and only that segment's
    log truncates — cost proportional to the shard, not the catalogue.
    {!checkpoint_all} seals {e every} segment at the same global cut
    (for shutdown, and for shipping a consistent snapshot to a
    bootstrapping follower).  The stream floor below which a follower
    must re-bootstrap is the {e maximum} over segment manifests
    ({!floor}).

    {b Layout is fixed at creation.}  An unstamped directory whose
    [journal.log] or [snapshot/] sits at the top level is the 1-shard
    layout.  Opening a directory with a shard count other than the one it
    is laid out for — stamped, or 1-shard opened with [shards > 1] — is
    refused with an error naming the directory and the count to pass,
    and no byte of the directory is touched: re-sharding an existing
    catalogue is an explicit export/import, not a boot flag surprise. *)

type t

type recovery = {
  pages : (string * string) list;
      (** snapshot pages from every sealed segment, import-ready *)
  complete : bool;
      (** every segment had a sealed snapshot: [pages] is the whole
          catalogue and the caller needs no seed *)
  replay : Journal.record list;
      (** intact records above each segment's manifest, merged and
          sorted by global sequence number *)
  torn : bool;  (** at least one segment had a truncated tail *)
  crc_errors : int;  (** summed over segments *)
  corrupt : (int * string * string) list;
      (** (shard, file, named error): cold files that failed checksum
          verification against the snapshot's [DIGESTS] (or a damaged
          [MANIFEST] itself) — excluded from [pages], reported for the
          caller to quarantine and count.  A snapshot whose MANIFEST is
          corrupt reads as unsealed ([complete] drops to [false]): its
          cut point cannot be trusted, so boot falls back to the seed
          overlay rather than replaying against a guessed cut. *)
}

val segment_dir : dir:string -> shards:int -> int -> string
(** Where segment [k] lives (= [dir] when [shards = 1]). *)

val file_name : shards:int -> int -> string -> string
(** How a file of segment [k] is named outside its directory: flat for
    one shard, ["shard-00k/name"] otherwise — the {!snapshot_files} wire
    names and the quarantine's file keys. *)

val open_ : dir:string -> shards:int -> (t * recovery, string) result
(** Open (creating if needed) the segmented journal.  Torn tails are
    truncated per segment; an unfinished snapshot install is rolled
    forward.  A shard count the directory is not laid out for is an
    [Error] that leaves the directory untouched. *)

val shards : t -> int
val next_seq : t -> int
(** The next global sequence number an append will use. *)

val record_count : t -> int -> int
(** Records currently in segment [k]'s log. *)

val append : t -> shard:int -> path:string -> body:string -> (int, string) result
(** Allocate the next global sequence number and append durably to
    segment [shard].  The caller must hold the shard's write lock (two
    appends to one segment may not race); appends to different shards
    serialise only on the internal allocation mutex. *)

val append_at :
  t -> shard:int -> seq:int -> path:string -> body:string
  -> (int, string) result
(** Append a record whose global sequence number was allocated elsewhere
    (a replica applying a primary's stream).  Advances the global
    counter past [seq]. *)

val floor : t -> int
(** The stream floor: the maximum over segment manifests.  A cursor at
    or below it may point into truncated history and must re-bootstrap
    from a snapshot. *)

val shard_floor : t -> int -> int
(** Segment [k]'s own manifest sequence number (0 without a snapshot).
    A streamed record for shard [k] at or below it is already embodied
    in that segment's installed snapshot — the replica's apply path
    skips it instead of double-applying after a targeted resync. *)

val tail : t -> from:int -> (Journal.record list, string) result
(** The merged intact records with sequence number [>= from], ascending.
    The caller must hold all read locks (compaction swaps segments under
    write locks). *)

val checkpoint_shard :
  t -> shard:int -> save:(dir:string -> (int, string) result)
  -> (int, string) result
(** Snapshot one shard and truncate its segment, sealing the manifest at
    the segment's last record.  The caller holds that shard's write
    lock. *)

val checkpoint_all :
  t -> save:(int -> dir:string -> (int, string) result)
  -> (int, string) result
(** Seal {e every} segment at the current global cut ([next_seq - 1]):
    [save k ~dir] dumps shard [k].  After this, {!snapshot_files} ships
    a consistent catalogue.  The caller holds all write locks.  Returns
    total files written. *)

val snapshot_dir : t -> int -> string
(** Segment [k]'s sealed snapshot directory.  Shard 0's also holds the
    document store's dump. *)

val snapshot_files : t -> (int * (string * string) list, string) result
(** The snapshot as a shippable payload: the common manifest sequence
    number and every file, named flat for one shard and
    ["shard-00k/name"] otherwise.  [Error] when segments are missing a
    snapshot or sealed at different cuts (run {!checkpoint_all}
    first). *)

val snapshot_pages : t -> ((string * string) list, string) result
(** Import-ready pages merged from every sealed segment snapshot (for
    rebuilding a registry after {!install_snapshot}). *)

val install_snapshot :
  t -> seq:int -> files:(string * string) list -> (unit, string) result
(** Install a shipped snapshot.  One shard: flat names, delegates to
    {!Journal.install_snapshot}.  Sharded: names must be
    ["shard-00k/name"]; each shard's payload passes
    {!Journal.check_payload} (a mangled transfer, or one without a
    [DIGESTS], is refused before a byte is staged), all segment
    snapshots are staged and sealed, an [INSTALL] marker makes
    the multi-directory swap roll forward across a crash, and every
    segment log resets to [seq + 1]. *)

val snapshot_files_shard :
  t -> shard:int -> (int * (string * string) list, string) result
(** One shard's snapshot as a shippable payload — targeted anti-entropy
    repair.  Names are always prefixed ["shard-00k/"], even for a
    single-segment layout, so the wire format is one shape.  The caller
    holds that shard's write lock and has checkpointed it. *)

val snapshot_pages_shard :
  t -> shard:int -> ((string * string) list, string) result
(** Import-ready pages from one shard's sealed snapshot ([[]] when it
    has none). *)

val install_shard :
  t -> shard:int -> seq:int -> files:(string * string) list
  -> (unit, string) result
(** Install one shard's shipped snapshot (names as produced by
    {!snapshot_files_shard}) without touching other shards: the payload
    is digest-verified, the segment's snapshot swaps atomically under a
    sealed MANIFEST at [seq], and only that segment's log resets to
    [seq + 1].  The global sequence counter only moves forward.  The
    caller holds the shard's write lock and re-imports the shard's pages
    afterwards. *)

val close : t -> unit
