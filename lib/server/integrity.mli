(** End-to-end integrity primitives: the shared CRC32, the [DIGESTS]
    manifest that checksums snapshot directories, the order-insensitive
    per-shard digest algebra behind anti-entropy repair, the per-entry
    law checks the background scrubber runs, its pacing token bucket,
    and the quarantine set for corrupted-but-never-dropped data.

    This module sits below {!Journal}: the journal's record framing and
    snapshot sealing are built on it, so nothing here refers back to the
    journal, shardlog or service layers. *)

val crc32 : string -> int
(** IEEE CRC32 (the zlib polynomial) — the one checksum every storage
    surface shares. *)

val crc32_sub : string -> int -> int -> int
(** [crc32_sub s off len] checksums the substring — the journal's
    zero-copy record scan.  Raises [Invalid_argument] unless
    [0 <= off], [0 <= len] and [off + len <= String.length s]. *)

(** The [DIGESTS] manifest: CRC32s of a snapshot directory's cold files
    (pages, JSON sidecars, [INDEX.wiki], [DOCS.bxdocs]), written when the
    snapshot is sealed and verified at boot, before shipping, and after
    receiving.  A sealed directory without one is reported as one
    finding named [DIGESTS]; its pages still load.  A payload without one
    is refused. *)
module Digests : sig
  val name : string
  (** ["DIGESTS"]. *)

  val covered : string -> bool
  (** Whether a file name is subject to checksumming ([MANIFEST], the
      manifest itself and dotfiles are not). *)

  val render : (string * string) list -> string
  (** Manifest text for [(name, contents)] files; uncovered names are
      dropped, listing order is canonical (sorted). *)

  val parse : string -> ((string * int) list, string) result
  (** [(name, crc)] rows, or a named error for a damaged manifest. *)

  val verify_files :
    manifest:(string * int) list -> (string * string) list
    -> (string * string) list
  (** Check an in-memory payload against a parsed manifest: returns
      [(file, named error)] for every crc mismatch, unlisted file and
      listed-but-missing file — empty means verified. *)

  val verify_payload : (string * string) list -> (unit, string) result
  (** The check every shipped or received snapshot payload passes: it
      carries a parseable [DIGESTS] and {!verify_files} finds nothing.
      The error names the first failure. *)

  type report = {
    checked : int;  (** cold files whose crc was recomputed *)
    corrupt : (string * string) list;  (** (file, named error), sorted *)
  }

  val write_dir : dir:string -> unit
  (** Write (or refresh) the manifest over [dir]'s flat covered files
      with {!Bx_repo.Fsio.write_file}.  Raises on I/O failure. *)

  val verify_dir : dir:string -> report
  (** Recompute every covered flat file's crc against the manifest.  A
      damaged manifest, or a missing one in a sealed directory, reports
      itself as the single corrupt file. *)
end

val entry_hash : Bx_repo.Registry.t -> Bx_repo.Identifier.t -> int
(** Content hash of one entry: CRC32 over the identifier and every
    version's wiki text.  0 exactly when the entry is absent (the fold
    identity), so [digest lxor before lxor after] covers create, revise
    and remove alike. *)

val doc_hash : lens:string -> docid:string -> gen:int -> source:string -> int
(** Content hash of one docstore document.  Never 0. *)

val shard_digest_of : Bx_repo.Registry.t -> int -> int
(** Full recomputation of a shard's digest: XOR of {!entry_hash} over
    its entries.  O(shard); the service folds the same value on a
    shard's first digest request and then keeps it in O(|entry|) per
    write. *)

val render_digests : epoch:int -> (int * int) list -> string
(** The [GET /replication/digest] body:
    ["bxdigest 1 <epoch> <shards>\n<shard> <hex8>\n..."]. *)

val parse_digests : string -> (int * (int * int) list, string) result
(** Parse the digest body into [(epoch, (shard, digest) rows)]. *)

val check_entry :
  ?law:(Bx_repo.Template.t -> (unit, string) result)
  -> Bx_repo.Registry.t -> Bx_repo.Identifier.t
  -> [ `Ok | `Gone | `Bad of string ]
(** Template validity plus the wiki round trip (the sync lens's GetPut
    at this entry), and [law] if given, over every stored version of
    the entry.  [`Gone] when the entry or a version is not (or no
    longer) in the registry; [`Bad] names the first failing version. *)

(** Token bucket pacing for the scrubber: [rate] items/second with a
    tenth of a second of burst (at least one item).  Rate 0 means
    unmetered (offline scrub). *)
module Bucket : sig
  type t

  val create : rate:float -> t
  val take : t -> float -> unit
  (** Block (sleeping) until the bucket covers the given cost. *)
end

(** Corrupted data is flagged and kept, never dropped: entries serve
    under a [Warning] header, documents answer 410, files are excluded
    from loads.  Thread-safe. *)
module Quarantine : sig
  type key =
    | Entry of string  (** registry entry, by identifier string *)
    | Doc of string * string  (** docstore document, by (lens, docid) *)
    | File of string  (** cold file, by (shard-qualified) name *)

  type t

  val key_name : key -> string
  val create : unit -> t

  val flag : t -> key -> reason:string -> bool
  (** [true] when newly flagged — callers count corruption once per
      distinct finding. *)

  val clear : t -> key -> unit
  val find : t -> key -> string option
  val size : t -> int
  val items : t -> (key * string) list

  val counts : t -> int * int * int
  (** Flagged (entries, docs, files). *)
end
