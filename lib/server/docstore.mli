(** Lens-backed documents: the server-side state behind
    [POST /slens/<name>/doc/<docid>] and [POST /slens/<name>/patch].

    Each document is a (source, view) pair kept consistent by a named
    {!Bx_strlens.Slens.t} — the store maintains [view = get source] by
    construction, which is exactly the precondition
    {!Bx_strlens.Slens_delta} needs.  A patch carries an {e edit}
    ({!Bx_strlens.Sdiff.edit}), not a document: the store propagates it
    through {!Bx_strlens.Slens_delta.put_delta} (view-side edits) or
    [get_delta] (source-side edits) against the document's private delta
    cache, so a one-line change costs O(window), not O(document).

    Generations: every document carries a generation, bumped on each
    accepted mutation.  A patch names the generation it was computed
    against and is refused as {e stale} when the document has moved on —
    the optimistic-concurrency check that makes edits safe to retry.

    The store is shared mutable state guarded by one internal mutex;
    callers additionally serialise mutations under the service's shard-0
    write lock so journalling and generation bumps stay atomic with the
    mutation (lock order: shard lock, then the store's mutex). *)

type t

val create : lenses:(string * Bx_strlens.Slens.t) list -> t
(** An empty store serving documents for the given named lenses. *)

val doc_count : t -> int

(** Why a request was refused, mapped onto HTTP by the service:
    404, 409, 400 and 422 respectively. *)
type error =
  | Not_found of string
  | Stale of { current : int; got : int }
  | Bad_request of string
  | Unprocessable of string

val describe : error -> string

val put_doc :
  t -> lens:string -> docid:string -> source:string -> (int, error) result
(** Create or replace a document from its full source; the view is
    computed through the lens.  Returns the new generation (1 for a
    fresh document).  [docid] must be non-empty and free of ['/'],
    control bytes and the wire separators. *)

val get_doc :
  t -> lens:string -> docid:string -> view:bool -> (int * string, error) result
(** The document's generation and its source (or its view). *)

val patch :
  t ->
  lens:string ->
  reverse:bool ->
  string ->
  (int * Bx_strlens.Sdiff.edit, error) result
(** Apply one patch frame: [<docid> RS <gen> RS <edit>] (RS = byte
    0x1e, the edit in {!Bx_strlens.Sdiff.encode} framing).  With
    [reverse = false] the edit is a {e view} edit propagated backwards
    by [put_delta]; with [reverse = true] it is a {e source} edit
    propagated forwards by [get_delta].  Returns the document's new
    generation and the complementary edit (to the source, resp. the
    view). *)

(** One write to the store, as the route table parses it from
    [POST /slens/<lens>/doc/<docid>] ({!put_doc}) or
    [POST /slens/<lens>/patch] and [/patch_source] ({!patch}, with
    [reverse] for the source side). *)
type op =
  | Put of { lens : string; docid : string }
  | Patch of { lens : string; reverse : bool }

val mutate : t -> op -> body:string -> (string, error) result
(** Apply one write — a live request or a journal record, which stores
    the request verbatim.  Returns the reply body: ["<gen>\n"], or
    [<gen> RS <edit>] for a patch.  Replay is deterministic, so a
    replayed patch's generation check passes by construction. *)

(** {1 Snapshot persistence}

    The store piggybacks on shard 0's snapshot as one extra flat file,
    [DOCS.bxdocs] — a length-prefixed dump of (lens, docid, generation,
    source).  Views are not persisted; they are recomputed through the
    lens at load, which also revalidates the dump against the current
    lens definitions. *)

val docs_file : string
(** ["DOCS.bxdocs"]. *)

val save_dir : t -> dir:string -> (unit, string) result
(** Write the dump into [dir] (a snapshot directory being built),
    atomically: tmp + fsync + rename.  Writes nothing when the store is
    empty. *)

val doc_keys : t -> (string * string) list
(** All (lens, docid) pairs currently stored, sorted — the scrubber's
    walk order. *)

val check_doc :
  t -> lens:string -> docid:string -> [ `Ok | `Gone | `Bad of string ]
(** Re-derive the view from the stored source through the lens and
    compare byte-for-byte with the stored view — the [view = get source]
    invariant the delta machinery depends on.  Runs under the store's
    mutex.  [`Gone] when the lens or the document is not (or no longer)
    stored; [`Bad] names the drift or the raised lens error. *)

val doc_digest_parts : t -> (string * string * int * string) list
(** Every document as (lens, docid, generation, source), sorted — the
    inputs to the anti-entropy digest ({!Integrity.doc_hash}). *)

val load_dir : t -> dir:string -> (unit, string) result
(** Replace the store's contents from [dir]'s dump; an absent file
    loads as empty.  Documents naming a lens this store does not serve
    are skipped with a warning on stderr. *)
