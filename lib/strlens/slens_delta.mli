(** Incremental (delta) propagation for string lenses — the
    edit-propagating counterpart of {!Slens}, in the spirit of the
    delta-lens and edit-lens literature (Abou-Saleh, Cheney et al.,
    "Notions of bidirectional computation and entangled state monads";
    Pacheco et al., "A generic scheme and properties of bidirectional
    transformations"): instead of re-running [put] or [get] over a whole
    document for a one-line change, propagate the {e edit}.

    {2 Model}

    A lens whose root is a star ({!Slens.star}, {!Slens.star_key},
    {!Slens.star_diff}) decomposes both its source and its view into
    chunks, and [put]/[get] work chunk-wise.  An edit to the view (or
    source) therefore only {e dirties} the chunks its byte hull
    touches.  [put_delta] localises the edit to a chunk window using
    cached chunk bounds, re-runs the body lens on the window only, and
    splices every untouched source chunk verbatim from the old
    document — for a single-line edit to an n-line document the work is
    O(window), not O(n).

    Three tiers, in decreasing speed:

    - {e fast}: the edit window is rechunked in place and the window's
      alignment decisions provably coincide with full [put]'s (no
      duplicate chunk keys, no window key claiming a chunk outside the
      window, unchanged chunk count for positional stars);
    - {e slow}: the whole new view is rechunked and the alignment is
      replayed from cached chunk keys — still no per-chunk [get] calls
      and byte-identical chunks are spliced, but O(n) pairing;
    - {e fallback}: full {!Slens.t.put} / [get], for opaque-rooted
      lenses, cache misses, or any window that fails to chunk.

    Correctness {e never} depends on the fast path: every tier computes
    exactly the document full [put]/[get] would, and the QCheck suite
    asserts extensional equality against both engines.  Splicing relies
    on the body lens obeying GetPut ([put (get s) s = s]) byte for byte,
    which every combinator-built lens does; a star over a body that may
    not (an {!Slens.of_funs} lens inside it) has an [Opaque] shape, so
    its delta calls take the fallback tier.

    {2 Cache and preconditions}

    Callers keep one {!cache} per live document.  All delta calls
    require the consistency invariant [view = get source] — the
    document store maintains it by construction.  A cache is private to
    one document and not domain-safe; serialise access per document
    (the server's docstore holds a mutex). *)

type cache
(** Cached decomposition of one (source, view) pair: chunk bounds for
    both sides, per-chunk alignment keys and their index.  Revalidated
    against the strings on every call, so a stale cache costs one
    rebuild, never a wrong answer. *)

val make_cache : unit -> cache

val invalidate : cache -> unit
(** Drop the cached decomposition (the next call rebuilds it). *)

val put_delta :
  Slens.t ->
  cache:cache ->
  source:string ->
  view:string ->
  Sdiff.edit ->
  string * Sdiff.edit
(** [put_delta l ~cache ~source ~view e] propagates the view edit [e]
    backwards: with [new_view = Sdiff.apply view e], returns
    [(new_source, source_edit)] such that [new_source = l.put new_view
    source] (extensionally — the bytes are equal whichever tier ran)
    and [Sdiff.apply source source_edit = new_source].

    Requires [view = l.get source].  Raises {!Sdiff.Bad_edit} on a
    malformed edit and {!Slens.Type_error} if the edited view leaves
    the lens's view type (both before any state is modified). *)

val get_delta :
  Slens.t ->
  cache:cache ->
  source:string ->
  view:string ->
  Sdiff.edit ->
  string * Sdiff.edit
(** [get_delta l ~cache ~source ~view e] propagates the source edit [e]
    forwards: with [new_source = Sdiff.apply source e], returns
    [(new_view, view_edit)] such that [new_view = l.get new_source]
    and [Sdiff.apply view view_edit = new_view].  Same precondition and
    exceptions as {!put_delta}. *)

(** {1 Statistics}

    Process-global, domain-safe counters over all delta traffic. *)

type stats = {
  fast_puts : int;  (** [put_delta] calls served by the window fast path. *)
  slow_puts : int;  (** Served by the full-alignment replay. *)
  fallback_puts : int;  (** Fell back to full [put]. *)
  fast_gets : int;  (** [get_delta] calls served by the window fast path. *)
  fallback_gets : int;  (** Fell back to full [get]. *)
  chunks_reused : int;
      (** Chunks spliced verbatim from the old document (delta calls
          only). *)
  chunks_recomputed : int;  (** Chunks re-run through the body lens. *)
  delta_bytes : int;
      (** Edit payload bytes in and out of delta calls — what the
          journal and replication stream actually carry. *)
  full_bytes : int;
      (** Bytes of the full documents those edits stand for — what a
          non-delta pipeline would have shipped. *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
