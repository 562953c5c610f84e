(** Typed string lenses in the style of Boomerang (Bohannon, Foster,
    Pierce, Pilkiewicz, Schmitt: "Boomerang: Resourceful Lenses for String
    Data", POPL 2008) — the system in which the original, asymmetric
    Composers example was written.

    A string lens carries its {e source type} and {e view type} as regular
    expressions.  Combinators check the POPL'08 side conditions at
    construction time (unambiguous concatenation, unique iteration,
    disjoint union) using the exact decision procedures of
    {!Bx_regex.Ambig}, and raise {!Type_error} with a witness string when
    a condition fails.

    {2 Execution model}

    Internally every lens is a triple of {e emitters} running over
    [(string, pos, len)] slices and appending to a shared output buffer:
    combinators pass offsets down and bytes flow directly from the input
    string to the single output buffer, with no intermediate substrings.
    Split positions come from the zero-copy {!Split} engine — shared
    prefix/suffix mark passes per run, a single-pass k-way splitter for
    concatenation chains.  The public [get]/[put]/[create] functions seal
    the emitters behind a per-domain execution context that is reused
    across calls ({!stats} reports reuse rates, bytes processed and
    splits performed). *)

exception Type_error of string

type impl
(** The slice-emitter implementation of a lens (opaque). *)

type t = {
  stype : Bx_regex.Regex.t;  (** The source language. *)
  vtype : Bx_regex.Regex.t;  (** The view language. *)
  get : string -> string;
  put : string -> string -> string;  (** [put view source]. *)
  create : string -> string;
  impl : impl;  (** The zero-copy engine behind the string functions. *)
  shape : shape;  (** Structural reflection for {!Slens_delta}. *)
  sliced : sliced option;  (** The slice entry points, see {!get_into}. *)
}

and sliced

(** How the root of the lens decomposes its documents, as much as the
    delta layer needs to localise an edit: a star at the root exposes
    its chunking and alignment policy; everything else is [Opaque] and
    delta operations on it fall back to the full functions.  So is a
    star over an {!of_funs} lens (a {!Canonizer} quotient, say), whose
    chunks the delta tiers could not splice.  Correctness never depends
    on the shape — it only gates the fast path. *)
and shape = Opaque | Star of star_shape

and star_shape = {
  body : t;  (** The iterated body lens. *)
  align : align_kind;  (** How [put] pairs view chunks with source chunks. *)
  sbounds : Split.star_bounds;  (** Chunker for source-type slices. *)
  vbounds : Split.star_bounds;  (** Chunker for view-type slices. *)
}

and align_kind =
  | Positional  (** {!star}: i-th view chunk reuses i-th source chunk. *)
  | Keyed of (string -> string)
      (** {!star_key}: first unconsumed source chunk with the same key. *)
  | Diffed of (string -> string)
      (** {!star_diff}: longest common subsequence of chunk keys. *)

val get_into : t -> Buffer.t -> string -> int -> int -> unit
(** [get_into l out s pos len] appends [l.get] of the slice
    [s[pos .. pos+len)] to [out], with the same checks and errors (the
    slice is copied only into an error message).  A failed run may
    leave part of its output in [out].  A lens from {!of_funs}, or one
    whose [get] was replaced by a record update, runs its [get] on a
    copy of the slice. *)

val put_into : t -> Buffer.t -> string -> int -> int -> string -> int -> int -> unit
(** [put_into l out v vp vl s sp sl]: [l.put] over a view slice and a
    source slice, as {!get_into}. *)

(** {1 Primitives} *)

val copy : Bx_regex.Regex.t -> t
(** Identity on [L(r)]. *)

val const : stype:Bx_regex.Regex.t -> view:string -> default:string -> t
(** Map every source in [L(stype)] to the fixed [view] string.  [put]
    restores the old source (the view carries no information); [create]
    returns [default], which must belong to [L(stype)]. *)

val del : Bx_regex.Regex.t -> default:string -> t
(** Delete the source: [const ~view:""]. *)

val ins : string -> t
(** Insert a fixed string into the view; source type is the empty string. *)

val of_funs :
  stype:Bx_regex.Regex.t ->
  vtype:Bx_regex.Regex.t ->
  get:(string -> string) ->
  put:(string -> string -> string) ->
  create:(string -> string) ->
  t
(** Wrap opaque string functions as a lens (no side conditions are
    checked — the caller vouches for well-behavedness).  Used by
    {!Canonizer} quotients; when such a lens runs inside a larger lens,
    its argument slices are materialised at this boundary. *)

(** {1 Combinators} *)

val concat : t -> t -> t
(** Sequential juxtaposition.  Requires unambiguous concatenation of the
    two source types and of the two view types. *)

val concat_list : t list -> t
(** k-ary juxtaposition; the empty list is [copy] of the empty string.
    Runs on the k-way splitter — one forward descent over the parts'
    DFAs instead of a chain of pairwise splits. *)

val union : t -> t -> t
(** Conditional choice.  Requires disjoint source types.  On [put], the
    branch is chosen by the view's type, preferring the branch that also
    matches the old source (overlapping view types are permitted).
    Membership tests short-circuit: the common case decides after two
    DFA scans. *)

val star : t -> t
(** Kleene iteration with {e positional} alignment on [put]: the i-th view
    chunk is put into the i-th source chunk; surplus view chunks are
    created, surplus source chunks discarded.  Requires unique iterability
    of both source and view types. *)

val star_key : key:(string -> string) -> t -> t
(** Kleene iteration with {e dictionary (resourceful) alignment} on [put]
    (POPL'08 dictionary lenses): each view chunk is matched, by [key], to
    the first unconsumed source chunk whose view has the same key, so the
    hidden parts of a chunk follow their key under reordering.  Source
    chunks are indexed by key in one hash table, repeated keys chained
    through an index array, so alignment is linear in the number of
    chunks.  A view chunk equal to its paired source chunk's view is
    restored by copying that chunk (GetPut) unless the body contains an
    {!of_funs} lens.  Same typing obligations as {!star}. *)

val star_diff : key:(string -> string) -> t -> t
(** Kleene iteration with {e order-respecting (diff) alignment} on [put]:
    a longest common subsequence of chunk keys decides which view chunks
    reuse which source chunks, so insertions and deletions in the middle
    of a long list keep every other chunk's hidden data — even with
    duplicate keys, which defeat {!star_key}'s greedy first-match.
    Unchanged chunks are copied as in {!star_key}.  Same typing
    obligations as {!star}. *)

val separated : sep:t -> t -> t
(** [separated ~sep l] is the derived lens for a possibly-empty
    [l (sep l)*] list: [l] chunks separated by [sep], or the empty
    string. *)

val compose : t -> t -> t
(** Sequential composition.  Requires the first lens's view type and the
    second's source type to denote the same language. *)

val swap : t -> t -> t
(** Juxtapose two lenses but present them in the opposite order in the
    view. *)

val permute : order:int list -> t list -> t
(** [permute ~order ls] juxtaposes the lenses in list order on the source
    side and presents their views permuted by [order] ([order] lists, for
    each view position, the index of the lens whose view appears there —
    [swap l1 l2] is [permute ~order:[1; 0] [l1; l2]]).  Raises
    {!Type_error} if [order] is not a permutation of [0 .. length-1], or
    on ambiguous concatenations on either side. *)

(** {1 Batched execution} *)

val get_all : ?workers:int -> t -> string list -> string list
(** [get_all ~workers l sources] maps [l.get] over independent documents,
    fanning the work across [workers] domains (default [1] = sequential).
    Documents are claimed from a shared counter, so uneven sizes balance;
    order is preserved.  Each domain reuses its own execution context. *)

val put_all : ?workers:int -> t -> (string * string) list -> string list
(** [put_all ~workers l pairs] maps [l.put view source] over [(view,
    source)] pairs, in parallel like {!get_all}. *)

val create_all : ?workers:int -> t -> string list -> string list
(** [create_all ~workers l views] maps [l.create] in parallel. *)

val parallel_map : workers:int -> ('a -> 'b) -> 'a list -> 'b list
(** The domain fan-out underneath {!get_all}: items are claimed from a
    shared counter by [workers] domains, order is preserved, and every
    domain is joined before the call returns.  If any item's function
    raised, the exception of the {e first such item in list order} is
    re-raised (with its backtrace) after the whole batch has drained —
    so one bad document fails the batch deterministically without
    leaving domains running. *)

val parallel_map_results :
  workers:int -> ('a -> 'b) -> 'a list -> ('b, string) result list
(** The domain fan-out underneath {!get_all} with per-item failure
    accounting instead of fail-the-batch semantics: each item's outcome
    is returned in order, an exception in one item becoming [Error msg]
    for that item while every sibling still runs to completion and every
    domain is joined.  This is what callers fanning whole client loops
    across domains want — the load generator reports a crashed client
    domain in its run summary instead of aborting the run.  The
    [slens.batch.worker] failpoint fires once per item here too. *)

(** {1 Engine statistics} *)

type stats = {
  bytes : int;  (** Input bytes entering top-level lens runs. *)
  splits : int;  (** Split decisions made by the slice engine. *)
  ctx_reuse : int;  (** Runs that reused their domain's context. *)
  ctx_fresh : int;  (** Runs that had to allocate a context. *)
  chunks_spliced : int;  (** Keyed star [put] chunks copied verbatim. *)
  chunks_put : int;  (** Star [put] chunks re-run through the body's [put]. *)
  chunks_created : int;  (** Star [put] chunks built by the body's [create]. *)
}

val stats : unit -> stats
(** Process-global engine counters (domain-safe). *)

val reset_stats : unit -> unit

(** {1 Inspection and checking} *)

val in_source : t -> string -> bool
(** Membership of a string in the lens's source type. *)

val in_view : t -> string -> bool
(** Membership of a string in the lens's view type. *)

val to_lens : t -> (string, string) Bx.Lens.t
(** Forget the types and view the string lens as a framework lens, so the
    generic lens laws of {!Bx.Lens} apply. *)

val get_put_law : t -> string Bx.Law.t
(** GetPut specialised to string lenses (inputs outside the source type are
    vacuously accepted). *)

val put_get_law : t -> (string * string) Bx.Law.t
(** PutGet specialised to string lenses: inputs are [(source, view)];
    ill-typed inputs are vacuously accepted. *)

(** {1 Engine hooks}

    Low-level access to the slice engine for {!Slens_delta}, which
    splices untouched source bytes around re-run chunks.  Not for
    general use: emitters assume well-typed slices and the caller is
    responsible for upholding that invariant. *)
module Internal : sig
  type ctx
  (** The per-domain execution context of a run. *)

  val exec : int -> (ctx -> unit) -> string
  (** [exec input_bytes emit] acquires the calling domain's context,
      runs [emit], and returns the bytes it appended.  [input_bytes] is
      the instrumentation charge recorded in {!stats}. *)

  val ws : ctx -> Split.ws
  (** The splitter workspace, for running {!Split.star_bounds} closures. *)

  val out_length : ctx -> int
  (** Bytes emitted so far — chunk offsets of the output under
      construction. *)

  val blit : ctx -> string -> int -> int -> unit
  (** Append a raw slice verbatim to the output. *)

  val slices_equal : string -> int -> int -> string -> int -> int -> bool
  (** [slices_equal a apos alen b bpos blen]: byte equality of slices. *)

  val e_get : t -> ctx -> string -> int -> int -> unit
  val e_put : t -> ctx -> string -> int -> int -> string -> int -> int -> unit
  val e_create : t -> ctx -> string -> int -> int -> unit

  type scratch
  (** Chunk keys packed in one buffer, and the pairing tables. *)

  val with_scratch : (scratch -> 'a) -> 'a
  (** Run with this domain's scratch, taken for the call (a nested or
      concurrent use on the domain gets a fresh one). *)

  val pack_keys : scratch -> string array -> string array -> unit
  (** [pack_keys sc skeys vkeys] packs the source keys, then the view
      keys. *)

  val key_pairing : scratch -> ns:int -> nv:int -> int array
  (** {!star_key}'s alignment over [ns] source and [nv] view keys: for
      each view chunk [j < nv], the source chunk it reuses ([-1] =
      create), first unconsumed match first.  The array belongs to the
      scratch and may be longer than [nv]. *)

  val diff_pairing : scratch -> ns:int -> nv:int -> int array
  (** {!star_diff}'s alignment, by a longest common subsequence of the
      keys, as {!key_pairing}. *)
end
