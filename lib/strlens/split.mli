(** Unique splitting of strings against unambiguous regular expressions —
    the parsing engine behind the string-lens combinators.

    Splitters are built once per lens (constructing the DFAs involved) and
    then applied to many strings.  They assume the ambiguity side conditions
    of {!Bx_regex.Ambig} have been established; if an input nevertheless
    splits zero or several ways, {!Split_error} is raised.

    The engine is {e zero-copy}: the position-returning entry points
    ({!make_concat_pos}, {!make_star_bounds}, {!make_multi_bounds}) work on
    [(string, pos, len)] slices and return split {e offsets}, never
    substrings.  Because the unambiguity side conditions are established
    statically, a well-typed slice has exactly one decomposition, and
    the splitters use {e first-match} parsing at about one DFA table
    step per byte:
    - A concatenation chain is split by a backtracking descent.  Each
      part scans forward with its DFA and treats a position as a
      candidate boundary only where it accepts and the next byte can
      start the rest of the chain (or the slice ends and the rest is
      nullable).  A candidate past which the part cannot continue is
      committed to without a backtracking point.  Both facts are
      computed from the regexes when the splitter is built.
    - A star whose body is {e prefix-free} (no chunk word is a proper
      prefix of another, as with any terminator-ended record) closes
      each chunk at its first accepting position, by a forward scan
      alone.  Any other body first runs one right-to-left suffix-mark
      pass — a DFA for the reversed star run over the original bytes,
      into a caller-supplied {!ws} workspace — and closes each chunk at
      its first accepting position whose suffix is still in the star.
      Either way the chunk scan decides membership in the star exactly.

    The string-returning splitters ({!make_concat_splitter},
    {!make_star_splitter}) are thin compatibility wrappers over the
    slice engine that make a fresh workspace per call, so one splitter
    may be called from several domains at once. *)

exception Split_error of string

val rev_string : string -> string
(** Reverse a string (exposed for tests). *)

(** {1 Workspace} *)

type ws
(** Reusable scratch: the star chunker's suffix-mark buffer (allocated
    by the first non-prefix-free star, then grown geometrically on
    demand) and the split and chunk counters.  A workspace must
    not be shared between concurrently executing lens runs; give each
    domain its own. *)

val make_ws : unit -> ws

val splits_performed : ws -> int
(** Split decisions made through this workspace since {!reset_splits} —
    the engine's instrumentation counter. *)

type chunk_counts = { mutable spliced : int; mutable put : int; mutable created : int }
(** Chunk outcomes of the star [put]s run through a workspace since
    {!reset_splits}: copied verbatim, re-put, or created. *)

val chunk_counts : ws -> chunk_counts

val reset_splits : ws -> unit
(** Zero the split counter and the chunk counts. *)

(** {1 Slice splitters (zero-copy)} *)

type concat_pos = ws -> string -> int -> int -> int
(** [split ws s pos len] returns the absolute offset of the unique
    boundary of [s[pos .. pos+len)] against [r1 . r2]. *)

val make_concat_pos : Bx_regex.Regex.t -> Bx_regex.Regex.t -> concat_pos
(** Build a boundary finder for the (unambiguous) concatenation
    [r1 . r2]: the two-part case of {!make_multi_bounds}. *)

type star_bounds = ws -> string -> int -> int -> int array
(** [bounds ws s pos len] returns the chunk boundaries of
    [s[pos .. pos+len)] against [r*]: an array [b] with [b.(0) = pos],
    [b.(n) = pos + len], chunk [i] spanning [b.(i) .. b.(i+1))].  The
    empty slice yields [[| pos |]] (zero chunks). *)

val make_star_bounds : Bx_regex.Regex.t -> star_bounds
(** Build a chunker for the (uniquely iterable) [r*].  Requires
    [ε ∉ L(r)]; raises [Invalid_argument] otherwise.  The chunker raises
    {!Split_error} exactly when the slice is not in [r*]. *)

type multi_bounds = ws -> string -> int -> int -> int array
(** [bounds ws s pos len] returns the [k+1] part boundaries of
    [s[pos .. pos+len)] against [r0 . r1 . ... . r(k-1)]. *)

val make_multi_bounds : Bx_regex.Regex.t list -> multi_bounds
(** Build a k-way splitter for an (unambiguous) concatenation chain:
    one backtracking descent over the parts' DFAs, guarded by each
    part's follow bytes, with no intermediate strings at all. *)

(** {1 String splitters (compatibility wrappers)} *)

type concat_splitter = string -> string * string
(** Split a string of [L(r1)·L(r2)] into its unique [r1]-prefix and
    [r2]-suffix. *)

val make_concat_splitter : Bx_regex.Regex.t -> Bx_regex.Regex.t -> concat_splitter

type star_splitter = string -> string list
(** Split a string of the iteration of [r] into its unique sequence of
    [r]-chunks. *)

val make_star_splitter : Bx_regex.Regex.t -> star_splitter
