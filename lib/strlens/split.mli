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
    the splitters use {e first-match} parsing: scan forward with the
    part's DFA and accept the first position from which the rest of the
    slice belongs to the rest-language (checked by running the rest DFA
    forward, which kills wrong candidates at its sink within a byte or
    two).  The star chunker amortises that check into one right-to-left
    suffix-mark pass — a DFA for the reversed star run over the original
    bytes, so no reversed copy of the input is ever built — written into
    a caller-supplied {!ws} workspace that one lens execution reuses for
    every split it performs.  The string-returning splitters
    ({!make_concat_splitter}, {!make_star_splitter}) are thin
    compatibility wrappers over the slice engine. *)

exception Split_error of string

val rev_string : string -> string
(** Reverse a string (exposed for tests). *)

(** {1 Workspace} *)

type ws
(** Reusable scratch: the star chunker's suffix-mark buffer (grown
    geometrically on demand) and the split and chunk counters.  A workspace must
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
    [r1 . r2]: first-match with [r1]'s DFA, each candidate verified by
    running [r2]'s DFA over the remainder (sink bail-out). *)

type star_bounds = ws -> string -> int -> int -> int array
(** [bounds ws s pos len] returns the chunk boundaries of
    [s[pos .. pos+len)] against [r*]: an array [b] with [b.(0) = pos],
    [b.(n) = pos + len], chunk [i] spanning [b.(i) .. b.(i+1))].  The
    empty slice yields [[| pos |]] (zero chunks). *)

val make_star_bounds : Bx_regex.Regex.t -> star_bounds
(** Build a chunker for the (uniquely iterable) [r*].  Requires
    [ε ∉ L(r)]; raises [Invalid_argument] otherwise. *)

type multi_bounds = ws -> string -> int -> int -> int array
(** [bounds ws s pos len] returns the [k+1] part boundaries of
    [s[pos .. pos+len)] against [r0 . r1 . ... . r(k-1)]. *)

val make_multi_bounds : Bx_regex.Regex.t list -> multi_bounds
(** Build a k-way splitter for an (unambiguous) concatenation chain.
    Each level closes by first-match against one DFA for its whole
    rest-language — no pairwise chain over shrinking substring copies,
    no intermediate strings at all. *)

(** {1 String splitters (compatibility wrappers)} *)

type concat_splitter = string -> string * string
(** Split a string of [L(r1)·L(r2)] into its unique [r1]-prefix and
    [r2]-suffix. *)

val make_concat_splitter : Bx_regex.Regex.t -> Bx_regex.Regex.t -> concat_splitter

type star_splitter = string -> string list
(** Split a string of the iteration of [r] into its unique sequence of
    [r]-chunks. *)

val make_star_splitter : Bx_regex.Regex.t -> star_splitter
