(** Hash-consed regular expressions with Brzozowski derivatives.

    Expressions are kept in a canonical form by smart constructors
    (associativity, neutral and absorbing elements, idempotent and sorted
    alternation, collapsed stars), which guarantees that the set of
    derivatives of any expression is finite — the property {!Dfa}
    construction relies on.

    Every expression is additionally {e interned} (hash-consed):
    structurally equal expressions are physically equal and carry a unique
    {!id}.  [equal] is therefore a pointer comparison, and [nullable],
    [deriv] and [derivative_classes] are memoised per expression, so
    repeated derivative closures (DFA construction, ambiguity checking,
    language decision procedures) pay for each distinct derivative once. *)

type t
(** An interned regular expression. *)

(** The syntactic shape of an expression, one level deep.  Children are
    themselves interned expressions; recurse with {!node}. *)
type node =
  | Empty  (** The empty language. *)
  | Epsilon  (** The language containing only the empty string. *)
  | Cset of Cset.t  (** Any single character from the set. *)
  | Seq of t * t  (** Concatenation (kept right-associated). *)
  | Alt of t * t  (** Union (kept right-associated, sorted, deduplicated). *)
  | Star of t  (** Kleene iteration. *)

val node : t -> node
(** The root constructor of the expression. *)

val id : t -> int
(** The unique intern id: [id a = id b] iff [a] and [b] are structurally
    (hence physically) equal.  Stable for the lifetime of the process —
    the key used by the {!Dfa} compilation cache and the memo tables. *)

(** {1 Constructors} *)

val empty : t
val epsilon : t
val cset : Cset.t -> t
val chr : char -> t
val str : string -> t
(** The literal string. *)

val any : t
(** Any single byte. *)

val seq : t -> t -> t
val alt : t -> t -> t
val star : t -> t
val plus : t -> t
(** One or more repetitions. *)

val opt : t -> t
(** Zero or one occurrence. *)

val concat_list : t list -> t
val repeat : int -> t -> t
(** Exactly [n] copies in sequence. *)

(** {1 Semantics} *)

val nullable : t -> bool
(** Does the language contain the empty string?  O(1): computed at
    interning time. *)

val deriv : char -> t -> t
(** Brzozowski derivative: the language of suffixes after consuming one
    character.  Memoised per (expression, byte). *)

val matches : t -> string -> bool
(** Membership test.  Runs on the compiled DFA engine (one cached dense
    automaton per expression, see {!Dfa.compile}); falls back to
    {!matches_deriv} if the compiled engine is not linked in. *)

val matches_deriv : t -> string -> bool
(** Membership test by iterated (memoised) derivatives — the reference
    interpreter the compiled engine is checked against. *)

val set_matcher : (t -> string -> bool) -> unit
(** Install the compiled matcher behind {!matches}.  Called once by
    {!Dfa} at module initialisation; not for general use. *)

val reverse : t -> t
(** The regex denoting the reversal of the language. *)

val derivative_classes : t -> Cset.t list
(** A partition of the byte space such that [deriv] is constant on each
    block.  May be finer than necessary, never coarser.  Memoised. *)

(** {1 Utilities} *)

val equal : t -> t -> bool
(** Structural equality — O(1) by hash-consing. *)

val compare : t -> t -> int
(** A total order (by intern id — consistent within a process run, not
    structural). *)

val hash : t -> int
(** The intern id; suitable for hash tables. *)

val size : t -> int
(** Number of syntax nodes. *)

val pp : Format.formatter -> t -> unit
(** Render in a conventional concrete syntax. *)

val to_string : t -> string
