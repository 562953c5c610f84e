(** Deterministic finite automata built from regular expressions by
    Brzozowski-derivative closure, compiled to dense byte->state tables.
    State 0 is initial; every state is reachable; the transition function
    is total.  [step], [run_from], [accepts] and [prefix_marks] are O(1)
    per byte (one flat-array read); the character-class view of the
    transitions is kept alongside for the structural algorithms
    ({!transitions}, {!minimise}, {!to_regex}). *)

type t

val build : Regex.t -> t
(** Construct the DFA recognising the regex's language (uncached). *)

val compile : Regex.t -> t
(** {!build} through the global compilation cache: at most one DFA is
    ever constructed per interned regex (keyed by {!Regex.id}), shared by
    every lens and decision procedure.  Thread-safe. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!compile} since start-up (or {!cache_clear}).
    Misses count actual DFA constructions — the test suites assert that
    building a lens twice adds no misses. *)

val cache_clear : unit -> unit
(** Empty the compilation cache and reset the counters.  Existing [t]
    values remain valid; used by benchmarks to measure cold builds. *)

val size : t -> int
(** Number of states. *)

val initial : int
(** The initial state index (always [0]). *)

val regex_of_state : t -> int -> Regex.t
(** The canonical derivative labelling a state (its residual language). *)

val states : t -> Regex.t array
(** All state labels, indexed by state. *)

val transitions : t -> int -> (Cset.t * int) list
(** Outgoing transitions of a state as disjoint character classes. *)

val sink : t -> int
(** The index of the sink state (the state whose residual language is
    empty), or [-1] when every state accepts some continuation.  Scans
    can stop as soon as they reach it. *)

val step : t -> int -> char -> int
(** One transition: a single dense-table read. *)

val accepting : t -> int -> bool

val accepts : t -> string -> bool
(** Full-string membership; bails out early at the sink state. *)

val accepts_sub : t -> string -> pos:int -> len:int -> bool
(** Membership of the slice [s[pos .. pos+len)] — no substring is built. *)

val run_from : t -> int -> string -> int
(** Run the automaton over a string from a given state. *)

val run_from_sub : t -> int -> string -> pos:int -> len:int -> int
(** Run the automaton over the slice [s[pos .. pos+len)] from a state. *)

val prefix_marks : t -> string -> bool array
(** [prefix_marks d s] has length [String.length s + 1]; element [i] tells
    whether the prefix [s[0..i)] is accepted. *)

val prefix_marks_sub : t -> string -> pos:int -> len:int -> into:Bytes.t -> int
(** Slice variant of {!prefix_marks} writing into caller scratch: after
    the call, [into.(i) = '\001'] iff [s[pos .. pos+i)] is accepted, for
    [0 <= i <= len].  [into] must have at least [len + 1] bytes; lens
    executions reuse one buffer across every split of a run.  The pass
    bails out at the sink state (blanking the rest of the scratch) and
    returns the highest index that can still carry a mark. *)

val suffix_marks_sub : t -> string -> pos:int -> len:int -> into:Bytes.t -> int
(** [d] must recognise the {e reversal} of the language of interest
    (compile [Regex.reverse r]); the pass then runs right to left over
    the original bytes — the reversed string is never materialised.
    After the call, [into.(i) = '\001'] iff [s[pos+i .. pos+len)] belongs
    to the unreversed language.  [into] needs [len + 1] bytes.  Bails
    out at the sink (blanking the scratch below) and returns the lowest
    index that can still carry a mark. *)

val raw_table : t -> int array
(** The dense transition table itself: the successor of state [i] on byte
    [c] is at index [(i lsl 8) lor c].  Exposed for the splitter inner
    loops, which step the automaton once per byte and cannot afford a
    cross-module call each time.  Do not mutate. *)

val raw_accept : t -> bool array
(** The acceptance vector, indexed by state.  Do not mutate. *)

val is_empty_lang : t -> bool
(** Whether the language is empty (no accepting state exists; all states
    are reachable by construction). *)

val shortest_accepted : t -> string option
(** A shortest member of the language, by breadth-first search. *)

val minimise : t -> t
(** The minimal DFA for the same language, by Moore partition refinement
    over the dense tables.  State labels are taken from block
    representatives (the residual languages are equivalent within a
    block); state 0 remains initial. *)

val complement : t -> t
(** Same transitions, accepting states flipped.  State labels are left
    untouched and no longer describe the residual languages; use the
    result only where labels are not consulted ({!accepts},
    {!minimise}, {!to_regex}). *)

val to_regex : t -> Regex.t
(** A regular expression for the automaton's language, by GNFA state
    elimination (Kleene).  The result can be large; it is language-equal
    to every state-0 label but syntactically unrelated.  Minimising
    first usually helps. *)
