(** Asymmetric state-based lenses (Foster et al., "Combinators for
    bidirectional tree transformations"; Bohannon et al., POPL 2008).

    A lens relates a {e source} space ['s] to a {e view} space ['v].  [get]
    extracts the view from a source; [put] takes an updated view and the old
    source and produces an updated source; [create] builds a source from a
    view alone (used when there is no old source to consult).

    A lens is {e well-behaved} when GetPut and PutGet hold, and {e very
    well-behaved} when additionally PutPut holds.  These laws are exposed as
    first-class {!Law.t} values so test harnesses can verify the claims a
    repository entry makes. *)

exception Error of string
(** Raised by partial lens operations, e.g. putting a view that the lens
    cannot reflect ([const]), or applying a lens outside its domain. *)

type ('s, 'v) t = {
  name : string;
  get : 's -> 'v;
  put : 'v -> 's -> 's;
  create : 'v -> 's;
}

val make :
  name:string -> get:('s -> 'v) -> put:('v -> 's -> 's) -> create:('v -> 's)
  -> ('s, 'v) t
(** Package a lens from its three components. *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error fmt ...] raises {!Error} with a formatted message. *)

val id : ('a, 'a) t
(** The identity lens. *)

val compose : ('a, 'b) t -> ('b, 'c) t -> ('a, 'c) t
(** Sequential composition: the view of the first is the source of the
    second. *)

val of_iso : ('a, 'b) Iso.t -> ('a, 'b) t
(** Every isomorphism is a (very well-behaved) lens with trivial [create]. *)

val first : default:'b -> ('a * 'b, 'a) t
(** Project the first component; the second is the complement.  [create]
    pairs the view with [default]. *)

val second : default:'a -> ('a * 'b, 'b) t
(** Project the second component. *)

val pair : ('s, 'v) t -> ('s2, 'v2) t -> ('s * 's2, 'v * 'v2) t
(** Parallel composition on pairs. *)

val const : view:'v -> view_equal:('v -> 'v -> bool) -> default:'s -> ('s, 'v) t
(** [const ~view ~view_equal ~default] maps every source to the constant
    [view].  [put] requires the incoming view to equal [view] (raises
    {!Error} otherwise) and leaves the source unchanged; [create] returns
    [default]. *)

val list_map : ('s, 'v) t -> ('s list, 'v list) t
(** Elementwise lens with {e positional} alignment on [put]: the i-th view
    element is put into the i-th old source element; surplus views are
    [create]d; surplus sources are discarded. *)

val list_key_map :
  source_key:('s -> 'k) -> view_key:('v -> 'k) -> ('s, 'v) t
  -> ('s list, 'v list) t
(** Elementwise lens with {e key-based (resourceful) alignment} on [put]: a
    view element is put into the first unconsumed old source element with a
    matching key, preserving that element's hidden data; unmatched views are
    [create]d.  This is the state-level analogue of POPL'08 dictionary
    lenses. *)

val lcs_pairs : eq:(int -> int -> bool) -> int -> int -> (int * int) list
(** [lcs_pairs ~eq n m] is a longest common subsequence of two sequences
    of lengths [n] and [m], where [eq i j] compares element [i] of the
    first with element [j] of the second, as index pairs strictly
    increasing in both components.  Quadratic in time and space.  Ties
    break the same way every time: walking from the front, equal
    elements pair at once, and otherwise the walk skips an element of
    the first sequence whenever that loses nothing. *)

val list_diff_map :
  source_key:('s -> 'k) -> view_key:('v -> 'k) -> ('s, 'v) t
  -> ('s list, 'v list) t
(** Elementwise lens with {e order-respecting (LCS) alignment} on [put]: a
    longest common subsequence of keys decides which view elements reuse
    which source elements, so middle insertions and deletions leave the
    rest of the list's hidden data in place — including among duplicate
    keys, where {!list_key_map}'s greedy first-match misassigns. *)

val filter : keep:('s -> bool) -> default:'s -> ('s list, 's list) t
(** [filter ~keep ~default] shows only the elements satisfying [keep].
    [put] splices the updated kept elements back among the hidden (non-kept)
    elements, preserving the hidden ones in place; surplus view elements are
    appended; [create] uses the view itself.  Raises {!Error} if a view
    element fails [keep] (the view must stay within the visible space). *)

(** {1 Laws} *)

val get_put_law : 's Model.t -> ('s, 'v) t -> 's Law.t
(** GetPut: [put (get s) s = s] — putting back an unmodified view changes
    nothing (the acceptability half of well-behavedness). *)

val put_get_law : 'v Model.t -> ('s, 'v) t -> ('s * 'v) Law.t
(** PutGet: [get (put v s) = v] — a put view is exactly recovered. *)

val create_get_law : 'v Model.t -> ('s, 'v) t -> 'v Law.t
(** CreateGet: [get (create v) = v]. *)

val put_put_law : 's Model.t -> ('s, 'v) t -> ('s * 'v * 'v) Law.t
(** PutPut: [put v' (put v s) = put v' s] — very-well-behavedness. *)

val well_behaved_laws : 's Model.t -> 'v Model.t -> ('s, 'v) t -> ('s * 'v) Law.t
(** Conjunction of GetPut and PutGet, adapted to a common input shape. *)
