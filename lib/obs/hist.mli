(** HDR-style latency histograms: logarithmic buckets with a bounded
    relative error, mergeable across domains, no allocation on the
    record path.

    Values are non-negative integers (the load generator records
    microseconds).  The bucket layout is log-linear: level 0 stores
    values below [2^sub_bits] exactly; level [L >= 1] covers
    [[2^sub_bits * 2^(L-1), 2^sub_bits * 2^L)] in [2^sub_bits] equal
    slots.  Any reported quantile therefore overshoots the true value by
    at most a factor of [1 + 2^-sub_bits] — under 1% at the default
    [sub_bits = 7] — while the whole structure is one flat int array.

    A [t] is {e not} thread-safe: give each recording domain its own and
    {!merge} them afterwards (merge is element-wise, hence associative
    and commutative). *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] (default 7, range 1–16) trades memory for precision:
    [2^sub_bits] slots per level, relative error at most
    [2^-sub_bits]. *)

val record : t -> int -> unit
(** Record one value (negative values clamp to 0).  Allocation-free. *)

val total : t -> int
(** Number of recorded values. *)

val max_value : t -> int
(** Largest recorded value, exact (0 when empty). *)

val min_value : t -> int
(** Smallest recorded value, exact (0 when empty). *)

val sum : t -> int
(** Exact sum of recorded values. *)

val mean : t -> float
(** Exact mean of recorded values (0 when empty). *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0, 1]: an upper bound on the value at
    rank [ceil (q * total)], within the bucket error bound, clamped to
    {!max_value}.  0 when empty. *)

val count_le : t -> int -> int
(** [count_le t v]: the recorded values at most [v], plus those above
    [v] that share its slot — so the count may include values up to one
    slot width ([v * 2^-sub_bits]) above [v], never miss one below it.
    Reads [counts] in index order, so while another domain records,
    [count_le] is non-decreasing in [v] and in time. *)

val merge : t -> t -> t
(** A fresh histogram holding both sets of recordings.  The operands
    must share [sub_bits]. *)

val sub_buckets : t -> int
(** [2^sub_bits] — the denominator of the error bound. *)
