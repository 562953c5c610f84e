(** Machine verification of a template's property claims — the executable
    strengthening of the paper's review step: before a reviewer endorses
    an entry, the properties its template claims are checked against the
    entry's executable bx.

    A {e suite} maps each checkable property to a checker that searches
    sampled inputs for a violation.  A ["P"] claim is {e verified} when no
    violation is found, and {e refuted} by a counterexample; a ["not P"]
    claim is verified by a counterexample and refuted when none turns up.
    Properties without an executable law (simply-matching, least-change)
    report {e unsupported} and are left to human review. *)

type outcome =
  | Verified
  | Refuted of string  (** The message explains the offending evidence. *)
  | Unsupported

type row = {
  claim : Bx.Properties.claim;
  outcome : outcome;
}

type checker = unit -> (unit, string) result
type suite = (Bx.Properties.t * checker) list

val symmetric_suite :
  ?seed:int -> ?count:int -> m_space:'m Bx.Model.t -> n_space:'n Bx.Model.t
  -> gen_m:'m QCheck2.Gen.t -> gen_n:'n QCheck2.Gen.t -> ('m, 'n) Bx.Symmetric.t
  -> suite
(** Checkers for correct, hippocratic, undoable, history-ignorant,
    oblivious and bijective, with consistent pairs generated by forward
    restoration so the conditional laws are exercised non-vacuously. *)

val lens_suite :
  ?seed:int -> ?count:int -> s_space:'s Bx.Model.t -> v_space:'v Bx.Model.t
  -> gen_s:'s QCheck2.Gen.t -> gen_v:'v QCheck2.Gen.t -> ('s, 'v) Bx.Lens.t
  -> suite
(** Checkers for well-behaved, very-well-behaved, and — through the
    induced symmetric bx — correct, hippocratic, undoable,
    history-ignorant and oblivious. *)

val check_claims : suite -> Bx.Properties.claim list -> row list
(** Evaluate every claim of a template against the suite. *)

val all_upheld : row list -> bool
(** No claim was refuted (unsupported claims are allowed). *)

val pp_report : Format.formatter -> row list -> unit
(** A claimed-vs-verified table. *)
