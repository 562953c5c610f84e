(** Symmetric state-based bx (Stevens, "Bidirectional model transformations
    in QVT", SoSyM 2010) — the kernel description the repository template is
    built around (Cheney et al., BX 2014, section 3).

    A bx between model spaces [M] and [N] comprises a consistency relation
    [R ⊆ M × N] and two consistency-restoration functions: [fwd : M → N → N]
    (the left model is authoritative; repair the right) and
    [bwd : M → N → M] (the right model is authoritative; repair the left).
    Restoration here depends only on the states of the two models
    (state-based bx); see {!Elens} for the edit-based alternative the
    template also admits. *)

type ('m, 'n) t = {
  name : string;
  consistent : 'm -> 'n -> bool;  (** The consistency relation R. *)
  fwd : 'm -> 'n -> 'n;
      (** [fwd m n] repairs [n] so that it is consistent with the
          authoritative [m]. *)
  bwd : 'm -> 'n -> 'm;
      (** [bwd m n] repairs [m] so that it is consistent with the
          authoritative [n]. *)
}

val make :
  name:string -> consistent:('m -> 'n -> bool) -> fwd:('m -> 'n -> 'n)
  -> bwd:('m -> 'n -> 'm) -> ('m, 'n) t
(** Package a symmetric bx. *)

val of_lens : view_equal:('v -> 'v -> bool) -> ('s, 'v) Lens.t -> ('s, 'v) t
(** A well-behaved lens induces a symmetric bx: [m] and [n] are consistent
    when [get m = n]; [fwd] is [get]; [bwd] is [put]. *)

val of_iso : ('a, 'b) Iso.t -> equal_b:('b -> 'b -> bool) -> ('a, 'b) t
(** An isomorphism induces a (bijective) symmetric bx. *)

val invert : ('m, 'n) t -> ('n, 'm) t
(** Swap the roles of the two model spaces. *)

val product : ('m, 'n) t -> ('p, 'q) t -> ('m * 'p, 'n * 'q) t
(** Componentwise product of two bx. *)

val identity : ('m, 'm) t
(** The identity bx: consistency is equality up to [(==)]-free structural
    equality supplied by OCaml's polymorphic [=]; restoration copies the
    authoritative side.  Intended for tests and documentation. *)

(** {1 Laws}

    Note: sequential composition of symmetric state-based bx is famously
    problematic (there is no canonical middle model to restore through); the
    repository glossary discusses this, and no [compose] is provided. *)

val correct_law : ('m, 'n) t -> ('m * 'n) Law.t
(** Correctness: both halves. *)

val hippocratic_fwd_law : 'n Model.t -> ('m, 'n) t -> ('m * 'n) Law.t
(** Hippocraticness, forward half: if [consistent m n] then [fwd m n = n]
    (inputs that are already consistent are vacuously accepted). *)

val hippocratic_law : 'm Model.t -> 'n Model.t -> ('m, 'n) t -> ('m * 'n) Law.t
(** Hippocraticness: both halves. *)

val undoable_fwd_law : 'n Model.t -> ('m, 'n) t -> ('m * 'm * 'n) Law.t
(** Forward undoability (Stevens 2010): for consistent [(m, n)] and any
    [m'], [fwd m (fwd m' n) = n] — redoing with the original [m] undoes the
    effect of the interfering [m'].  Inputs with inconsistent [(m, n)] are
    vacuously accepted. *)

val undoable_bwd_law : 'm Model.t -> ('m, 'n) t -> ('m * 'n * 'n) Law.t
(** Backward undoability: for consistent [(m, n)] and any [n'],
    [bwd (bwd m n') n = m].  This is the direction the paper's Composers
    discussion shows failing (deleted dates cannot be restored). *)

val history_ignorant_fwd_law : 'n Model.t -> ('m, 'n) t -> ('m * 'm * 'n) Law.t
(** Forward history ignorance (PutPut analogue):
    [fwd m' (fwd m n) = fwd m' n]. *)

val history_ignorant_bwd_law : 'm Model.t -> ('m, 'n) t -> ('m * 'n * 'n) Law.t
(** Backward history ignorance: [bwd (bwd m n) n' = bwd m n']. *)

val oblivious_fwd_law : 'n Model.t -> ('m, 'n) t -> ('m * 'n * 'n) Law.t
(** Forward obliviousness: [fwd m n = fwd m n'] — restoration ignores the
    model being overwritten. *)

val oblivious_bwd_law : 'm Model.t -> ('m, 'n) t -> ('m * 'm * 'n) Law.t
(** Backward obliviousness: [bwd m n = bwd m' n]. *)

val bijective_law :
  'm Model.t -> 'n Model.t -> ('m, 'n) t -> ('m * 'n) Law.t
(** Bijectivity (checked via restoration): [bwd (fwd m n) ... ] recovers
    [m] and dually — precisely, [bwd m' (fwd m n) = m] where [m' = m], and
    [fwd (bwd m n) n' = n] where [n' = n]; combined with obliviousness
    this characterises a bijection.  The law checks
    [bwd m (fwd m n) = m] and [fwd (bwd m n) n = n]. *)
