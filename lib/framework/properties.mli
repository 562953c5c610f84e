(** The vocabulary of bx properties.

    The repository template's "Properties" field (Cheney et al., BX 2014,
    section 3) links to "a separate glossary of terms such as
    'hippocraticness'".  This module is that glossary's vocabulary: the
    property names, their definitions, and the polarity with which an entry
    may claim them (the paper's Composers entry claims "Correct",
    "Hippocratic", "Not undoable", "Simply matching"). *)

type t =
  | Correct
  | Hippocratic
  | Undoable
  | History_ignorant
  | Well_behaved
  | Very_well_behaved
  | Oblivious
  | Simply_matching
  | Least_change
  | Bijective

val all : t list
(** Every property, in a stable order. *)

val name : t -> string
(** Canonical lower-case hyphenated name, e.g. ["history-ignorant"]. *)

val of_name : string -> t option
(** Inverse of {!name}; case-insensitive, accepts spaces for hyphens. *)

val describe : t -> string
(** Glossary definition, one or two sentences. *)

val machine_checkable : t -> bool
(** Whether the property has an executable law in this framework (e.g.
    "simply matching" and "least change" are structural/semantic notions we
    document but do not check mechanically). *)

(** A claim an entry makes about its bx: the property holds, or pointedly
    does not (the paper's "Not undoable"). *)
type claim = Satisfies of t | Violates of t

val claim_name : claim -> string
(** ["correct"] or ["not undoable"]-style rendering. *)

val claim_of_name : string -> claim option
(** Parse a claim; a leading ["not "] marks a {!Violates} claim. *)

val pp : Format.formatter -> t -> unit
