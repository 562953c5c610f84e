(** Random-model generators for the catalogue examples.  Pools of names
    are deliberately small so that generated pairs of models collide,
    match partially, and exercise every branch of restoration. *)

open QCheck2

val composers_m : Bx_catalogue.Composers.m Gen.t
val composers_n : Bx_catalogue.Composers.n Gen.t

val uml_model : Bx_models.Uml.model Gen.t
val rdb_schema : Bx_models.Relational.schema Gen.t

val families : Bx_models.Genealogy.families Gen.t
val persons : Bx_models.Genealogy.persons Gen.t
(** Full names always split as "First Last" (the bx's documented domain). *)

val bookstore : string Bx_models.Tree.t Gen.t
val price_list : (string * int) list Gen.t

val document : string Gen.t
(** Valid LINES documents (newline-terminated). *)

val line_list : string list Gen.t

val people_entries : Bx_catalogue.People.entry list Gen.t
val directory : (string * int) list Gen.t

val rational : Bx_models.Rational.t Gen.t

val composers_source : string Gen.t
(** Well-typed sources of the COMPOSERS-BOOMERANG string lens. *)

val composers_view : string Gen.t
(** Well-typed views of the COMPOSERS-BOOMERANG string lens, with
    pairwise-distinct lines (the dictionary lens's documented domain). *)

val regex : Bx_regex.Regex.t QCheck2.Gen.t
(** Random structurally diverse regexes over the alphabet [{a,b,c}]
    (depth at most 4), for cross-checking the compiled DFA engine
    against the derivative interpreter. *)

val regex_input : string QCheck2.Gen.t
(** Random strings over the same alphabet (length at most 12). *)

val consistent_pair :
  ('m, 'n) Bx.Symmetric.t -> 'm Gen.t -> 'n Gen.t -> ('m * 'n) Gen.t
(** Pairs made consistent by forward restoration — the inputs on which
    hippocraticness and undoability are non-vacuous. *)

val mixed_pair :
  ('m, 'n) Bx.Symmetric.t -> 'm Gen.t -> 'n Gen.t -> ('m * 'n) Gen.t
(** Half arbitrary, half consistent. *)

val composers_m_edits : Bx_catalogue.Composers_edit.m_edit list QCheck2.Gen.t
val composers_n_edits : Bx_catalogue.Composers_edit.n_edit list QCheck2.Gen.t

val composers_complement : Bx_catalogue.Composers_edit.complement QCheck2.Gen.t
(** Consistent (m, n) pairs — the edit lens's complement invariant. *)

val canonical_config : string QCheck2.Gen.t
(** Canonical key=value documents for the FORMATTER entry. *)

val sloppy_config : string QCheck2.Gen.t
(** Freely spaced key = value documents (the quotiented source space). *)

val employee_rows : Bx_models.Relational.row list QCheck2.Gen.t
(** Well-typed employees rows with unique ids. *)

val directory_rows : Bx_models.Relational.row list QCheck2.Gen.t
(** Well-typed (id, name) view rows with unique ids. *)

val template : Bx_repo.Template.t QCheck2.Gen.t
(** Random, structurally valid-ish templates (version 0.1, no reviewers)
    for round-trip property tests of the Sync lens and the JSON codec. *)

val bookstore_view_edits :
  (string * int) Bx.Elens.list_edit QCheck2.Gen.t
(** Position-based row edits for the BOOKSTORE-EDIT lens. *)

val bookstore_store_edits :
  string Bx_models.Tree_edit.edit QCheck2.Gen.t
(** In-domain tree edits: whole-book root operations and correctly
    prefixed leaf relabels. *)
