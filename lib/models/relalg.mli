(** Single-table relational algebra with view-update translation — the
    database ancestry of bx (Bancilhon–Spyratos complements, Dayal–Bernstein
    correct update translation) that the paper's introduction places
    alongside MDE and programming languages.

    Queries are selections and projections over one table; each query
    yields a {e view lens} from the table's rows to the view rows, with
    the classical translatability conditions enforced:
    - a selection view accepts only rows satisfying its predicate;
    - a projection view must retain the table's full primary key, so view
      rows can be aligned with source rows and the projected-away columns
      restored. *)

(** Predicates over rows, by column name. *)
type pred =
  | Eq of string * Relational.value  (** column = constant *)
  | Ne of string * Relational.value
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type query =
  | Select of pred
  | Project of string list  (** Columns to keep, in order. *)
  | Seq of query * query  (** Left then right. *)

exception Bad_query of string

val eval_pred : Relational.table -> pred -> Relational.row -> bool
(** Raises {!Bad_query} for unknown columns. *)

val view_table : Relational.table -> query -> Relational.table
(** The schema of the view: selection keeps the table; projection keeps
    the named columns (raises {!Bad_query} if a projection drops part of
    the primary key, making the update untranslatable). *)

val eval : Relational.table -> query -> Relational.row list -> Relational.row list
(** The query's get direction. *)

val lens :
  Relational.table -> query
  -> (Relational.row list, Relational.row list) Bx.Lens.t
(** The view-update lens.

    Selection [put]: view rows must satisfy the predicate (else
    {!Bx.Lens.Error}); rows not satisfying it are preserved in place, as
    in the classical treatment.

    Projection [put]: view rows are aligned with source rows on the key
    columns; matched rows keep their hidden column values, new keys get
    type-appropriate defaults ([0], [""], [false]).

    [Seq] composes the lenses. *)
