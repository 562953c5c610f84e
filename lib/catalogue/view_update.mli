(** SELECT-PROJECT-VIEW — the view-update problem, the database-heritage
    bx the paper's first sentence gestures at ("from databases, to
    model-driven development, to programming languages"): a base table of
    employees against a select-project view, with the classical
    translatability conditions (predicate membership for selections, key
    retention for projections) enforced by {!Bx_models.Relalg}. *)

val employees : Bx_models.Relational.table
(** id (key, INT), name (TEXT), dept (TEXT), salary (INT). *)

val lens :
  (Bx_models.Relational.row list, Bx_models.Relational.row list) Bx.Lens.t

val base_space : Bx_models.Relational.row list Bx.Model.t
val view_space : Bx_models.Relational.row list Bx.Model.t

val sample_rows : Bx_models.Relational.row list
(** A small, well-typed base table for demos and tests. *)

val template : Bx_repo.Template.t
