(** A small relational data model: schemas (tables with typed columns and
    primary keys) and instances (rows conforming to a schema).  The target
    space of the classic UML-class-diagram-to-RDBMS bx. *)

type col_type = Int_t | Text_t | Bool_t

type column = {
  col_name : string;
  col_type : col_type;
  primary : bool;  (** Part of the table's primary key. *)
}

type table = { table_name : string; columns : column list }

type schema = table list
(** A schema is a set of tables; functions treat it order-insensitively. *)

type value = Int_v of int | Text_v of string | Bool_v of bool

type row = value list
(** Values in column order. *)

type instance = (string * row list) list
(** Rows per table name. *)

(** {1 Schemas} *)

val column : ?primary:bool -> string -> col_type -> column
val table : string -> column list -> table

val find_table : schema -> string -> table option
val add_table : schema -> table -> schema
(** Add or replace the table of that name. *)

val remove_table : schema -> string -> schema
val table_names : schema -> string list
(** Sorted. *)

val validate_schema : schema -> (unit, string) result
(** Table names unique and nonempty; each table has at least one column
    with unique column names. *)

val equal_schema : schema -> schema -> bool
(** Order-insensitive on tables and on nothing else: column order matters
    (it fixes row layout). *)

val pp_schema : Format.formatter -> schema -> unit

(** {1 Instances} *)

val conforms : schema -> instance -> (unit, string) result
(** Every listed table exists in the schema, every row has the right arity
    and column types, and primary-key values are unique per table. *)

val pp_value : Format.formatter -> value -> unit

val equal_instance : instance -> instance -> bool
(** Order-insensitive on tables and on rows within a table. *)
