(** A small UML-style class model: named classes with typed attributes and
    a persistence flag.  The source space of the "notorious" UML class
    diagram to RDBMS schema bx that the paper's introduction cites as the
    canonical shared example. *)

type attr_type = String_t | Integer_t | Boolean_t

type attribute = {
  attr_name : string;
  attr_type : attr_type;
  is_key : bool;  (** Marked as (part of) the class's identifying key. *)
}

type clazz = {
  class_name : string;
  persistent : bool;  (** Only persistent classes map to tables. *)
  attributes : attribute list;
}

type model = clazz list
(** A model is a set of classes; functions treat it order-insensitively. *)

val attribute : ?is_key:bool -> string -> attr_type -> attribute
val clazz : ?persistent:bool -> string -> attribute list -> clazz

val find_class : model -> string -> clazz option

val remove_class : model -> string -> model
val class_names : model -> string list
(** Sorted. *)

val persistent_classes : model -> clazz list

val validate : model -> (unit, string) result
(** Class names unique and nonempty; attribute names unique per class;
    every class has at least one attribute. *)

val equal : model -> model -> bool
(** Order-insensitive on classes; attribute order matters. *)

val pp : Format.formatter -> model -> unit
