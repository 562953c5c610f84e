(** A small JSON implementation (AST, printer, parser) — enough to give
    repository entries a structured interchange format.  Numbers are
    integers only (the repository's data model needs nothing more);
    strings are byte strings, with ["\u00XX"] escapes for non-printable
    bytes and code points above 255 rejected on input. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render; [indent] > 0 pretty-prints with that step (default 0:
    compact). *)

val of_string : string -> (t, string) result
(** Parse; errors carry a byte position. *)

val member : string -> t -> t option
(** Field lookup on objects; [None] on other shapes. *)

val to_list : t -> t list option
val to_str : t -> string option
val to_int : t -> int option

val equal : t -> t -> bool
