(** The pre-slice {e copying} string-lens engine, kept as a reference
    implementation.  Same combinators and side conditions as
    {!Bx_strlens.Slens}, but execution materialises every intermediate
    substring.  It exists for two purposes: the property suite checks
    the zero-copy engine extensionally equal to this one, and the
    benchmarks measure the speedup against it.  Only the tests and the
    bench link this library; applications use {!Bx_strlens.Slens}. *)

exception Type_error of string

type t = {
  stype : Bx_regex.Regex.t;
  vtype : Bx_regex.Regex.t;
  get : string -> string;
  put : string -> string -> string;
  create : string -> string;
}

val copy : Bx_regex.Regex.t -> t
val const : stype:Bx_regex.Regex.t -> view:string -> default:string -> t
val del : Bx_regex.Regex.t -> default:string -> t
val ins : string -> t
val concat : t -> t -> t
val concat_list : t list -> t
val union : t -> t -> t
val star : t -> t
val star_key : key:(string -> string) -> t -> t
val star_diff : key:(string -> string) -> t -> t
val separated : sep:t -> t -> t
val compose : t -> t -> t
val swap : t -> t -> t
val permute : order:int list -> t list -> t
val in_source : t -> string -> bool
val in_view : t -> string -> bool
