(** PEOPLE — record projection assembled from the framework's generic
    combinators (no hand-written get/put): an address book of (name, age,
    email) records viewed as a (name, age) directory, with emails the
    hidden data, aligned by name.  Demonstrates building a bx
    compositionally with {!Bx.Lens.list_key_map} and {!Bx.Iso}. *)

type entry = { person : string; age : int; email : string }

val lens : (entry list, (string * int) list) Bx.Lens.t
(** get: project each entry to (name, age).  put: key-aligned by name;
    new names get email ["unknown@example.org"]. *)

val bx : (entry list, (string * int) list) Bx.Symmetric.t

val source_space : entry list Bx.Model.t
val view_space : (string * int) list Bx.Model.t

val template : Bx_repo.Template.t
