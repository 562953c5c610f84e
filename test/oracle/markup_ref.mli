(** The wiki markup kernels before the in-place rewrite, kept as a
    reference implementation.  Each function computes what its namesake
    in {!Bx_repo.Markup}, {!Bx_repo.Sync} or {!Bx_server.Integrity}
    computes, by the original copying route: substring copies for every
    marker test, byte-at-a-time text buffers, per-block concatenation,
    [Format]/[Printf] for contributor and version strings, and a
    bytewise CRC over a second copy of the entry.  The
    equivalence suite checks the production kernels extensionally equal
    to these.  Only the tests link this library. *)

open Bx_repo

val render : Markup.doc -> string
val render_inlines : Markup.inline list -> string
val parse_inlines : string -> Markup.inline list
val parse : string -> (Markup.doc, string) result
val html_escape : string -> string
val to_html : Markup.doc -> string

val paragraphs_of_text : string -> string list
(** [Sync]'s free-text normaliser: paragraphs split on blank lines,
    whitespace runs collapsed. *)

val normalise_text : string -> string
val render_entry : Template.t -> Markup.doc
val wiki_text : Template.t -> string

val crc32_sub : string -> int -> int -> int
(** The one-table, one-byte-per-step CRC32, reading with bounds checks. *)

val crc32 : string -> int

val entry_hash : Registry.t -> Identifier.t -> int
(** The per-entry digest hash, over a buffered copy of every version's
    wiki text. *)
