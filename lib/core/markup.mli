(** A small wiki markup: AST, renderer and parser.

    The repository is hosted on a wiki (the paper, section 1 and 5.4); this
    module is the markup-independent representation the paper suggests
    maintaining alongside the wiki text.  The dialect is wikidot-flavoured:

    - headings: a line of [+] signs then a space then the heading text,
      the number of signs giving the level;
    - bullet lists: lines starting with ["* "];
    - code blocks: lines between [[[code]]] and [[[/code]]], kept verbatim;
    - paragraphs: runs of ordinary lines, with inline markup
      [**bold**], [//italic//], [{{code}}] and [[[[target|label]]]];
    - a blank line separates blocks.

    {!parse} inverts {!render} on canonical documents (see the test
    suite); this pair is the raw material of the {!Sync} lens. *)

type inline =
  | Text of string
  | Bold of string
  | Italic of string
  | Code of string
  | Link of { target : string; label : string }

type block =
  | Heading of int * string  (** level (1-based), text *)
  | Para of inline list
  | Bullets of string list  (** items kept as raw text *)
  | Code_block of string list  (** verbatim lines *)

type doc = block list

val render : doc -> string
(** Render to wiki text, blocks separated by blank lines, ending with a
    newline (empty document renders to the empty string). *)

val add_block : Buffer.t -> block -> unit
(** Append a block to a buffer holding the same document's earlier
    blocks: {!render} is [add_block] over a doc into an empty buffer. *)

val render_inlines : inline list -> string

val parse : string -> (doc, string) result
(** Parse wiki text.  Unterminated code blocks are an error; everything
    else is total. *)

val parse_inlines : string -> inline list
(** Parse the inline markup of one line of paragraph text.  Unbalanced
    markers are treated as literal text. *)

val plain_text : inline list -> string
(** Concatenated text content with markers stripped. *)

val equal : doc -> doc -> bool
val pp : Format.formatter -> doc -> unit

val to_markdown : doc -> string
(** Render as Markdown (export only; there is no Markdown parser) — the
    "move to a different platform than a wiki" escape hatch of section
    5.1. *)

val html_escape : string -> string
(** Escape [&], [<], [>] and double quotes for HTML contexts. *)

val to_html : doc -> string
(** Render as an HTML fragment (headings, paragraphs, lists, code blocks,
    inline markup; everything escaped).  Used by the bxwiki server. *)
