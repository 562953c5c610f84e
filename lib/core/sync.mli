(** The section 5.4 bx: keeping the wiki rendering of an entry and its
    structured (markup-independent) form consistent {e via a bidirectional
    transformation} — the paper proposes exactly this for the repository's
    own maintenance.

    The lens's source is the structured {!Template.t}; its view is a
    {!Markup.doc} wiki page.  [get] renders the canonical page; [put]
    parses an edited page back.  Absence of an {e optional} section
    (restoration, properties, variants, references, reviewers, comments, artefacts)
    means that field is now empty — deleting the section deletes the
    data, so put/get round trips are exact.  Absence of a {e required}
    section (version, type, overview, models, consistency,
    discussion, authors) falls back to the old template (the complement),
    and unknown extra sections are ignored.  [put] normalises free-text
    whitespace (paragraphs survive, line breaks inside a paragraph do
    not).  PutGet holds on canonical pages.  GetPut holds on the
    normalised templates the catalogue, the load corpus and the test
    generators produce, but not on every template {!Template.validate}
    accepts: a field holding one of the page's own delimiters (a model
    name with [": "], a two-paragraph model description, ...) comes
    back changed.  ROADMAP item 2 lists the shapes. *)

exception Parse_error of string

val render_entry : Template.t -> Markup.doc
(** The canonical wiki page for an entry: a level-1 title heading and one
    level-2 section per template field, omitting empty optional fields. *)

val parse_entry : fallback:Template.t -> Markup.doc -> (Template.t, string) result
(** Rebuild a template from a page.  Absent optional sections become
    empty; absent required sections keep the [fallback]'s value.
    Malformed section contents (an unparseable version, property, or
    reference) are an error. *)

val blank : title:string -> Template.t
(** A minimal template used as the fallback when creating from a page with
    no pre-existing structured form. *)

val lens : unit -> (Template.t, Markup.doc) Bx.Lens.t
(** The bx itself.  [put] and [create] raise {!Parse_error} on malformed
    pages. *)

val normalise : Template.t -> Template.t
(** Normalise all free-text fields the way a render/parse round trip does:
    paragraph breaks (blank lines) are kept, other whitespace runs become
    single spaces.  [get]/[put] round trips are identities exactly on
    normalised templates. *)

val wiki_text : Template.t -> string
(** {!Markup.render} of {!render_entry}, written block by block. *)

val of_wiki_text : ?fallback:Template.t -> string -> (Template.t, string) result
(** Parse wiki text into a template; without [fallback], a {!blank} one is
    used (the title then comes from the page's level-1 heading). *)
