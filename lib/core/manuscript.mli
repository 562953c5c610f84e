(** The archival manuscript of section 5.2: "If the repository reaches a
    point of relative maturity or stability, it may make sense to collect
    the most recent versions of all of the examples in it into a
    manuscript (with all authors and reviewers named), and publish it
    formally as a citable, archival technical report."

    {!document} builds exactly that, as a single wiki document: a
    preamble with the recommended repository citation, a table of
    contents, every entry's latest version (headings demoted one level so
    entry titles nest under the manuscript title), and a credits section
    naming every contributing author and reviewer. *)

val document : Registry.t -> Markup.doc
(** The manuscript as a document: what the wiki serves as HTML. *)

val generate : Registry.t -> string
(** The manuscript as wiki text: {!Markup.render} of {!document}, which
    {!Markup.parse} reads back as {!document}. *)

val contributors : Registry.t -> (string * string list) list
(** Every person named in the repository with the entries they touched:
    [(person, entry ids)], sorted by name; authors and reviewers alike. *)

val bibliography : Registry.t -> string
(** BibTeX records for every entry (latest version) plus the repository
    itself. *)
