(** The wiki, as a pure request handler: the routing and rendering behind
    the [bxwiki] server, kept free of sockets so the test suite can drive
    it directly.

    Routes (paths are wiki paths, e.g. ["/examples:composers"]):
    - [GET /] — the index page: the entry list in submission order,
      paginated ([?page=N&per_page=M], default 100 per page), with the
      cross-reference index appended while the catalogue is small;
    - [GET /search] — query the catalogue by [class], [property],
      [author], [tag], [state] and/or free [text] (alias [q]), answered
      from the registry's secondary indexes;
    - [GET /<page>] — an entry's latest version as HTML;
    - [GET /<page>.wiki] — the raw wiki text (the {!Sync} get direction);
    - [GET /<page>.json] — the structured form ({!Json_codec});
    - [GET /manuscript] — the section 5.2 archival collection;
    - [GET /glossary] — the property glossary;
    - [POST /<page>] with wiki text as the body — parse the edited page
      through the {!Sync} lens and {!Registry.revise} the entry (the
      section 5.4 bx, live);
    - anything else — 404;
    - an empty path, or one not starting with [/] — 400, as the server's
      route table answers it.

    POSTs are performed as the configured editor account; permission and
    validation failures surface as 403/400 with the message in the
    body.  The server's route table hands every page path to
    {!parse_path}, then renders with {!get} and edits with {!post}. *)

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
      (** extra response headers ([(name, value)]), e.g. the integrity
          layer's [Warning] on quarantined entries or a computed
          [Retry-After] on 503s; usually empty *)
}

type form = Html | Wiki | Json  (** [/<page>], [/<page>.wiki], [/<page>.json] *)

(** A page the wiki renders for a GET. *)
type page =
  | Index
  | Search
  | Glossary
  | Manuscript
  | Extra of string  (** a page the server mounts, by its path *)
  | Entry of { id : Identifier.t; form : form }

val parse_path : pages:(string * 'a) list -> string -> (page, form) result
(** The page grammar, for a path beginning with ['/']: the fixed pages,
    then the paths in [pages], then an entry named by the part after the
    first colon, with its form from its suffix; the entry need not exist.
    [Error form]: an entry-shaped path that names no identifier. *)

val page_identifier : string -> Identifier.t option
(** The identifier of a path {!parse_path} reads as an entry page, e.g.
    ["/examples:composers.wiki"]; purely syntactic. *)

val get :
  pages:(string * (unit -> string * string)) list -> query:string
  -> Registry.t -> path:string -> page -> response
(** Render a parsed page.  [path], the path it was parsed from, is named
    by a 404 and by an HTML entry page's links. *)

val post :
  editor:Curation.account -> Registry.t -> path:string -> Identifier.t
  -> body:string -> response
(** [POST /<page>] of the entry, as [editor]; a 404 names [path]. *)

val default_editor : Curation.account
(** A curator named ["wiki"]: curators may edit anything, which is what a
    self-hosted wiki wants. *)

val handle :
  ?editor:Curation.account -> ?pages:(string * (unit -> string * string)) list
  -> ?query:string
  -> Registry.t -> meth:string -> path:string -> body:string -> response
(** [editor] defaults to {!default_editor}.  [pages] adds
    extra GET routes: each maps a path to a thunk producing (title, HTML
    fragment) — how the server mounts content from libraries this one
    cannot depend on (the live verification report, say).  [query] is the
    raw (still percent-encoded) query string; the index and [/search]
    read it, every other route ignores it. *)

val query_params : string -> (string * string) list
(** The percent-decoded [(name, value)] pairs of a raw query string. *)

val not_found : string -> response
(** The 404 page for a path, as every unknown route answers. *)

val html_page : title:string -> string -> string
(** Wrap an HTML fragment in the wiki's page chrome (exposed for the
    server's error pages). *)
