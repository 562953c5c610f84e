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
    body. *)

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
      (** extra response headers ([(name, value)]), e.g. the integrity
          layer's [Warning] on quarantined entries or a computed
          [Retry-After] on 503s; usually empty *)
}

val handle :
  ?editor:Curation.account -> ?pages:(string * (unit -> string * string)) list
  -> ?query:string
  -> Registry.t -> meth:string -> path:string -> body:string -> response
(** [editor] defaults to a curator account named ["wiki"] (curators may
    edit anything, which is what a self-hosted wiki wants).  [pages] adds
    extra GET routes: each maps a path to a thunk producing (title, HTML
    fragment) — how the server mounts content from libraries this one
    cannot depend on (the live verification report, say).  [query] is the
    raw (still percent-encoded) query string; the index and [/search]
    read it, every other route ignores it. *)

val page_identifier : string -> Identifier.t option
(** The identifier a request path addresses, when it is an entry route:
    ["/examples:composers.wiki"] yields the composers identifier; [/],
    [/search], [/glossary], [/manuscript] and malformed names yield
    [None].  Purely syntactic — the entry need not exist — so a sharded
    server can route a request to its registry shard before taking any
    lock. *)

val not_found : string -> response
(** The 404 page for a path, as every unknown route answers. *)

val html_page : title:string -> string -> string
(** Wrap an HTML fragment in the wiki's page chrome (exposed for the
    server's error pages). *)
