(** The route table: where a request path is read, once.

    {!parse} reads the server's own paths (metrics, health, debug,
    replication, promotion, [/slens/...]) and hands every other path to
    the wiki's page grammar, {!Bx_repo.Webui.parse_path}.  It turns a
    request's method and path into a typed route once;
    {!Service} dispatches on it, labels its metrics with it, decides
    deadline shedding with it and rides a write on the shard it names.
    Journal records keep the raw path, and replay and replica apply parse
    it here too.  Two refusals come from the table itself, before any
    lock or write barrier: {!Bad_path} (400) for a path that is empty or
    does not begin with ['/'], and {!Not_allowed} (405, under the
    resource's label) for a method the resource does not serve. *)

type t =
  | Page of Bx_repo.Webui.page  (** what {!Bx_repo.Webui} renders for a GET, and the cache holds *)
  | Missing of Bx_repo.Webui.form  (** an entry-shaped path naming no identifier: 404 *)
  | Edit of { id : Bx_repo.Identifier.t; form : Bx_repo.Webui.form }  (** POST of an entry *)
  | Metrics
  | Healthz
  | Readyz
  | Failpoints of { put : bool }
  | Chaos of { put : bool }
  | Stream
  | Snapshot
  | Digest
  | Promote
  | Lens_op of { lens : string; op : string }  (** POST [/slens/<lens>/<op>] *)
  | Doc_get of { lens : string; docid : string }
  | Doc_write of Docstore.op
  | No_lens_path  (** any other [/slens/...] path: 404 *)
  | Not_allowed of { label : string; allow : string list }
  | Bad_path

val parse : pages:(string * 'a) list -> string -> string -> t
(** [parse ~pages meth path], [meth] upper-case.  Server routes and lens
    paths take precedence over the page grammar, in which the fixed pages
    come before the server's extra [pages], and those before entries. *)

val label : t -> string
(** The [route] label of the [bxwiki_*] request series: ["index"],
    ["search"], ["glossary"], ["manuscript"], an extra page's path,
    ["entry"], ["entry.wiki"], ["entry.json"], ["metrics"], ["health"],
    ["debug"], ["replication"], ["admin"], ["slens"], or ["bad_path"]. *)

val deadline_exempt : t -> bool
(** The operational routes, which never shed on an exhausted
    [X-Bxwiki-Deadline]: metrics, health, [/debug/*], replication and
    promotion. *)

type item = Entry_item of Bx_repo.Identifier.t | Doc_item of string * string | No_item

val touch : Bx_repo.Registry.t -> t -> body:string -> int * item
(** The shard a write rides on (lock, generation, journal segment) and
    the item whose hash moves that shard's digest: an {!Edit} its
    entry's shard, a {!Doc_write} shard 0 (whose snapshot carries the
    documents) and its (lens, docid) — for a patch, the frame's first RS
    field.  Any other route is [(0, No_item)]. *)
