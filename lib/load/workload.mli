(** Traffic profiles: weighted mixes of the operations a real client
    population performs against the wiki, and the request each operation
    turns into.

    Write traffic is honest: an [Entry_write] fetches the page's wiki
    source and posts it back, which the server parses through the
    section 5.4 lens and publishes as a new version — so writes take the
    registry write lock, bump the generation and invalidate the response
    cache, exactly like a human edit. *)

type op =
  | Entry_html  (** GET /<page> — the rendered entry. *)
  | Entry_wiki  (** GET /<page>.wiki — the lens view. *)
  | Entry_json  (** GET /<page>.json — the export format. *)
  | Entry_write
      (** GET /<page>.wiki then POST /<page> — a full read-modify-write
          revision; latency covers both requests. *)
  | Index  (** GET / — the entry list plus catalogue search tables. *)
  | Search
      (** GET /search with indexed criteria (class, property, author,
          tag, state) — answered by posting-list intersection, so
          latency should not grow with the catalogue. *)
  | Manuscript  (** GET /manuscript — the collected-examples export. *)
  | Slens_get  (** POST /slens/composers/get. *)
  | Slens_put  (** POST /slens/composers/put (RS-framed). *)
  | Slens_batch
      (** POST /slens/composers/get_batch or put_batch — RS/US framed
          multi-document payloads fanned over the server's lens
          workers. *)
  | Patch
      (** POST /slens/composers/patch — a single-line edit to a
          long-lived lens-backed document, propagated incrementally by
          the server's delta engine.  Stateful: planned through
          {!patch_plan} against a per-domain {!session}, not {!plan}. *)
  | Digest
      (** GET /replication/digest — the per-shard integrity digests an
          anti-entropy follower polls; cheap, but touches every shard's
          read path. *)
  | Readyz
      (** GET /readyz — the readiness probe, which now also reflects
          corruption bursts found by the scrubber. *)

val op_name : op -> string

type profile = { profile_name : string; mix : (op * int) list }
(** Weights are relative integers; zero-weight ops never fire. *)

val read_heavy : profile
(** ~95% reads: entry pages in all three formats, index, lens gets,
    some batches, a trickle of writes and manuscript renders. *)

val profiles : profile list
val of_name : string -> profile option

val pick : profile -> Prng.t -> op
(** Draw one operation, weights respected, deterministic in the PRNG. *)

type request = { meth : string; path : string; body : string }

val plan : targets:string array -> Prng.t -> op -> request
(** The request an [op] issues against entry paths [targets] (as from
    {!Corpus.wiki_paths}).  [Entry_write] plans its opening GET; the
    driver posts the fetched body back to {!write_back}.  [Patch] is
    stateful and must go through {!patch_plan} instead
    ([Invalid_argument] here). *)

val write_back : request -> body:string -> request option
(** Given a planned [Entry_write] GET and the wiki text it returned, the
    follow-up POST; [None] for every other request. *)

(** {1 Patch sessions}

    One per client domain: a long-lived lens-backed document the domain
    repeatedly edits through [/slens/composers/patch], tracking the
    generation and its copy of the view client-side. *)

type session

val session : docid:string -> doc_lines:int -> session
(** A session for document [docid] of [doc_lines] composer records
    (created lazily by the first [Patch] op). *)

val patch_plan : session -> Prng.t -> request
(** The next [Patch] request: the document-creating POST when the
    session has no live document, otherwise a patch frame carrying a
    single-line edit computed against the session's view copy. *)

val patch_ack : session -> status:int -> body:string -> unit
(** Feed the response back.  Success advances the generation and the
    view copy; a 409 marks the document for recreation (our state went
    stale across a lost response); anything else leaves the session
    unchanged — the patch was not applied, so a retry against the same
    generation is correct. *)
