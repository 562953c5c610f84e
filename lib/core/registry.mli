(** The repository itself: a curated, versioned store of example entries.

    Behaviour follows sections 5.1–5.2 of the paper:
    - entries are submitted at version [0.1] and remain {e provisional}
      ([0.x]) until reviewed and approved;
    - anyone with an account comments; reviewers endorse; curators approve
      (three-level curatorial structure) — and an author may not endorse
      their own entry;
    - approval promotes the entry to [1.0], recording the endorsing
      reviewers in the template;
    - {e old versions are kept available} so published references remain
      valid;
    - identifiers are stable; citation strings are generated per version;
    - the whole store exports to (and re-imports from) wiki pages through
      the {!Sync} lens.

    The store is partitioned into identifier-hashed {e shards} (default 1)
    so lookup, mutation and persistence cost are independent of catalogue
    size: every entry lives in exactly one shard, chosen by a stable hash
    of its canonical identifier.  Each shard additionally maintains
    incremental secondary indexes (by author, tag, example class, property
    claim and curation state), kept transactionally in step with every
    mutation, so {!search} is posting-list intersection rather than a full
    scan. *)

type t

type error =
  | Not_found of string
  | Permission_denied of string
  | Invalid of string list
  | Conflict of string

val error_message : error -> string

val create : ?shards:int -> unit -> t
(** [create ?shards ()] makes an empty registry partitioned into [shards]
    identifier-hashed shards (default [1]).  Raises [Invalid_argument] if
    [shards < 1]. *)

val ids : t -> Identifier.t list
(** Sorted. *)

val ids_page : t -> offset:int -> limit:int -> Identifier.t list
(** A slice of the catalogue in submission order: identifiers at
    positions [offset .. offset + limit - 1].  Costs O(limit), not
    O(catalogue) — submission positions are looked up directly, which is
    what keeps a paginated index page flat-latency at any catalogue
    size. *)

val size : t -> int

(** {1 Shards} *)

val shard_count : t -> int

val shard_of_id : t -> Identifier.t -> int
(** The shard an identifier hashes to.  Stable across runs: the hash is
    part of the on-disk layout (journal segment assignment). *)

val shard_ids : t -> int -> Identifier.t list
(** Sorted identifiers living in one shard.  Raises [Invalid_argument] if
    the shard index is out of range. *)

(** {1 Contribution workflow} *)

val submit :
  t -> as_:Curation.account -> Template.t -> (Identifier.t, error) result
(** Add a new entry.  The template must validate, must be provisional
    (version [0.x], no reviewers), and its identifier (from the title) must
    be fresh.  Any account may submit. *)

val comment :
  t -> as_:Curation.account -> Identifier.t -> text:string -> (unit, error) result
(** Append a comment (attributed to the account) to the latest version.
    A comment must be one line: the page writes it as one bullet item. *)

val endorse :
  t -> as_:Curation.account -> Identifier.t -> (unit, error) result
(** A reviewer endorses the latest version as being of usable quality.
    Requires review permission; authors cannot endorse their own entries;
    endorsing twice is a conflict. *)

val endorsements : t -> Identifier.t -> (string list, error) result
(** Names of reviewers who endorsed the latest version so far. *)

val approve :
  t -> as_:Curation.account -> Identifier.t -> (Version.t, error) result
(** A curator approves an entry that has at least one endorsement: a new
    version is created by {!Version.promote}, with the endorsing reviewers
    recorded in the template's Reviewers field. *)

val revise :
  t -> as_:Curation.account -> Identifier.t -> Template.t
  -> (Version.t, error) result
(** Publish a new version of an existing entry (same identifier; the title
    must not change, preserving stable references).  Requires edit
    permission (curator, or a listed author of the latest version).  The
    version is forced to the next in the linear sequence; pending
    endorsements are cleared. *)

(** {1 Lookup} *)

val latest : t -> Identifier.t -> (Template.t, error) result
val find_version : t -> Identifier.t -> Version.t -> (Template.t, error) result
val versions : t -> Identifier.t -> (Version.t list, error) result
(** Oldest first. *)

(** Where an entry sits in the curation lifecycle: freshly submitted
    ([Provisional]), endorsed by at least one reviewer but not yet approved
    ([Endorsed]), or approved to a non-provisional version
    ([Published]). *)
type curation_state = Provisional | Endorsed | Published

val state_of_name : string -> curation_state option

type query = {
  q_class : Template.example_class option;
  q_property : Bx.Properties.claim option;
  q_text : string option;  (** Case-insensitive substring over all fields. *)
  q_author : string option;  (** Case-insensitive exact author name. *)
  q_tag : string option;  (** Case-insensitive exact variant name. *)
  q_state : curation_state option;
}

val query :
  ?cls:Template.example_class -> ?property:Bx.Properties.claim
  -> ?text:string -> ?author:string -> ?tag:string -> ?state:curation_state
  -> unit -> query

val search : t -> query -> Identifier.t list
(** Identifiers of entries whose latest version matches all given
    criteria, sorted.  Class, property, author, tag and curation-state
    criteria are answered from the incremental shard indexes (posting-list
    intersection); free text is a post-filter over the candidates (or a
    scan when it is the only criterion). *)

(** {1 Citations and export} *)

val cite :
  t -> ?version:Version.t -> Identifier.t -> (string, error) result

val cite_bibtex :
  t -> ?version:Version.t -> Identifier.t -> (string, error) result

val export : t -> (string * string) list
(** All versions of all entries as (path, wiki text) pairs — the local,
    wiki-markup-independent copy of section 5.4.  Paths look like
    ["examples:composers/0.1"]; the latest version is additionally
    exported at ["examples:composers"].  Submission-order stable. *)

val export_shard : t -> int -> (string * string) list
(** Like {!export} restricted to one shard, letting callers stream a big
    catalogue shard-by-shard instead of materialising all pages at once.
    The concatenation over all shards is a permutation of {!export}.
    Raises [Invalid_argument] if the shard index is out of range. *)

val import : ?shards:int -> (string * string) list -> (t, string) result
(** Rebuild a registry from an {!export} dump (versioned pages only; the
    latest-version aliases are ignored), partitioned into [shards]
    (default 1).  Round-trips with {!export} up to page ordering; entries
    re-hash to shards, so the shard count may differ from the registry
    that produced the dump. *)

val overlay : t -> (string * string) list -> (unit, string) result
(** Lay an {!export}-format page dump over an existing registry: an
    entry already present is replaced wholesale (history and indexes;
    its submission order is kept, pending comments are dropped — a
    snapshot does not carry them), a new one is appended.  Lets a
    sharded boot start from the seed and fold in per-shard snapshot
    pages without rebuilding from scratch. *)

val replace_shard : t -> int -> (string * string) list -> (unit, string) result
(** Make shard [i]'s contents exactly the entries in the given
    {!export}-format page dump: entries present on both sides are
    replaced wholesale keeping their submission order (like {!overlay}),
    entries absent from the dump are removed (table, indexes and
    submission order), new ones are appended.  Every page must hash to
    shard [i]; a misplaced identifier is an [Error] and leaves the
    registry untouched.  This is the anti-entropy repair primitive: a
    follower whose shard digest diverges installs the upstream's shard
    pages over its own.  Raises [Invalid_argument] if the shard index is
    out of range. *)
