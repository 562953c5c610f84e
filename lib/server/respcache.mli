(** A cache of rendered GET responses, keyed on (path, registry
    generation), sharded by key hash.

    The {!Service} bumps its generation counter on every successful
    write, so a cached page is valid exactly while its generation
    matches — there is no invalidation traffic, stale entries simply
    stop being found and are swept on the next insertion past capacity.

    The table is split into [shards] independent (mutex, hashtable)
    pairs and a page lives in the shard its path hashes to, whichever
    domain asks: each page is rendered and held once, and domains only
    meet on a mutex when their pages share a shard.  Lock acquisitions
    and the contended ones are counted in process atomics so the load
    benchmarks can see whether the cache is a bottleneck.  Hits and
    misses are counted in the service's {!Metrics}. *)

type t

val create : ?capacity:int -> ?shards:int -> Metrics.t -> t
(** [capacity] bounds the total number of cached responses (default 256,
    split evenly across shards with a floor of 16 per shard); [shards]
    is the number of (mutex, table) pairs (default 1). *)

val find : t -> path:string -> generation:int -> Bx_repo.Webui.response option
(** A hit requires both the path and the generation to match. *)

val find_stale : t -> path:string -> (int * Bx_repo.Webui.response) option
(** The cached render of [path] at {e any} generation, with the
    generation it was filed under: the brownout lane serves this (tagged
    [X-Bxwiki-Stale: <gen-lag>]) instead of 503 when the service is
    overloaded.  Does not count a cache hit or miss — it is not the
    normal read path. *)

val store :
  ?current:(int -> int) ->
  ?scope:int ->
  t -> path:string -> generation:int -> Bx_repo.Webui.response -> unit
(** Insert (or refresh) the rendering of [path] at [generation] into its
    shard.  When the shard is full, entries from older generations are
    evicted; if every entry is current, one of them is.  [scope] names
    the generation counter the render was filed under (default 0), and
    [current] maps a scope to that counter's value now (default:
    everything is compared against [generation]) — a service with
    per-registry-shard generations files each page under its shard, or
    the whole catalogue, so the sweep only evicts genuinely stale
    pages. *)

val size : t -> int
(** Total entries across all shards. *)

val shard_count : t -> int

val lock_stats : t -> int * int
(** (acquisitions, contended acquisitions) across all shards since
    creation — a contended acquisition is one where [Mutex.try_lock]
    failed and the caller had to block. *)
