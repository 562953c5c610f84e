(** Netchaos: a toxiproxy-style in-process TCP proxy.

    A proxy listens on an ephemeral loopback port and forwards accepted
    connections to a fixed upstream port, applying composable "toxics"
    to the byte stream in each direction.  With no toxics configured the
    proxy is transparent: bytes through it are exactly the bytes a
    direct socket would carry (the QCheck transparency suite in
    [test/test_chaos.ml] holds it to that).

    Toxics are configured with the same textual-spec discipline as
    failpoints, so one grammar serves [BXWIKI_CHAOS], [--chaos] and
    [PUT /debug/chaos]:

    {v proxy=TOXIC[+TOXIC...][;proxy=...]
TOXIC := [up:|down:] latency(ms[,jitter_ms]) | bandwidth(kib_s)
         | reset(bytes) | blackhole | slow_close(ms) | truncate(bytes) v}

    [up:] applies only client->upstream, [down:] only upstream->client;
    no prefix means both directions.  Rules are held by proxy {e name}
    in a global registry: configuring a name before its proxy exists is
    fine — the proxy adopts the rules when created.  Jitter draws come
    from a per-proxy seeded PRNG, so a chaos schedule is reproducible. *)

type direction = Up  (** client -> upstream *) | Down  (** upstream -> client *) | Both

type toxic =
  | Latency of float * float  (** added delay in ms, +/- jitter in ms *)
  | Bandwidth of int  (** throughput cap in KiB/s *)
  | Reset of int
      (** abrupt teardown (RST where loopback allows) once this many
          bytes have passed in the toxic's direction *)
  | Blackhole
      (** swallow bytes without forwarding: a one- or two-way partition
          where the connection hangs rather than errors *)
  | Slow_close of float  (** hold EOF propagation for this many ms *)
  | Truncate of int
      (** forward this many bytes, silently drop the rest (partial
          write): the peer sees a frame cut short on a live socket *)

type rule = direction * toxic

(** {1 Spec grammar} *)

val parse_rules : string -> (rule list, string) result
(** One proxy's toxic chain, e.g. ["up:latency(50,20)+reset(1024)"].
    The empty string is [Ok []] (no toxics — transparent). *)

val render_rules : rule list -> string
(** Inverse of {!parse_rules}: [parse_rules (render_rules r) = Ok r]. *)

val parse_spec : string -> ((string * rule list) list, string) result
(** A whole [proxy=TOXICS;...] spec. *)

val configure : string -> (unit, string) result
(** Replace the global rule set from a spec and push the new rules to
    every live proxy (proxies absent from the spec are healed).  On
    [Error] nothing changes. *)

val clear_rules : unit -> unit
(** Drop every rule and heal every live proxy. *)

val describe : unit -> string
(** Current rules, one [proxy=TOXICS] line, sorted — the canonicalised
    inverse of {!configure}. *)

val stats_text : unit -> string
(** One line per live proxy: listen/upstream ports, connections
    accepted, bytes pumped each way. *)

val env_configured : bool
(** True when [BXWIKI_CHAOS] was present at startup (even empty) — the
    service uses this to decide whether [/debug/chaos] exists. *)

(** {1 Proxies} *)

type t

val create : ?name:string -> ?seed:int -> upstream_port:int -> unit -> t
(** Bind a loopback listener on an ephemeral port and start forwarding
    to [upstream_port].  [name] keys the global rule registry (default:
    generated); [seed] fixes the jitter PRNG (default: hash of name). *)

val port : t -> int
(** The proxy's listening port: point clients here. *)

val name : t -> string

val set_toxics : t -> rule list -> unit
(** Replace this proxy's toxic chain, effective from the next chunk. *)

val toxics : t -> rule list

val partition : t -> unit
(** [set_toxics t [(Both, Blackhole)]] plus tearing down every live
    connection: a full partition — existing connections die, new ones
    hang. *)

val heal : t -> unit
(** Clear this proxy's toxics; traffic flows normally again. *)

val stats : t -> int * int * int
(** [(connections_accepted, bytes_up, bytes_down)]. *)

val close : t -> unit
(** Stop accepting, sever live connections, release the listener and
    unregister the proxy. *)
