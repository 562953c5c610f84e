(** The open-loop driver: schedules arrivals in advance, fans them over
    client domains, measures latency from the {e scheduled} instant, and
    reads the server's lock-contention counters around the measured
    window.

    Per domain: one keep-alive {!Conn}, one {!Prng}, one {!Bx_obs.Hist}, and a
    private slice of the arrival schedule — domains share nothing and
    their histograms merge afterwards.  Because a keep-alive connection
    occupies one server worker for its lifetime, run the server with at
    least as many workers as client domains.

    Latency is [completion - scheduled arrival] (wrk2-style): when the
    server falls behind the offered rate, the backlog a closed-loop
    driver would silently absorb shows up here as queueing delay. *)

type spec = {
  port : int;
  profile : Workload.profile;
  pacing : Arrival.pacing;
  rate : float;  (** total offered requests/second across all domains *)
  domains : int;  (** client domains issuing requests *)
  warmup : float;  (** seconds of discarded load before measuring *)
  duration : float;  (** measured seconds *)
  seed : int;
  targets : string array;  (** entry URL paths writes and reads draw from *)
}

type lock_row = {
  lock : string;
  mode : string;
  acquisitions : int;
  contended : int;
}

type result = {
  res_profile : string;
  res_pacing : string;
  res_rate : float;
  res_domains : int;
  res_wall : float;  (** measured wall-clock seconds *)
  sent : int;
  ok : int;  (** 2xx *)
  shed : int;  (** 503 — load shedding, not failure *)
  failed : int;  (** other non-2xx statuses *)
  transport : int;  (** connection-level errors *)
  reconnects : int;
  throughput : float;  (** ok / res_wall *)
  latency : Bx_obs.Hist.t;  (** microseconds, all domains merged *)
  locks : lock_row list;
      (** server counter deltas across the measured phase — which lock
          the run actually queued on *)
  domain_failures : string list;
      (** client domains that crashed, one message each; surviving
          domains' traffic still counts *)
}

val scrape_locks : port:int -> (lock_row list, string) Stdlib.result
(** GET /metrics and parse the [bxwiki_lock_*] series. *)

val per_domain : ('a -> 'b) -> 'a list -> ('b, string) Stdlib.result list
(** [per_domain f slices] runs [f] on each slice in a domain of its own
    and joins them all before returning, in slice order.  An exception
    in one slice becomes that slice's [Error msg] row; the others run to
    completion.  This is how {!run} fans its client domains. *)

val run : spec -> (result, string) Stdlib.result
(** Execute warmup then measurement against a live server.  [Error] only
    when the run cannot start (no targets, unreachable server, every
    domain crashed); individual domain crashes are reported in
    [domain_failures]. *)

val to_json :
  results:result list ->
  scaling:result list ->
  warmup:float ->
  duration:float ->
  entries:int ->
  seed:int ->
  string
(** The BENCH_load.json document: run metadata (including
    [Domain.recommended_domain_count] and actual domain counts — bench
    honesty), per-profile results, and the worker-scaling curve. *)
