(** The hardened HTTP/1.1 wire layer: request parsing and response
    writing, kept free of routing (that is {!Service}) and of policy
    about what a request means (that is {!Bx_repo.Webui}).

    Hardening over the seed server's parser:
    - the request line and each header line are length-capped;
    - header count is capped;
    - [Content-Length] must be a valid non-negative integer (a negative
      or unparseable value is a 400, not an arbitrary
      [really_input_string]) and is capped by [max_body] (413 beyond);
    - persistent connections: HTTP/1.1 keep-alive by default,
      [Connection: close] and HTTP/1.0 semantics honoured;
    - reads run against a socket with a receive timeout ({!Service}
      sets [SO_RCVTIMEO]); a timeout surfaces as
      [Unix.EAGAIN]/[EWOULDBLOCK] from {!read_request}, which the
      caller maps to 408;
    - a wall-clock [read_budget] bounds reading one {e whole} request
      from its first byte: [SO_RCVTIMEO] only limits a single [read(2)],
      so a slowloris peer trickling one header byte at a time would
      otherwise hold a worker forever.  Exhaustion surfaces as
      [`Deadline];
    - an [X-Bxwiki-Deadline: <ms>] request header (the client's
      remaining budget in milliseconds) is parsed into an absolute
      {!field:request.deadline} so the service can shed work whose
      requester has already given up.

    The reader abstraction exists so the parser is testable from plain
    strings — the Content-Length regression tests drive it without a
    socket. *)

type request = {
  meth : string;
  path : string;  (** query string stripped *)
  query : string;  (** the raw query string, without the [?]; [""] if none *)
  body : string;
  keep_alive : bool;
  deadline : float option;
      (** absolute {!Bx_obs.Clock.now} deadline derived from
          [X-Bxwiki-Deadline]; [None] when absent or malformed *)
}

type error = {
  status : int;  (** 400, 413 or 431 *)
  reason : string;
}

type reader

val reader_of_fd : Unix.file_descr -> reader
val reader_of_string : string -> reader

val default_max_body : int
(** 1 MiB — generous for wiki pages. *)

val read_request :
  ?max_body:int ->
  ?read_budget:float ->
  reader ->
  (request, [ `Eof | `Bad of error | `Deadline ]) result
(** Parse one request.  [`Eof] means the peer closed (or never wrote)
    before a request line — the normal end of a keep-alive connection.
    [read_budget] (seconds; [0.] = unbounded, the default) bounds the
    wall-clock time from the request's first byte to its last;
    exhaustion is [`Deadline], which the service sheds and counts as
    [bxwiki_shed_total{reason="deadline"}].  Propagates
    [Unix.Unix_error] from the underlying reads (timeouts, resets); the
    caller owns the socket and the 408/close decision. *)

val write_response :
  Unix.file_descr -> keep_alive:bool -> Bx_repo.Webui.response -> unit
(** Serialise with [Content-Length] and [Connection] headers.  A 503
    additionally carries [Retry-After] — overload is the one condition
    where the server knows the client should come back.  Raises
    [Unix.Unix_error] (e.g. [EPIPE]) if the peer is gone, or on a write
    timeout when the socket has [SO_SNDTIMEO] set (a slow client cannot
    pin a worker forever).

    Failpoints: [httpd.read] fires before each socket refill,
    [httpd.write] before each response write; injected errors surface as
    {!Bx_fault.Fault.Injected}, which the service treats as a dropped
    connection. *)

val shed_response : retry_after:int -> reason:string -> Bx_repo.Webui.response
(** The 503 body written when overload protection rejects a connection
    ([reason] is [queue_full] or [deadline]), with a [Retry-After] of
    [retry_after] seconds. *)

val error_response : error -> Bx_repo.Webui.response
(** A minimal HTML error body for a wire-level failure. *)

val query_params : string -> (string * string) list
(** Split a raw query string into key/value pairs (no percent decoding —
    the internal endpoints that use queries only pass integers). *)
