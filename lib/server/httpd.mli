(** The hardened HTTP/1.1 wire layer: request parsing and response
    writing, kept free of routing (that is {!Service}) and of policy
    about what a request means (that is {!Bx_repo.Webui}).

    Hardening over the seed server's parser:
    - the request line and each header line are length-capped;
    - header count is capped;
    - [Content-Length] must be [1*DIGIT] (RFC 9112 §8.6), the same in
      every copy (400 otherwise), and at most [max_body] (413 beyond);
    - any [Transfer-Encoding] is a 501: a chunked body read as empty
      would be parsed as the next request;
    - persistent connections: HTTP/1.1 keep-alive by default,
      [Connection: close] and HTTP/1.0 semantics honoured;
    - reads run against a socket with a receive timeout ({!Service}
      sets [SO_RCVTIMEO]); a timeout surfaces as
      [Unix.EAGAIN]/[EWOULDBLOCK], which the caller maps to 408;
    - [SO_RCVTIMEO] only limits a single [read(2)], so the caller's
      absolute deadline is checked before each refill: a slowloris peer
      trickling one byte at a time cannot hold a worker forever;
    - an [X-Bxwiki-Deadline: <ms>] header (the client's remaining
      budget) becomes an absolute {!field:request.deadline} when its
      line is read.

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
  status : int;  (** 400, 413, 431 or 501 *)
  reason : string;
}

type reader

val reader_of_fd : Unix.file_descr -> reader
val reader_of_string : string -> reader

val default_max_body : int
(** 1 MiB — generous for wiki pages. *)

val await : reader -> bool
(** Wait, under [SO_RCVTIMEO] alone, for the next request's first byte;
    [false] at end of stream.  Propagates [Unix.Unix_error] like
    {!read_request}. *)

val read_request :
  ?max_body:int ->
  ?deadline:float ->
  reader ->
  (request, [ `Eof | `Bad of error | `Deadline ]) result
(** Parse one request.  [`Eof] means the peer closed (or never wrote)
    before a request line — the normal end of a keep-alive connection.
    A refill after [deadline] (absolute; none by default) is
    [`Deadline], which the service sheds.  Propagates
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

