type request = {
  meth : string;
  path : string;
  query : string;
  body : string;
  keep_alive : bool;
  deadline : float option;
}

type error = { status : int; reason : string }

(* Limits.  Header sizes follow common server defaults; the body cap is
   generous for wiki pages while keeping a hostile client from making the
   service buffer gigabytes. *)
let max_line_bytes = 8192
let max_header_count = 128
let default_max_body = 1024 * 1024

type reader = {
  refill : bytes -> int -> int -> int;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  (* Wall-clock bound on reading one whole request, armed when its first
     byte arrives.  SO_RCVTIMEO only bounds a single read(2): a slowloris
     peer trickling one header byte per second resets that clock forever,
     while this one runs out. *)
  mutable read_budget : float;  (* seconds; 0. = unbounded *)
  mutable started : float;  (* when the current request's first byte came *)
}

exception Read_deadline

let make_reader refill =
  {
    refill;
    buf = Bytes.create 8192;
    pos = 0;
    len = 0;
    read_budget = 0.;
    started = 0.;
  }

let reader_of_fd fd =
  let refill buf off want =
    Bx_fault.Fault.point "httpd.read";
    Unix.read fd buf off want
  in
  make_reader refill

let reader_of_string s =
  let consumed = ref 0 in
  let refill buf off want =
    let n = min want (String.length s - !consumed) in
    Bytes.blit_string s !consumed buf off n;
    consumed := !consumed + n;
    n
  in
  make_reader refill

(* Returns false at end of stream. *)
let ensure r =
  if r.pos < r.len then true
  else begin
    if
      r.read_budget > 0. && r.started > 0.
      && Bx_obs.Clock.now () -. r.started > r.read_budget
    then raise Read_deadline;
    r.pos <- 0;
    r.len <- r.refill r.buf 0 (Bytes.length r.buf);
    if r.len > 0 && r.started = 0. then r.started <- Bx_obs.Clock.now ();
    r.len > 0
  end

exception Line_too_long

(* One CRLF- (or bare-LF-) terminated line, without the terminator.
   None at end of stream. *)
let read_line r =
  let b = Buffer.create 128 in
  let rec go () =
    if not (ensure r) then if Buffer.length b = 0 then None else Some (Buffer.contents b)
    else
      let c = Bytes.get r.buf r.pos in
      r.pos <- r.pos + 1;
      if c = '\n' then Some (Buffer.contents b)
      else begin
        if c <> '\r' then Buffer.add_char b c;
        if Buffer.length b > max_line_bytes then raise Line_too_long;
        go ()
      end
  in
  go ()

let read_exact r n =
  let out = Bytes.create n in
  let rec go off =
    if off = n then Some (Bytes.unsafe_to_string out)
    else if not (ensure r) then None
    else begin
      let take = min (n - off) (r.len - r.pos) in
      Bytes.blit r.buf r.pos out off take;
      r.pos <- r.pos + take;
      go (off + take)
    end
  in
  go 0

let bad status reason = Error (`Bad { status; reason })

let parse_request_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ meth; target; version ]
    when String.length version >= 7 && String.sub version 0 7 = "HTTP/1." ->
      let path, query =
        match String.index_opt target '?' with
        | Some i ->
            ( String.sub target 0 i,
              String.sub target (i + 1) (String.length target - i - 1) )
        | None -> (target, "")
      in
      Ok (meth, path, query, version)
  | _ -> Error { status = 400; reason = "malformed_request_line" }

(* The deadline header carries the client's remaining budget in
   milliseconds; bound it so a typo cannot pin a connection for a year.
   Malformed or non-positive values are ignored rather than rejected —
   a deadline is advisory, not an input the request depends on. *)
let max_deadline_ms = 3_600_000.

let parse_deadline value =
  match float_of_string_opt (String.trim value) with
  | Some ms when ms > 0. ->
      Some (Bx_obs.Clock.now () +. Float.min ms max_deadline_ms /. 1000.)
  | _ -> None

let read_request_inner ~max_body r =
  match read_line r with
  | None -> Error `Eof
  | Some "" -> bad 400 "empty_request_line"
  | Some line -> (
      match parse_request_line line with
      | Error e -> Error (`Bad e)
      | Ok (meth, path, query, version) -> (
          let content_length = ref None in
          let connection = ref None in
          let deadline_ms = ref None in
          let rec headers n =
            if n > max_header_count then bad 431 "too_many_headers"
            else
              match read_line r with
              | None -> bad 400 "eof_in_headers"
              | Some "" -> Ok ()
              | Some line -> (
                  match String.index_opt line ':' with
                  | None -> bad 400 "malformed_header"
                  | Some i ->
                      let name =
                        String.lowercase_ascii (String.trim (String.sub line 0 i))
                      in
                      let value =
                        String.trim
                          (String.sub line (i + 1) (String.length line - i - 1))
                      in
                      if name = "content-length" then content_length := Some value
                      else if name = "connection" then
                        connection := Some (String.lowercase_ascii value)
                      else if name = "x-bxwiki-deadline" then
                        deadline_ms := Some value;
                      headers (n + 1))
          in
          match headers 0 with
          | Error e -> Error e
          | Ok () -> (
              let keep_alive =
                match (!connection, version) with
                | Some "close", _ -> false
                | Some v, _ when v = "keep-alive" -> true
                | None, "HTTP/1.0" -> false
                | _ -> true
              in
              let finish body =
                let deadline =
                  match !deadline_ms with
                  | None -> None
                  | Some v -> parse_deadline v
                in
                Ok { meth; path; query; body; keep_alive; deadline }
              in
              match !content_length with
              | None -> finish ""
              | Some v -> (
                  match int_of_string_opt v with
                  | None -> bad 400 "unparseable_content_length"
                  | Some n when n < 0 -> bad 400 "negative_content_length"
                  | Some n when n > max_body -> bad 413 "body_too_large"
                  | Some 0 -> finish ""
                  | Some n -> (
                      match read_exact r n with
                      | None -> bad 400 "truncated_body"
                      | Some body -> finish body)))))
  | exception Line_too_long -> bad 431 "line_too_long"
  | exception Read_deadline -> Error `Deadline

let read_request ?(max_body = default_max_body) ?(read_budget = 0.) r =
  r.read_budget <- read_budget;
  r.started <- 0.;
  (* The per-match [exception] clauses above only cover the request
     line; the header loop and body read raise through to here. *)
  try read_request_inner ~max_body r
  with
  | Line_too_long -> bad 431 "line_too_long"
  | Read_deadline -> Error `Deadline

(* Split "a=1&b=2" into pairs; a bare key maps to "".  No percent
   decoding — the replication endpoints only pass integers. *)
let query_params query =
  if query = "" then []
  else
    String.split_on_char '&' query
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (kv, "")
             | Some i ->
                 Some
                   ( String.sub kv 0 i,
                     String.sub kv (i + 1) (String.length kv - i - 1) ))

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 410 -> "Gone"
  | 413 -> "Content Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Internal Server Error"

let write_all fd b len =
  Bx_fault.Fault.point "httpd.write";
  let rec go off = if off < len then go (off + Unix.write fd b off (len - off)) in
  go 0

(* Each domain assembles responses in one reused buffer, taken for the
   write (another thread on the domain gets a fresh one) and dropped
   instead of kept when it grew past the largest request body. *)
let write_slot : Bytes.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* Every 503 carries Retry-After: overload is the one condition where
   the server knows the client should come back, and the retrying client
   keys its backoff off it.  The service scales the value with queue
   depth (1s under light pressure, up to 8s as the queue fills) and ships
   it in the response's headers; this constant is only the fallback for a
   503 built without one. *)
let retry_after_seconds = 1

let write_response fd ~keep_alive (r : Bx_repo.Webui.response) =
  let extra =
    String.concat ""
      (List.map
         (fun (name, value) -> Printf.sprintf "%s: %s\r\n" name value)
         r.Bx_repo.Webui.headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       %s%sConnection: %s\r\n\
       \r\n"
      r.Bx_repo.Webui.status
      (status_text r.Bx_repo.Webui.status)
      r.Bx_repo.Webui.content_type
      (String.length r.Bx_repo.Webui.body)
      extra
      (if
         r.Bx_repo.Webui.status = 503
         && not
              (List.exists
                 (fun (name, _) ->
                   String.lowercase_ascii name = "retry-after")
                 r.Bx_repo.Webui.headers)
       then Printf.sprintf "Retry-After: %d\r\n" retry_after_seconds
       else "")
      (if keep_alive then "keep-alive" else "close")
  in
  let body = r.Bx_repo.Webui.body in
  let hl = String.length head in
  let n = hl + String.length body in
  let slot = Domain.DLS.get write_slot in
  let have = match !slot with Some b -> slot := None; b | None -> Bytes.empty in
  let b = if Bytes.length have >= n then have else Bytes.create (max n (2 * Bytes.length have)) in
  Bytes.blit_string head 0 b 0 hl;
  Bytes.blit_string body 0 b hl (n - hl);
  (* One buffer, one write loop: the response leaves as one segment. *)
  Fun.protect
    ~finally:(fun () -> if Bytes.length b <= default_max_body then slot := Some b)
    (fun () -> write_all fd b n)

let shed_response ?retry_after ~reason () =
  {
    Bx_repo.Webui.status = 503;
    content_type = "text/plain; charset=utf-8";
    body = Printf.sprintf "overloaded: %s, retry later\n" reason;
    headers =
      (match retry_after with
      | None -> []
      | Some seconds -> [ ("Retry-After", string_of_int seconds) ]);
  }

let error_response { status; reason } =
  {
    Bx_repo.Webui.status;
    content_type = "text/html; charset=utf-8";
    body =
      Bx_repo.Webui.html_page ~title:(status_text status)
        (Printf.sprintf "<h1>%d %s</h1><p>%s</p>" status (status_text status)
           reason);
    headers = [];
  }
