(* The network chaos layer and the degradation machinery it exercises:
   the toxic-spec grammar (QCheck round-trip), proxy transparency (a
   toxic-free proxy must be invisible, byte for byte, to both raw
   streams and HTTP keep-alive traffic), end-to-end deadline
   propagation (header parse, pre-lock shedding, stale fallback, ops
   exemption, long-poll clamping), slowloris hardening, brownout (AIMD
   admission + the degraded serve-stale lane), sticky ENOSPC read-only
   degradation — and the jepsen-lite drill: a primary/replica pair
   under a seeded toxic schedule of partitions, latency storms and
   mid-frame resets, asserting that no acknowledged write is lost and
   the pair reconverges once the network heals. *)

open Bx_server
module Fault = Bx_fault.Fault
module Netchaos = Bx_fault.Netchaos
module CS = Bx_catalogue.Composers_string

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let seed = Bx_catalogue.Catalogue.seed

let service ?(config = Service.default_config) ?lenses () =
  match Service.create ~config ?lenses ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config dir =
  { Service.default_config with journal_dir = Some dir; compact_every = 0 }

let replica_config dir =
  { (journal_config dir) with Service.replica = true; stream_wait = 0.2 }

let get t path = Service.handle t ~meth:"GET" ~path ~body:""
let post t path body = Service.handle t ~meth:"POST" ~path ~body
let metrics_page t = (get t "/metrics").Bx_repo.Webui.body

let header name (r : Bx_repo.Webui.response) =
  let name = String.lowercase_ascii name in
  List.find_map
    (fun (k, v) -> if String.lowercase_ascii k = name then Some v else None)
    r.Bx_repo.Webui.headers

let isolated f () =
  Fault.clear ();
  Netchaos.clear_rules ();
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      Netchaos.clear_rules ())
    f

let wait_for ?(timeout = 10.0) f =
  let deadline = Bx_obs.Clock.now () +. timeout in
  let rec go () =
    if f () then ()
    else if Bx_obs.Clock.now () > deadline then Alcotest.fail "wait_for: timeout"
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let serve_thread ?(workers = 2) t =
  let th =
    Thread.create
      (fun () ->
        match Service.serve t ~port:0 ~workers ~quiet:true () with
        | Ok () -> ()
        | Error e -> Printf.eprintf "serve: %s\n%!" e)
      ()
  in
  wait_for (fun () -> Service.port t <> None);
  (th, match Service.port t with Some p -> p | None -> assert false)

(* The celsius entry page doubles as a write target whose revision is
   readable back out of the rendered wiki text (same trick as the
   replication suite). *)
let page_path = "/examples:celsius"
let rev_re = Str.regexp "temperature[0-9]*"
let page_body t = (get t (page_path ^ ".wiki")).Bx_repo.Webui.body

let page_rev t =
  let body = page_body t in
  ignore (Str.search_forward rev_re body 0);
  let m = Str.matched_string body in
  if m = "temperature" then 0
  else int_of_string (String.sub m 11 (String.length m - 11))

let edited_body base i =
  Str.global_replace rev_re ("temperature" ^ string_of_int i) base

(* ------------------------------------------------------------------ *)
(* Raw socket plumbing *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let drain fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Buffer.contents buf
  in
  go ()

(* One full request/response conversation: ship [payload], half-close,
   read to EOF.  Works against the echo server and against bxwiki's
   HTTP loop alike, which is exactly what makes direct-vs-proxied
   byte comparison meaningful. *)
let exchange port payload =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      write_all fd payload;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      drain fd)

let status_of raw =
  match String.index_opt raw ' ' with
  | Some i -> ( try int_of_string (String.sub raw (i + 1) 3) with _ -> -1)
  | None -> -1

(* One response off a connection that stays open: read to the end of
   the headers, then Content-Length more bytes. *)
let read_response fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let more () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Alcotest.fail "connection closed mid-response"
    | n -> Buffer.add_subbytes buf chunk 0 n
  in
  let rec head () =
    let raw = Buffer.contents buf in
    match Str.search_forward (Str.regexp_string "\r\n\r\n") raw 0 with
    | i -> i + 4
    | exception Not_found ->
        more ();
        head ()
  in
  let body_at = head () in
  let length =
    let raw = Buffer.contents buf in
    ignore
      (Str.search_forward (Str.regexp "Content-Length: \\([0-9]+\\)") raw 0);
    int_of_string (Str.matched_group 1 raw)
  in
  while Buffer.length buf < body_at + length do
    more ()
  done;
  Buffer.contents buf

let with_echo_server f =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 16;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop = Atomic.make false in
  let echo fd =
    let chunk = Bytes.create 4096 in
    (try
       let rec go () =
         let n = Unix.read fd chunk 0 4096 in
         if n > 0 then begin
           let rec wr off =
             if off < n then wr (off + Unix.write fd chunk off (n - off))
           in
           wr 0;
           go ()
         end
       in
       go ()
     with _ -> ());
    try Unix.close fd with _ -> ()
  in
  let acceptor =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ srv ] [] [] 0.1 with
          | [], _, _ -> ()
          | _ -> (
              match Unix.accept srv with
              | exception _ -> ()
              | fd, _ -> ignore (Thread.create echo fd))
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      try Unix.close srv with _ -> ())
    (fun () -> f port)

(* ------------------------------------------------------------------ *)
(* 1. The toxic-spec grammar *)

let gen_toxic =
  let open QCheck2.Gen in
  (* Integral values only: the renderer prints %g, which round-trips
     exactly for integers but not for arbitrary floats. *)
  let ms = map float_of_int (int_range 0 5000) in
  oneof
    [
      map2 (fun m j -> Netchaos.Latency (m, j)) ms
        (map float_of_int (int_range 0 500));
      map (fun k -> Netchaos.Bandwidth k) (int_range 1 100_000);
      map (fun n -> Netchaos.Reset n) (int_range 0 1_000_000);
      return Netchaos.Blackhole;
      map (fun m -> Netchaos.Slow_close m) ms;
      map (fun n -> Netchaos.Truncate n) (int_range 0 1_000_000);
    ]

let gen_rules =
  QCheck2.Gen.(
    list_size (int_range 0 5)
      (pair (oneofl [ Netchaos.Up; Netchaos.Down; Netchaos.Both ]) gen_toxic))

let spec_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"toxic rules round-trip through the spec grammar"
    gen_rules (fun rules ->
      Netchaos.parse_rules (Netchaos.render_rules rules) = Ok rules)

let spec_tests =
  [
    tc "the spec grammar parses directions, chains and arguments" (fun () ->
        check bool "chain with per-toxic directions" true
          (Netchaos.parse_rules "up:latency(50,20)+down:reset(1024)+blackhole"
          = Ok
              [
                (Netchaos.Up, Netchaos.Latency (50., 20.));
                (Netchaos.Down, Netchaos.Reset 1024);
                (Netchaos.Both, Netchaos.Blackhole);
              ]);
        check bool "latency without jitter" true
          (Netchaos.parse_rules "latency(5)"
          = Ok [ (Netchaos.Both, Netchaos.Latency (5., 0.)) ]);
        check bool "empty rules clear" true (Netchaos.parse_rules "" = Ok []);
        check bool "multi-proxy spec" true
          (Netchaos.parse_spec "a=latency(5);b=up:truncate(9)"
          = Ok
              [
                ("a", [ (Netchaos.Both, Netchaos.Latency (5., 0.)) ]);
                ("b", [ (Netchaos.Up, Netchaos.Truncate 9) ]);
              ]));
    tc "the spec grammar rejects nonsense" (fun () ->
        let bad s = check bool s true (Result.is_error (Netchaos.parse_rules s)) in
        bad "jellyfish(3)";
        bad "latency(-5)";
        bad "bandwidth(0)";
        bad "reset(many)";
        check bool "nameless proxy" true
          (Result.is_error (Netchaos.parse_spec "=latency(5)")));
    tc "configure installs rules a later proxy adopts"
      (isolated (fun () ->
           (match Netchaos.configure "adopted=latency(1)" with
           | Ok () -> ()
           | Error e -> Alcotest.failf "configure: %s" e);
           check bool "described" true
             (contains ~needle:"adopted=latency(1)" (Netchaos.describe ()));
           with_echo_server (fun eport ->
               let p =
                 Netchaos.create ~name:"adopted" ~upstream_port:eport ()
               in
               Fun.protect
                 ~finally:(fun () -> Netchaos.close p)
                 (fun () ->
                   check bool "proxy picked the rules up" true
                     (Netchaos.toxics p
                     = [ (Netchaos.Both, Netchaos.Latency (1., 0.)) ])))));
  ]

(* ------------------------------------------------------------------ *)
(* 2. Proxy transparency *)

(* One echo server + toxic-free proxy pair shared by every QCheck
   sample; the process tears the threads down at exit. *)
let echo_fixture =
  lazy
    (let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Unix.setsockopt srv Unix.SO_REUSEADDR true;
     Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
     Unix.listen srv 16;
     let port =
       match Unix.getsockname srv with
       | Unix.ADDR_INET (_, p) -> p
       | _ -> assert false
     in
     ignore
       (Thread.create
          (fun () ->
            while true do
              match Unix.accept srv with
              | exception _ -> Thread.delay 0.01
              | fd, _ ->
                  ignore
                    (Thread.create
                       (fun () ->
                         let chunk = Bytes.create 4096 in
                         (try
                            let rec go () =
                              let n = Unix.read fd chunk 0 4096 in
                              if n > 0 then begin
                                let rec wr off =
                                  if off < n then
                                    wr (off + Unix.write fd chunk off (n - off))
                                in
                                wr 0;
                                go ()
                              end
                            in
                            go ()
                          with _ -> ());
                         try Unix.close fd with _ -> ())
                       ())
            done)
          ());
     let proxy = Netchaos.create ~name:"qcheck-echo" ~upstream_port:port () in
     (port, Netchaos.port proxy))

let echo_transparency =
  QCheck2.Test.make ~count:25
    ~name:"a toxic-free proxy is byte-transparent to random streams"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 4096))
    (fun payload ->
      let eport, pport = Lazy.force echo_fixture in
      let direct = exchange eport payload in
      let proxied = exchange pport payload in
      direct = payload && proxied = payload)

let transparency_tests =
  [
    QCheck_alcotest.to_alcotest echo_transparency;
    tc "a toxic-free proxy is byte-transparent to HTTP keep-alive"
      (isolated (fun () ->
           let t = service ~lenses:[ ("composers", CS.lens) ] () in
           let th, port = serve_thread t in
           let proxy = Netchaos.create ~name:"http" ~upstream_port:port () in
           Fun.protect
             ~finally:(fun () ->
               Netchaos.close proxy;
               Service.shutdown t;
               Thread.join th)
             (fun () ->
               (* Two pipelined GETs on one connection, then a batch
                  put through the string-lens plane.  Responses carry
                  no clocks, so the full byte streams must agree. *)
               let keepalive =
                 "GET /examples:celsius HTTP/1.1\r\nHost: x\r\n\r\n"
                 ^ "GET /examples:celsius.wiki HTTP/1.1\r\n\
                    Host: x\r\nConnection: close\r\n\r\n"
               in
               let rs = "\x1e" and us = "\x1f" in
               let batch =
                 String.concat rs
                   (List.map
                      (fun n -> CS.synthetic_view n ^ us ^ CS.synthetic_source n)
                      [ 1; 2; 3 ])
               in
               let put_batch =
                 Printf.sprintf
                   "POST /slens/composers/put_batch HTTP/1.1\r\nHost: x\r\n\
                    Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                   (String.length batch) batch
               in
               List.iter
                 (fun (label, payload) ->
                   let direct = exchange port payload in
                   let proxied = exchange (Netchaos.port proxy) payload in
                   check bool (label ^ ": got a response") true
                     (status_of direct = 200);
                   check string (label ^ ": byte-identical") direct proxied)
                 [ ("keep-alive", keepalive); ("put_batch", put_batch) ])));
  ]

(* ------------------------------------------------------------------ *)
(* 3. Deadline propagation *)

let deadline_tests =
  [
    tc "X-Bxwiki-Deadline parses to an absolute deadline" (fun () ->
        let parse raw =
          match Httpd.read_request (Httpd.reader_of_string raw) with
          | Ok req -> req.Httpd.deadline
          | Error _ -> Alcotest.fail "request did not parse"
        in
        (match
           parse "GET / HTTP/1.1\r\nX-Bxwiki-Deadline: 500\r\n\r\n"
         with
        | Some d ->
            let budget = d -. Bx_obs.Clock.now () in
            check bool "≈ 500ms out" true (budget > 0.2 && budget < 0.8)
        | None -> Alcotest.fail "deadline not parsed");
        check bool "malformed budgets are ignored" true
          (parse "GET / HTTP/1.1\r\nX-Bxwiki-Deadline: soon\r\n\r\n" = None);
        match parse "GET / HTTP/1.1\r\nX-Bxwiki-Deadline: 999999999999\r\n\r\n" with
        | Some d ->
            check bool "absurd budgets are capped" true
              (d -. Bx_obs.Clock.now () <= 3600.5)
        | None -> Alcotest.fail "capped deadline not parsed");
    tc "an exhausted deadline sheds writes with 504 before the lock" (fun () ->
        let t = service () in
        let m = Service.metrics t in
        let before = Metrics.shed_by_reason m "deadline_propagated" in
        let body = edited_body (page_body t) 1 in
        let r =
          Service.handle_query ~deadline:(Bx_obs.Clock.now () -. 1.) t
            ~query:"" ~meth:"POST" ~path:page_path ~body
        in
        check int "504" 504 r.Bx_repo.Webui.status;
        check bool "says so" true (contains ~needle:"deadline" r.Bx_repo.Webui.body);
        check int "counted" (before + 1)
          (Metrics.shed_by_reason m "deadline_propagated");
        check int "the write never applied" 0 (page_rev t));
    tc "expired GETs fall back to the stale cache under brownout" (fun () ->
        let t = service () in
        check int "warm" 200 (get t page_path).Bx_repo.Webui.status;
        let past = Bx_obs.Clock.now () -. 1. in
        let r =
          Service.handle_query ~deadline:past t ~query:"" ~meth:"GET"
            ~path:page_path ~body:""
        in
        check int "stale 200" 200 r.Bx_repo.Webui.status;
        check (Alcotest.option Alcotest.string) "labelled with its lag"
          (Some "0")
          (header "X-Bxwiki-Stale" r);
        let served, _ = Metrics.stale_counts (Service.metrics t) in
        check bool "counted" true (served >= 1);
        let cold =
          Service.handle_query ~deadline:past t ~query:"" ~meth:"GET"
            ~path:(page_path ^ ".wiki") ~body:""
        in
        check int "a cold path still sheds" 504 cold.Bx_repo.Webui.status);
    tc "operational routes never shed on a deadline" (fun () ->
        let t = service () in
        let past = Bx_obs.Clock.now () -. 1. in
        List.iter
          (fun path ->
            let r =
              Service.handle_query ~deadline:past t ~query:"" ~meth:"GET"
                ~path ~body:""
            in
            check bool (path ^ " answered") true
              (r.Bx_repo.Webui.status <> 504))
          [ "/metrics"; "/healthz"; "/readyz" ]);
    tc "the deadline clamps the replication long-poll" (fun () ->
        let dir = fresh_dir "bxchaos-stream" in
        let t =
          service ~config:{ (journal_config dir) with Service.stream_wait = 5.0 } ()
        in
        Fun.protect
          ~finally:(fun () -> Service.close t)
          (fun () ->
            let t0 = Bx_obs.Clock.now () in
            let r =
              Service.handle_query ~deadline:(t0 +. 0.3) t
                ~query:"from=1&epoch=0&wait=5" ~meth:"GET"
                ~path:"/replication/stream" ~body:""
            in
            let elapsed = Bx_obs.Clock.now () -. t0 in
            check bool "empty poll returned on the budget, not the hold" true
              (elapsed < 2.0);
            check bool "still a success" true (r.Bx_repo.Webui.status < 500)));
    tc "X-Bxwiki-Deadline is anchored when its header line is read" (fun () ->
        let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            Unix.close client;
            Unix.close server)
          (fun () ->
            let first_byte = Bx_obs.Clock.now () in
            write_all client
              "POST /p HTTP/1.1\r\nX-Bxwiki-Deadline: 500\r\n\
               Content-Length: 4\r\n\r\n";
            let body_writer =
              Thread.create
                (fun () ->
                  Thread.delay 0.4;
                  write_all client "body")
                ()
            in
            let r = Httpd.read_request (Httpd.reader_of_fd server) in
            Thread.join body_writer;
            check bool "the body came 0.4 s later" true
              (Bx_obs.Clock.now () -. first_byte >= 0.4);
            match r with
            | Ok { Httpd.deadline = Some d; body = "body"; _ } ->
                let after = d -. first_byte in
                check bool
                  (Printf.sprintf "deadline %.3f s after the first byte, not after the body"
                     after)
                  true (after <= 0.55)
            | _ -> Alcotest.fail "expected the request, with its deadline"));
    tc "a connection queued past queue_deadline is shed unrendered"
      (isolated (fun () ->
           let t =
             service ~config:{ Service.default_config with queue_deadline = 0.2 } ()
           in
           let th, port = serve_thread ~workers:1 t in
           Fun.protect
             ~finally:(fun () ->
               Fault.clear ();
               Service.shutdown t;
               Thread.join th)
             (fun () ->
               let m = Service.metrics t in
               let shed = Metrics.shed_by_reason m "deadline"
               and requests = Metrics.requests_total m in
               (* Wedge the only worker on a render, then queue a second
                  connection behind it for longer than its budget. *)
               Fault.set "service.lock.read" (Fault.Delay 0.6);
               let wedged = connect port in
               Fun.protect
                 ~finally:(fun () -> Unix.close wedged)
                 (fun () ->
                   write_all wedged
                     "GET /examples:celsius.wiki?w=1 HTTP/1.1\r\nHost: x\r\n\
                      Connection: close\r\n\r\n";
                   Thread.delay 0.1;
                   let queued =
                     exchange port
                       "GET /examples:celsius.wiki?w=2 HTTP/1.1\r\nHost: x\r\n\
                        Connection: close\r\n\r\n"
                   in
                   check int "the queued connection gets a 503" 503
                     (status_of queued);
                   check bool "with Retry-After" true
                     (contains ~needle:"Retry-After: " queued);
                   check int "counted as a deadline shed" (shed + 1)
                     (Metrics.shed_by_reason m "deadline");
                   check int "the wedged request is served" 200
                     (status_of (drain wedged));
                   check int "only the wedged request was dispatched"
                     (requests + 1) (Metrics.requests_total m)))));
    tc "an idle keep-alive connection's next request has its own deadline"
      (isolated (fun () ->
           let t =
             service
               ~config:
                 { Service.default_config with queue_deadline = 0.3; brownout = false }
               ()
           in
           let th, port = serve_thread ~workers:1 t in
           Fun.protect
             ~finally:(fun () ->
               Service.shutdown t;
               Thread.join th)
             (fun () ->
               let fd = connect port in
               Fun.protect
                 ~finally:(fun () -> Unix.close fd)
                 (fun () ->
                   let request = "GET /examples:celsius HTTP/1.1\r\nHost: x\r\n\r\n" in
                   write_all fd request;
                   check int "first request" 200 (status_of (read_response fd));
                   (* 1.5 x queue_deadline, well inside read_timeout. *)
                   Thread.delay 0.45;
                   write_all fd request;
                   check int "the request after the idle wait" 200
                     (status_of (read_response fd))))));
  ]

(* ------------------------------------------------------------------ *)
(* 4. Slowloris *)

let slowloris_tests =
  [
    tc "trickled headers are shed on the wall-clock read budget"
      (isolated (fun () ->
           let t =
             service
               ~config:{ Service.default_config with queue_deadline = 0.6 }
               ()
           in
           let th, port = serve_thread t in
           Fun.protect
             ~finally:(fun () ->
               Service.shutdown t;
               Thread.join th)
             (fun () ->
               let fd = connect port in
               Fun.protect
                 ~finally:(fun () -> try Unix.close fd with _ -> ())
                 (fun () ->
                   let req = "GET /examples:celsius HTTP/1.1\r\nHost: x\r\n\r\n" in
                   (* One byte every 80ms defeats any per-recv timeout;
                      only a budget across the whole request catches it. *)
                   (try
                      String.iter
                        (fun c ->
                          if
                            Metrics.shed_by_reason (Service.metrics t)
                              "deadline"
                            = 0
                          then begin
                            write_all fd (String.make 1 c);
                            Thread.delay 0.08
                          end)
                        req
                    with Unix.Unix_error _ -> ());
                   wait_for ~timeout:5.0 (fun () ->
                       Metrics.shed_by_reason (Service.metrics t) "deadline"
                       >= 1)))));
  ]

(* Framing the parser does not implement is refused, and the connection
   closed: a chunked body read as empty would leave its chunks to be
   parsed as the next request. *)
let wire_tests =
  [
    tc "a chunked POST is a 501 that closes the connection"
      (isolated (fun () ->
           let t = service () in
           let th, port = serve_thread ~workers:1 t in
           Fun.protect
             ~finally:(fun () ->
               Service.shutdown t;
               Thread.join th)
             (fun () ->
               let raw =
                 exchange port
                   "POST /examples:celsius HTTP/1.1\r\nHost: x\r\n\
                    Transfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n0\r\n\r\n\
                    GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
               in
               check int "501" 501 (status_of raw);
               check bool "Connection: close" true
                 (contains ~needle:"Connection: close" raw);
               check int "one response, nothing parsed after it" 1
                 (List.length (String.split_on_char '\n' raw
                  |> List.filter (String.starts_with ~prefix:"HTTP/1.1 "))))));
  ]

(* ------------------------------------------------------------------ *)
(* 5. Brownout: AIMD admission + the degraded serve-stale lane *)

let brownout_tests =
  [
    tc "overflow GETs are served stale by the degraded lane"
      (isolated (fun () ->
           let config =
             { Service.default_config with queue_capacity = 2 }
           in
           let t = service ~config () in
           let th, port = serve_thread ~workers:1 t in
           Fun.protect
             ~finally:(fun () ->
               Fault.clear ();
               Service.shutdown t;
               Thread.join th)
             (fun () ->
               check int "warm the cache" 200 (get t page_path).Bx_repo.Webui.status;
               (* Wedge the only worker and fill the whole queue with
                  uncacheable render work. *)
               Fault.set "service.lock.read" (Fault.Delay 3.0);
               let wedge i =
                 let fd = connect port in
                 write_all fd
                   (Printf.sprintf
                      "GET /examples:celsius.wiki?w=%d HTTP/1.1\r\nHost: x\r\n\r\n"
                      i);
                 fd
               in
               let w1 = wedge 1 in
               Thread.delay 0.25;
               let w2 = wedge 2 in
               let w3 = wedge 3 in
               Thread.delay 0.25;
               let raw =
                 let fd = connect port in
                 Fun.protect
                   ~finally:(fun () -> try Unix.close fd with _ -> ())
                   (fun () ->
                     write_all fd
                       "GET /examples:celsius HTTP/1.1\r\nHost: x\r\n\
                        Connection: close\r\n\r\n";
                     drain fd)
               in
               List.iter
                 (fun fd -> try Unix.close fd with _ -> ())
                 [ w1; w2; w3 ];
               check int "stale 200 from the degraded lane" 200 (status_of raw);
               check bool "marked stale" true
                 (contains ~needle:"X-Bxwiki-Stale:" raw);
               check bool "AIMD halved the admission limit" true
                 (Service.concurrency_limit t < config.Service.queue_capacity);
               let served, _ = Metrics.stale_counts (Service.metrics t) in
               check bool "stale counter moved" true (served >= 1);
               check bool "limit gauge exported" true
                 (contains ~needle:"bxwiki_concurrency_limit" (metrics_page t)))));
  ]

(* ------------------------------------------------------------------ *)
(* 6. ENOSPC: sticky read-only degradation *)

let disk_full_tests =
  [
    tc "ENOSPC latches the node read-only until an operator intervenes"
      (isolated (fun () ->
           let dir = fresh_dir "bxchaos-enospc" in
           let t = service ~config:(journal_config dir) () in
           Fun.protect
             ~finally:(fun () -> Service.close t)
             (fun () ->
               let base = page_body t in
               check int "healthy write" 200
                 (post t page_path (edited_body base 1)).Bx_repo.Webui.status;
               Fault.set "journal.append.pre_write" (Fault.Errno Unix.ENOSPC);
               let r = post t page_path (edited_body base 2) in
               check int "the failed append is reported" 500
                 r.Bx_repo.Webui.status;
               check bool "disk-full gauge up" true
                 (contains ~needle:"bxwiki_journal_disk_full 1" (metrics_page t));
               check bool "readiness names the cause" true
                 (List.mem "journal_disk_full" (Service.readiness t));
               let refused = post t page_path (edited_body base 3) in
               check int "writes now refused outright" 503
                 refused.Bx_repo.Webui.status;
               check bool "told read-only" true
                 (contains ~needle:"read-only" refused.Bx_repo.Webui.body);
               Fault.clear ();
               (* The latch is sticky: space "coming back" (the
                  failpoint clearing) must not silently re-enable
                  writes behind the operator's back. *)
               check int "still read-only after the errno clears" 503
                 (post t page_path (edited_body base 4)).Bx_repo.Webui.status;
               check int "reads keep flowing" 200
                 (get t page_path).Bx_repo.Webui.status)));
  ]

(* ------------------------------------------------------------------ *)
(* 7. The jepsen-lite drill *)

let drill () =
  let pdir = fresh_dir "bxchaos-drill-p" and rdir = fresh_dir "bxchaos-drill-r" in
  let lenses = [ ("composers", CS.lens) ] in
  let pconfig =
    { (journal_config pdir) with Service.read_timeout = 1.0; stream_wait = 0.3 }
  in
  let primary =
    match Service.create ~config:pconfig ~lenses ~seed () with
    | Ok t -> t
    | Error e -> Alcotest.failf "primary: %s" e
  in
  let pth, pport = serve_thread ~workers:4 primary in
  let up_proxy = Netchaos.create ~name:"upstream" ~seed:11 ~upstream_port:pport () in
  let cl_proxy = Netchaos.create ~name:"clients" ~seed:12 ~upstream_port:pport () in
  let replica =
    match Service.create ~config:(replica_config rdir) ~lenses ~seed () with
    | Ok t -> t
    | Error e -> Alcotest.failf "replica: %s" e
  in
  let follower =
    Thread.create
      (fun () ->
        Service.follow replica ~host:"" ~port:(Netchaos.port up_proxy)
          ~wait:0.2 ~min_sleep:0.02 ~max_sleep:0.2 ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Service.shutdown replica with _ -> ());
      (try Thread.join follower with _ -> ());
      (try Service.shutdown primary with _ -> ());
      (try Thread.join pth with _ -> ());
      (try Service.close replica with _ -> ());
      (try Netchaos.close up_proxy with _ -> ());
      try Netchaos.close cl_proxy with _ -> ())
    (fun () ->
      let clport = Netchaos.port cl_proxy in
      let post_via_proxy path body =
        match
          Replication.request ~host:"" ~port:clport ~timeout:2.0 ~meth:"POST"
            ~path ~body ()
        with
        | Ok (200, _) -> true
        | Ok _ | Error _ -> false
      in
      let stop_writers = Atomic.make false in
      let acked_page = Atomic.make 0 and acked_doc = Atomic.make 0 in
      (* Each writer advances to edit i+1 only once edit i is acked, so
         at any instant the applied prefix exceeds the acked prefix by
         at most the single in-flight edit — the invariant the final
         revision check leans on. *)
      let writer path body_of acked =
        Thread.create
          (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop_writers) do
              incr i;
              let body = body_of !i in
              let rec attempt () =
                if Atomic.get stop_writers then ()
                else if post_via_proxy path body then Atomic.set acked !i
                else begin
                  Thread.delay 0.08;
                  attempt ()
                end
              in
              attempt ()
            done)
          ()
      in
      let wp =
        writer page_path (fun i -> edited_body (page_body primary) i) acked_page
      in
      let wd =
        writer "/slens/composers/doc/drill"
          (fun i -> CS.synthetic_source (1 + (i mod 4)))
          acked_doc
      in
      (* The seeded schedule: three cycles of latency storm, mid-frame
         resets on both links, then a full partition of the replication
         link — healed each time.  Same seed, same drill. *)
      let rng = Random.State.make [| 0xB10C5 |] in
      for _cycle = 1 to 3 do
        Netchaos.set_toxics up_proxy
          [ (Netchaos.Both, Netchaos.Latency (60., 40.)) ];
        Netchaos.set_toxics cl_proxy
          [ (Netchaos.Both, Netchaos.Latency (20., 15.)) ];
        Thread.delay (0.2 +. Random.State.float rng 0.2);
        Netchaos.set_toxics up_proxy
          [ (Netchaos.Down, Netchaos.Reset (256 + Random.State.int rng 1024)) ];
        Netchaos.set_toxics cl_proxy
          [ (Netchaos.Both, Netchaos.Reset (128 + Random.State.int rng 512)) ];
        Thread.delay (0.15 +. Random.State.float rng 0.15);
        Netchaos.partition up_proxy;
        Thread.delay (0.3 +. Random.State.float rng 0.3);
        Netchaos.heal up_proxy;
        Netchaos.heal cl_proxy;
        Thread.delay (0.15 +. Random.State.float rng 0.1)
      done;
      Netchaos.heal up_proxy;
      Netchaos.heal cl_proxy;
      Atomic.set stop_writers true;
      Thread.join wp;
      Thread.join wd;
      let ap = Atomic.get acked_page and ad = Atomic.get acked_doc in
      check bool "page writes survived the chaos" true (ap >= 3);
      check bool "doc writes survived the chaos" true (ad >= 3);
      let conns, _, _ = Netchaos.stats up_proxy in
      check bool "the follower reconnected through the chaos" true (conns >= 2);
      (* Anti-entropy + the stream catch the replica back up once the
         network heals; content digests are the convergence witness. *)
      wait_for ~timeout:30.0 (fun () ->
          Service.shard_digests primary = Service.shard_digests replica);
      wait_for ~timeout:10.0 (fun () -> page_rev primary = page_rev replica);
      let prev = page_rev primary in
      check bool "no acked page write lost" true (prev >= ap);
      check int "replica converged to the primary's revision" prev
        (page_rev replica);
      let doc t = get t "/slens/composers/doc/drill" in
      check int "primary holds the drill doc" 200 (doc primary).Bx_repo.Webui.status;
      check string "replica holds the identical doc"
        (doc primary).Bx_repo.Webui.body (doc replica).Bx_repo.Webui.body;
      let _, findings = Service.scrub_once primary in
      check int "lens laws hold after the drill" 0 (List.length findings))

let drill_tests = [ tc "jepsen-lite: partitions, storms and resets" (isolated drill) ]

let () =
  Alcotest.run "bx chaos"
    [
      ("spec", spec_tests @ [ QCheck_alcotest.to_alcotest spec_roundtrip ]);
      ("transparency", transparency_tests);
      ("deadline", deadline_tests);
      ("slowloris", slowloris_tests);
      ("wire", wire_tests);
      ("brownout", brownout_tests);
      ("disk-full", disk_full_tests);
      ("drill", drill_tests);
    ]
