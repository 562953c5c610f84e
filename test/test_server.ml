(* The server subsystem (bx_server): the hardened HTTP parser, the
   write-ahead journal's durability story, the concurrent service, the
   metrics exposition, and the atomic Store snapshots they rely on. *)

open Bx_server

let check = Alcotest.check
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

let service ?(config = Service.default_config) () =
  match Service.create ~config ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config dir =
  (* Automatic compaction off so the tests control exactly what is in
     the log versus the snapshot. *)
  { Service.default_config with journal_dir = Some dir; compact_every = 0 }

let get t path = Service.handle t ~meth:"GET" ~path ~body:""
let post t path body = Service.handle t ~meth:"POST" ~path ~body

let edit_page t path ~replace:(needle, replacement) =
  let page = get t (path ^ ".wiki") in
  check Alcotest.int ("GET " ^ path) 200 page.Bx_repo.Webui.status;
  let body =
    Str.global_replace (Str.regexp_string needle) replacement
      page.Bx_repo.Webui.body
  in
  let saved = post t path body in
  check Alcotest.int ("POST " ^ path) 200 saved.Bx_repo.Webui.status

let sorted_export t =
  Service.with_registry t (fun reg ->
      List.sort compare (Bx_repo.Registry.export reg))

(* ------------------------------------------------------------------ *)
(* Httpd: the hardened parser (Content-Length regression tests) *)

let parse ?max_body s = Httpd.read_request ?max_body (Httpd.reader_of_string s)

let bad_status = function
  | Error (`Bad e) -> Some e.Httpd.status
  | _ -> None

let httpd_tests =
  [
    tc "plain GET parses, keep-alive by default" (fun () ->
        match parse "GET /examples:composers HTTP/1.1\r\nHost: x\r\n\r\n" with
        | Ok r ->
            check Alcotest.string "meth" "GET" r.Httpd.meth;
            check Alcotest.string "path" "/examples:composers" r.Httpd.path;
            check Alcotest.bool "keep-alive" true r.Httpd.keep_alive
        | _ -> Alcotest.fail "expected Ok");
    tc "query string is stripped" (fun () ->
        match parse "GET /a?b=c HTTP/1.1\r\n\r\n" with
        | Ok r -> check Alcotest.string "path" "/a" r.Httpd.path
        | _ -> Alcotest.fail "expected Ok");
    tc "POST body is read to Content-Length exactly" (fun () ->
        match
          parse "POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloTRAILING"
        with
        | Ok r -> check Alcotest.string "body" "hello" r.Httpd.body
        | _ -> Alcotest.fail "expected Ok");
    (* The seed server fed any parsed value straight to
       really_input_string; negative and absurd lengths must be wire
       errors now. *)
    tc "negative Content-Length is a 400" (fun () ->
        check
          Alcotest.(option int)
          "status" (Some 400)
          (bad_status (parse "POST /p HTTP/1.1\r\nContent-Length: -5\r\n\r\n")));
    tc "unparseable Content-Length is a 400" (fun () ->
        check
          Alcotest.(option int)
          "status" (Some 400)
          (bad_status (parse "POST /p HTTP/1.1\r\nContent-Length: ten\r\n\r\n"));
        (* overflows int_of_string too *)
        check
          Alcotest.(option int)
          "status" (Some 400)
          (bad_status
             (parse
                "POST /p HTTP/1.1\r\nContent-Length: \
                 99999999999999999999999\r\n\r\n")));
    tc "absurd Content-Length is a 413" (fun () ->
        check
          Alcotest.(option int)
          "status" (Some 413)
          (bad_status
             (parse "POST /p HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"));
        check
          Alcotest.(option int)
          "status" (Some 413)
          (bad_status
             (parse ~max_body:10
                "POST /p HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello hello")));
    tc "truncated body is a 400, not a hang" (fun () ->
        check
          Alcotest.(option int)
          "status" (Some 400)
          (bad_status (parse "POST /p HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")));
    tc "Connection: close and HTTP/1.0 disable keep-alive" (fun () ->
        (match parse "GET / HTTP/1.1\r\nConnection: close\r\n\r\n" with
        | Ok r -> check Alcotest.bool "close" false r.Httpd.keep_alive
        | _ -> Alcotest.fail "expected Ok");
        match parse "GET / HTTP/1.0\r\n\r\n" with
        | Ok r -> check Alcotest.bool "1.0" false r.Httpd.keep_alive
        | _ -> Alcotest.fail "expected Ok");
    tc "malformed request line is a 400" (fun () ->
        check
          Alcotest.(option int)
          "status" (Some 400)
          (bad_status (parse "NONSENSE\r\n\r\n")));
    tc "empty stream is Eof (normal keep-alive end)" (fun () ->
        match parse "" with
        | Error `Eof -> ()
        | _ -> Alcotest.fail "expected Eof");
  ]

(* ------------------------------------------------------------------ *)
(* Journal: append/replay round trip, torn tails, checkpoints *)

let journal_tests =
  [
    tc "replay rebuilds a byte-identical registry export" (fun () ->
        let dir = fresh_dir "bxj-roundtrip" in
        let t = service ~config:(journal_config dir) () in
        edit_page t "/examples:celsius"
          ~replace:("temperature", "TEMPERATURE");
        edit_page t "/examples:composers" ~replace:("Composers", "COMPOSERS");
        edit_page t "/examples:celsius" ~replace:("Fahrenheit", "FAHRENHEIT");
        let before = sorted_export t in
        Service.close t;
        let t' = service ~config:(journal_config dir) () in
        check Alcotest.(pair int int) "replay stats" (3, 0)
          (Service.replay_stats t');
        check
          Alcotest.(list (pair string string))
          "byte-identical export" before (sorted_export t');
        Service.close t');
    tc "checkpoint empties the log and replay does not double-apply"
      (fun () ->
        let dir = fresh_dir "bxj-checkpoint" in
        let t = service ~config:(journal_config dir) () in
        edit_page t "/examples:celsius" ~replace:("temperature", "T1");
        (match Service.checkpoint t with
        | Ok files -> check Alcotest.bool "files written" true (files > 0)
        | Error e -> Alcotest.failf "checkpoint: %s" e);
        edit_page t "/examples:celsius" ~replace:("thermometer", "T2");
        let before = sorted_export t in
        Service.close t;
        let t' = service ~config:(journal_config dir) () in
        (* Only the post-checkpoint edit replays; the first lives in the
           snapshot (its sequence number is at or below the MANIFEST's). *)
        check Alcotest.(pair int int) "replay stats" (1, 0)
          (Service.replay_stats t');
        check
          Alcotest.(list (pair string string))
          "byte-identical export" before (sorted_export t');
        Service.close t');
    tc "a torn tail (kill -9 mid-append) is truncated, not fatal" (fun () ->
        let dir = fresh_dir "bxj-torn" in
        let t = service ~config:(journal_config dir) () in
        edit_page t "/examples:celsius" ~replace:("temperature", "KEPT");
        let before = sorted_export t in
        Service.close t;
        (* Simulate the partial record a crash mid-write leaves. *)
        let oc =
          open_out_gen [ Open_append ] 0o644 (Journal.log_file dir)
        in
        output_string oc "bxj1 2 17 40000 deadbeef";
        close_out oc;
        let t' = service ~config:(journal_config dir) () in
        check Alcotest.(pair int int) "only intact records replay" (1, 0)
          (Service.replay_stats t');
        check
          Alcotest.(list (pair string string))
          "state is the last intact state" before (sorted_export t');
        (* The torn bytes were truncated away: appending still works. *)
        edit_page t' "/examples:celsius" ~replace:("KEPT", "KEPT-AGAIN");
        let after = sorted_export t' in
        Service.close t';
        let t'' = service ~config:(journal_config dir) () in
        check Alcotest.(pair int int) "both edits replay" (2, 0)
          (Service.replay_stats t'');
        check
          Alcotest.(list (pair string string))
          "export after torn-tail recovery" after (sorted_export t'');
        Service.close t'');
    tc "record encoding survives newlines and wiki markup in bodies"
      (fun () ->
        let dir = fresh_dir "bxj-encoding" in
        (match Journal.open_ ~dir ~next_seq:1 with
        | Error e -> Alcotest.failf "open: %s" e
        | Ok j ->
            let body = "+ Title\n\n++ Overview\n\nbxj1 9 9 9 fake\nline\n" in
            (match Journal.append j ~path:"/p" ~body with
            | Ok seq -> check Alcotest.int "seq" 1 seq
            | Error e -> Alcotest.failf "append: %s" e);
            Journal.close j);
        match Journal.read ~dir with
        | Ok { entries = [ r ]; torn = false; _ } ->
            check Alcotest.string "path" "/p" r.Journal.path;
            check Alcotest.bool "body intact" true
              (contains ~needle:"bxj1 9 9 9 fake" r.Journal.body)
        | Ok _ -> Alcotest.fail "expected exactly one intact record"
        | Error e -> Alcotest.failf "read: %s" e);
  ]

(* ------------------------------------------------------------------ *)
(* Service: the 8-writer / 32-reader storm *)

let storm_tests =
  [
    tc "40 threads through the service: no drops, no corruption" (fun () ->
        let dir = fresh_dir "bxj-storm" in
        let t = service ~config:(journal_config dir) () in
        let ids = Service.with_registry t Bx_repo.Registry.ids in
        let paths =
          List.filteri (fun i _ -> i < 8) ids
          |> List.map (fun id -> "/" ^ Bx_repo.Identifier.wiki_path id)
        in
        check Alcotest.int "eight victim entries" 8 (List.length paths);
        let writes_each = 5 and reads_each = 20 in
        let failures = Atomic.make 0 in
        let note_failure () = Atomic.incr failures in
        let writer path =
          Thread.create
            (fun () ->
              for _ = 1 to writes_each do
                let page = get t (path ^ ".wiki") in
                if page.Bx_repo.Webui.status <> 200 then note_failure ()
                else
                  let saved = post t path page.Bx_repo.Webui.body in
                  if saved.Bx_repo.Webui.status <> 200 then note_failure ()
              done)
            ()
        in
        let reader i =
          Thread.create
            (fun () ->
              let path = List.nth paths (i mod 8) in
              for j = 1 to reads_each do
                let p =
                  match j mod 3 with
                  | 0 -> "/"
                  | 1 -> path
                  | _ -> path ^ ".json"
                in
                let r = get t p in
                if r.Bx_repo.Webui.status <> 200 then note_failure ()
                else if
                  String.length r.Bx_repo.Webui.body = 0
                  (* a torn read would surface as an empty or truncated
                     render *)
                then note_failure ()
              done)
            ()
        in
        let writers = List.map writer paths in
        let readers = List.init 32 reader in
        List.iter Thread.join (writers @ readers);
        check Alcotest.int "no failed requests" 0 (Atomic.get failures);
        (* Every write landed: each victim entry gained exactly
           writes_each versions (writes to one entry serialise under the
           write lock, each bumping the latest version). *)
        Service.with_registry t (fun reg ->
            List.iteri
              (fun i id ->
                if i < 8 then
                  match Bx_repo.Registry.versions reg id with
                  | Ok versions ->
                      check Alcotest.int
                        ("versions of " ^ Bx_repo.Identifier.to_string id)
                        (1 + writes_each) (List.length versions)
                  | Error e ->
                      Alcotest.failf "versions: %s"
                        (Bx_repo.Registry.error_message e))
              ids);
        (* The metrics agree with what we issued: every GET and POST was
           observed exactly once. *)
        let issued =
          (8 * writes_each * 2) (* writer GET + POST *)
          + (32 * reads_each)
        in
        check Alcotest.int "metrics request count" issued
          (Metrics.requests_total (Service.metrics t));
        check Alcotest.int "no errors" 0
          (Metrics.errors_total (Service.metrics t));
        (* And the whole storm is durable. *)
        let before = sorted_export t in
        Service.close t;
        let t' = service ~config:(journal_config dir) () in
        check Alcotest.(pair int int) "all 40 writes replay" (40, 0)
          (Service.replay_stats t');
        check
          Alcotest.(list (pair string string))
          "storm is durable" before (sorted_export t');
        Service.close t');
  ]

(* ------------------------------------------------------------------ *)
(* Metrics and the response cache *)

(* The duration histogram series of one exposition, per route: bucket
   counts non-decreasing, ending at [+Inf] equal to [_count]. *)
let hist_consistent body =
  let prefix = "bxwiki_request_duration_seconds_" in
  let rows = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let pl = String.length prefix in
      if String.length line > pl && String.sub line 0 pl = prefix then
        match String.split_on_char ' ' line with
        | [ key; v ] ->
            let route = List.nth (String.split_on_char '"' key) 1 in
            let kind = List.hd (String.split_on_char '{' key) in
            Hashtbl.replace rows route
              ((kind, int_of_float (float_of_string v))
              :: Option.value ~default:[] (Hashtbl.find_opt rows route))
        | _ -> ())
    (String.split_on_char '\n' body);
  Hashtbl.fold
    (fun _ series ok ->
      let series = List.rev series in
      let buckets =
        List.filter_map
          (fun (k, v) -> if k = prefix ^ "bucket" then Some v else None)
          series
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      ok && monotone buckets
      && List.length buckets = 15
      && Some (List.nth buckets 14) = List.assoc_opt (prefix ^ "count") series)
    rows true

let metrics_tests =
  [
    tc "/metrics exposes counters, histograms and cache stats" (fun () ->
        let t = service () in
        ignore (get t "/");
        ignore (get t "/examples:composers");
        ignore (get t "/examples:composers");
        ignore (get t "/nonesuch");
        let m = get t "/metrics" in
        check Alcotest.int "metrics is 200" 200 m.Bx_repo.Webui.status;
        check Alcotest.string "content type"
          "text/plain; version=0.0.4; charset=utf-8"
          m.Bx_repo.Webui.content_type;
        let body = m.Bx_repo.Webui.body in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true (contains ~needle body))
          [
            "# TYPE bxwiki_requests_total counter";
            "bxwiki_requests_total{route=\"index\",method=\"GET\",status=\"200\"} 1";
            "bxwiki_requests_total{route=\"entry\",method=\"GET\",status=\"200\"} 2";
            "bxwiki_requests_total{route=\"entry\",method=\"GET\",status=\"404\"} 1";
            "bxwiki_http_errors_total{route=\"entry\",reason=\"status_404\"} 1";
            "# TYPE bxwiki_request_duration_seconds histogram";
            "bxwiki_request_duration_seconds_bucket{route=\"entry\",le=\"+Inf\"} 3";
            "bxwiki_request_duration_seconds_count{route=\"index\"} 1";
            "bxwiki_cache_hits_total 1";
          ]);
    tc "the response cache hits on repeat, invalidates on write" (fun () ->
        let t = service () in
        ignore (get t "/examples:celsius");
        ignore (get t "/examples:celsius");
        let hits, misses = Metrics.cache_counts (Service.metrics t) in
        check Alcotest.int "one hit" 1 hits;
        check Alcotest.int "one miss" 1 misses;
        let gen_before = Service.generation t in
        edit_page t "/examples:celsius" ~replace:("temperature", "heat");
        check Alcotest.bool "write bumps generation" true
          (Service.generation t > gen_before);
        let r = get t "/examples:celsius" in
        (* Served fresh (a miss), and the fresh render shows the edit. *)
        check Alcotest.bool "fresh render after write" true
          (contains ~needle:"heat" r.Bx_repo.Webui.body));
    tc "405 for unsupported methods, counted as an error" (fun () ->
        let t = service () in
        let r = Service.handle t ~meth:"DELETE" ~path:"/" ~body:"" in
        check Alcotest.int "405" 405 r.Bx_repo.Webui.status;
        check Alcotest.int "error counted" 1
          (Metrics.errors_total (Service.metrics t)));
    tc "4 domains record while a fifth renders: exact, monotone" (fun () ->
        let m = Metrics.create () in
        let n = 10_000 and routes = [| "entry"; "index"; "search" |] in
        let stop = Atomic.make false in
        (* Every render's buckets must be non-decreasing and end at the
           route's _count, even mid-recording; returns the bad scrapes. *)
        let scraper =
          Domain.spawn (fun () ->
              let bad = ref 0 in
              while not (Atomic.get stop) do
                if not (hist_consistent (Metrics.render m)) then incr bad
              done;
              !bad)
        in
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to n do
                  Metrics.observe_request m ~route:routes.(i mod 3) ~meth:"GET"
                    ~status:(if i mod 10 = 0 then 404 else 200)
                    ~seconds:(float_of_int (i mod 997) *. 1e-5);
                  Metrics.shed m
                    ~reason:(if d mod 2 = 0 then "queue_full" else "deadline");
                  Metrics.cache_hit m
                done))
        |> List.iter Domain.join;
        Atomic.set stop true;
        check Alcotest.int "no inconsistent scrape" 0 (Domain.join scraper);
        check Alcotest.int "requests" (4 * n) (Metrics.requests_total m);
        check Alcotest.int "errors" (4 * n / 10) (Metrics.errors_total m);
        check Alcotest.(pair int int) "cache" (4 * n, 0) (Metrics.cache_counts m);
        check Alcotest.int "shed queue_full" (2 * n)
          (Metrics.shed_by_reason m "queue_full");
        check Alcotest.int "shed deadline" (2 * n)
          (Metrics.shed_by_reason m "deadline");
        let body = Metrics.render m in
        check Alcotest.bool "final scrape consistent" true (hist_consistent body);
        Array.iteri
          (fun k route ->
            let per_domain = (n / 3) + if k >= 1 && k <= n mod 3 then 1 else 0 in
            check Alcotest.bool (route ^ " _count exact") true
              (contains body
                 ~needle:
                   (Printf.sprintf
                      "bxwiki_request_duration_seconds_count{route=%S} %d\n"
                      route (4 * per_domain))))
          routes);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"Hist.count_le is the naive count, up to one slot above"
         QCheck2.Gen.(
           pair
             (array_size (0 -- 300) (oneof [ 0 -- 300; 0 -- 1_000_000_000 ]))
             (oneof [ 0 -- 300; 0 -- 1_000_000_000 ]))
         (fun (values, v) ->
           let h = Bx_obs.Hist.create () in
           Array.iter (Bx_obs.Hist.record h) values;
           let naive b = Array.fold_left (fun n x -> if x <= b then n + 1 else n) 0 values in
           let c = Bx_obs.Hist.count_le h v in
           naive v <= c && c <= naive (v + (v / Bx_obs.Hist.sub_buckets h))));
  ]

(* ------------------------------------------------------------------ *)
(* Store: atomic snapshots *)

let store_tests =
  [
    tc "save leaves no temp files behind" (fun () ->
        let dir = fresh_dir "bxstore-atomic" in
        (match Bx_repo.Store.save ~dir (seed ()) with
        | Ok n -> check Alcotest.bool "files written" true (n > 0)
        | Error e -> Alcotest.failf "save: %s" e);
        let leftovers =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".tmp")
        in
        check Alcotest.(list string) "no .tmp leftovers" [] leftovers);
    tc "a failing write surfaces the path in the error" (fun () ->
        let dir = fresh_dir "bxstore-fail" in
        (* Occupy one of the target file names with a directory: the
           rename over it must fail, and the error must say where. *)
        let victim = Bx_repo.Store.page_filename "examples:celsius/0.1" in
        Unix.mkdir (Filename.concat dir victim) 0o755;
        match Bx_repo.Store.save ~dir (seed ()) with
        | Ok _ -> Alcotest.fail "expected save to fail"
        | Error e ->
            check Alcotest.bool
              (Printf.sprintf "error %S names %s" e victim)
              true
              (contains ~needle:victim e));
  ]

(* ------------------------------------------------------------------ *)
(* The lens service: POST /slens/<name>/<op> *)

let lens_tests =
  let module CS = Bx_catalogue.Composers_string in
  let rs = "\x1e" and us = "\x1f" in
  let lens_service () =
    match
      Service.create
        ~lenses:[ ("composers", CS.lens) ]
        ~seed ()
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  [
    tc "get and put run the lens over the body" (fun () ->
        let t = lens_service () in
        let src = CS.synthetic_source 3 in
        let r = post t "/slens/composers/get" src in
        check Alcotest.int "get status" 200 r.Bx_repo.Webui.status;
        check Alcotest.string "get body" (CS.lens.Bx_strlens.Slens.get src)
          r.Bx_repo.Webui.body;
        let view = CS.synthetic_view 3 in
        let r = post t "/slens/composers/put" (view ^ rs ^ src) in
        check Alcotest.int "put status" 200 r.Bx_repo.Webui.status;
        check Alcotest.string "put body"
          (CS.lens.Bx_strlens.Slens.put view src)
          r.Bx_repo.Webui.body);
    tc "batch ops fan over RS-separated documents" (fun () ->
        let t = lens_service () in
        let docs = List.init 4 (fun i -> CS.synthetic_source (i + 1)) in
        let r =
          post t "/slens/composers/get_batch" (String.concat rs docs)
        in
        check Alcotest.int "get_batch status" 200 r.Bx_repo.Webui.status;
        check Alcotest.string "get_batch body"
          (String.concat rs (List.map CS.lens.Bx_strlens.Slens.get docs))
          r.Bx_repo.Webui.body;
        let pairs =
          List.init 3 (fun i ->
              (CS.synthetic_view (i + 1), CS.synthetic_source (i + 1)))
        in
        let body =
          String.concat rs (List.map (fun (v, s) -> v ^ us ^ s) pairs)
        in
        let r = post t "/slens/composers/put_batch" body in
        check Alcotest.int "put_batch status" 200 r.Bx_repo.Webui.status;
        check Alcotest.string "put_batch body"
          (String.concat rs
             (List.map
                (fun (v, s) -> CS.lens.Bx_strlens.Slens.put v s)
                pairs))
          r.Bx_repo.Webui.body);
    tc "unknown lenses, ops and malformed bodies are client errors"
      (fun () ->
        let t = lens_service () in
        let r = post t "/slens/nonesuch/get" "" in
        check Alcotest.int "unknown lens" 404 r.Bx_repo.Webui.status;
        let r = post t "/slens/composers/frobnicate" "" in
        check Alcotest.int "unknown op" 404 r.Bx_repo.Webui.status;
        let r = post t "/slens/composers/put" "no separator here" in
        check Alcotest.int "malformed put" 400 r.Bx_repo.Webui.status;
        let r =
          post t "/slens/composers/put_batch"
            (CS.synthetic_view 1 ^ us ^ CS.synthetic_source 1 ^ rs
           ^ "no unit separator here")
        in
        check Alcotest.int "put_batch record without US" 400
          r.Bx_repo.Webui.status);
    tc "ill-typed documents are 422, not 500" (fun () ->
        let t = lens_service () in
        let bad = "not a composers file at all" in
        let r = post t "/slens/composers/get" bad in
        check Alcotest.int "422" 422 r.Bx_repo.Webui.status;
        check Alcotest.bool "message mentions the type" true
          (String.length r.Bx_repo.Webui.body > 0);
        (* One bad document fails the whole batch: no partial body. *)
        let good i = CS.synthetic_source (i + 1) in
        let r =
          post t "/slens/composers/get_batch"
            (String.concat rs [ good 0; good 1; bad; good 2 ])
        in
        check Alcotest.int "get_batch with one ill-typed doc" 422
          r.Bx_repo.Webui.status;
        check Alcotest.bool "no partial get_batch body" false
          (contains ~needle:(CS.lens.Bx_strlens.Slens.get (good 0))
             r.Bx_repo.Webui.body);
        let r =
          post t "/slens/composers/put_batch"
            (String.concat rs
               [ CS.synthetic_view 1 ^ us ^ good 0; CS.synthetic_view 1 ^ us ^ bad ])
        in
        check Alcotest.int "put_batch with an ill-typed source" 422
          r.Bx_repo.Webui.status);
    tc "batches run on the serving domain, never a spawned one" (fun () ->
        let t = lens_service () in
        let docs = List.init 8 (fun _ -> CS.synthetic_source 200) in
        let view = CS.synthetic_view 200 in
        let get_body = String.concat rs docs in
        let put_body =
          String.concat rs (List.map (fun s -> view ^ us ^ s) docs)
        in
        (* The warm-up leaves this domain's execution context allocated;
           every later run reuses it unless a helper domain, which must
           allocate its own, takes part. *)
        ignore (post t "/slens/composers/get" (List.hd docs));
        let fresh () = (Bx_strlens.Slens.stats ()).ctx_fresh in
        let before = fresh () in
        for _ = 1 to 10 do
          check Alcotest.int "get_batch" 200
            (post t "/slens/composers/get_batch" get_body).Bx_repo.Webui.status;
          check Alcotest.int "put_batch" 200
            (post t "/slens/composers/put_batch" put_body).Bx_repo.Webui.status
        done;
        check Alcotest.int "no fresh execution contexts" before (fresh ()));
    tc "lens traffic and engine counters reach /metrics" (fun () ->
        let t = lens_service () in
        let src = CS.synthetic_source 2 in
        ignore (post t "/slens/composers/get" src);
        ignore (post t "/slens/composers/get" src);
        let m = get t "/metrics" in
        let body = m.Bx_repo.Webui.body in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true (contains ~needle body))
          [
            "# TYPE bxwiki_lens_requests_total counter";
            "bxwiki_lens_requests_total{lens=\"composers\",op=\"get\"} 2";
            "bxwiki_lens_documents_total{lens=\"composers\",op=\"get\"} 2";
            "bxwiki_slens_bytes_processed_total";
            "bxwiki_slens_splits_total";
            "bxwiki_slens_ctx_reuse_total";
            "bxwiki_slens_ctx_fresh_total";
            "bxwiki_requests_total{route=\"slens\",method=\"POST\",status=\"200\"} 2";
          ]);
    tc "edge-case batch and put bodies answer as before" (fun () ->
        let t = lens_service () in
        let answer path body =
          let r = post t path body in
          (r.Bx_repo.Webui.status, r.Bx_repo.Webui.body)
        in
        let pair = Alcotest.(pair int string) in
        let doc = CS.synthetic_source 2 in
        check pair "empty get_batch" (200, "") (answer "/slens/composers/get_batch" "");
        check pair "empty put_batch" (200, "") (answer "/slens/composers/put_batch" "");
        check pair "a trailing RS is an empty last document"
          (200, CS.lens.Bx_strlens.Slens.get doc ^ rs)
          (answer "/slens/composers/get_batch" (doc ^ rs));
        let malformed = (400, "put_batch records must be <view> US (0x1f) <source>\n") in
        check pair "an empty last put_batch record has no US" malformed
          (answer "/slens/composers/put_batch" (CS.synthetic_view 2 ^ us ^ doc ^ rs));
        let processed () = (Bx_strlens.Slens.stats ()).Bx_strlens.Slens.bytes in
        let before = processed () in
        check pair "one record without US among valid ones" malformed
          (answer "/slens/composers/put_batch"
             (String.concat rs
                [ CS.synthetic_view 2 ^ us ^ doc; CS.synthetic_view 2 ^ doc; CS.synthetic_view 2 ^ us ^ doc ]));
        check Alcotest.int "no record ran" before (processed ());
        let m = get t "/metrics" in
        check Alcotest.bool "bytes processed unmoved" true
          (contains
             ~needle:(Printf.sprintf "bxwiki_slens_bytes_processed_total %d\n" before)
             m.Bx_repo.Webui.body);
        let bad = "Jean Sibelius, 1865, Finnish\n" in
        let single = answer "/slens/composers/get" bad in
        check Alcotest.int "ill-typed get" 422 (fst single);
        check pair "an ill-typed second document fails get_batch as get does" single
          (answer "/slens/composers/get_batch" (String.concat rs [ doc; bad; doc ]));
        check pair "a put body without RS"
          (400, "put body must be <view> RS (0x1e) <source>\n")
          (answer "/slens/composers/put" (CS.synthetic_view 2 ^ us ^ doc)));
    tc "a lens whose get and put were replaced serves every route through them"
      (fun () ->
        (* A tracer wraps a lens's string functions with a record update;
           the slice paths of the batch and put routes must not bypass
           the wrappers. *)
        let gets = ref 0 and puts = ref 0 in
        let l = CS.lens in
        let wrapped =
          {
            l with
            Bx_strlens.Slens.get = (fun s -> incr gets; l.Bx_strlens.Slens.get s);
            put = (fun v s -> incr puts; l.Bx_strlens.Slens.put v s);
          }
        in
        let t =
          match Service.create ~lenses:[ ("composers", wrapped) ] ~seed () with
          | Ok t -> t
          | Error e -> Alcotest.fail e
        in
        let src = CS.synthetic_source 3 and view = CS.synthetic_view 3 in
        let expect path body want =
          let r = post t path body in
          check Alcotest.int path 200 r.Bx_repo.Webui.status;
          check Alcotest.string path want r.Bx_repo.Webui.body
        in
        expect "/slens/composers/get" src (l.get src);
        expect "/slens/composers/get_batch" (src ^ rs ^ src) (l.get src ^ rs ^ l.get src);
        expect "/slens/composers/put" (view ^ rs ^ src) (l.put view src);
        expect "/slens/composers/put_batch" (view ^ us ^ src) (l.put view src);
        check Alcotest.(pair int int) "wrapped calls" (3, 2) (!gets, !puts));
    tc "one 1000-record put advances the GC minor-words series" (fun () ->
        let t = lens_service () in
        (* The runtime counts a domain's minor words at its minor
           collections; one forced after the put brings them in. *)
        let minor_words () =
          let body = (get t "/metrics").Bx_repo.Webui.body in
          let prefix = "bxwiki_gc_words_total{kind=\"minor\"} " in
          match
            List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body)
          with
          | Some line ->
              let n = String.length prefix in
              float_of_string (String.sub line n (String.length line - n))
          | None -> Alcotest.fail "no minor-words series"
        in
        let body = CS.synthetic_view 1000 ^ rs ^ CS.synthetic_source 1000 in
        Gc.minor ();
        let before = minor_words () in
        check Alcotest.int "put" 200 (post t "/slens/composers/put" body).Bx_repo.Webui.status;
        Gc.minor ();
        let after = minor_words () in
        if after -. before < 10_000. then
          Alcotest.failf "minor words went from %.0f to %.0f" before after);
  ]

let () =
  Alcotest.run "bx_server"
    [
      ("httpd", httpd_tests);
      ("journal", journal_tests);
      ("storm", storm_tests);
      ("metrics", metrics_tests);
      ("store", store_tests);
      ("lens-service", lens_tests);
    ]
