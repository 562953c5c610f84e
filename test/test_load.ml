(* The load subsystem (bx_load): histogram quantiles against exact
   sorted-array quantiles, merge laws, open-loop schedules, the
   generated corpus, failure accounting of the client domains,
   response-cache sharding, and one in-process end-to-end loadgen run
   against a live socket server. *)

open Bx_load

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Histograms *)

let exact_quantile values q =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let hist_of values =
  let h = Hist.create () in
  Array.iter (Hist.record h) values;
  h

let hist_unit_tests =
  [
    tc "empty histogram reports zeros" (fun () ->
        let h = Hist.create () in
        check Alcotest.int "total" 0 (Hist.total h);
        check Alcotest.int "q50" 0 (Hist.quantile h 0.5);
        check Alcotest.int "max" 0 (Hist.max_value h);
        check Alcotest.int "min" 0 (Hist.min_value h));
    tc "values below 2^sub_bits are exact" (fun () ->
        let h = hist_of (Array.init 100 (fun i -> i)) in
        List.iter
          (fun q ->
            check Alcotest.int
              (Printf.sprintf "q%.2f" q)
              (exact_quantile (Array.init 100 (fun i -> i)) q)
              (Hist.quantile h q))
          [ 0.01; 0.5; 0.9; 0.99; 1.0 ]);
    tc "max and min are exact whatever the buckets" (fun () ->
        let h = hist_of [| 3; 141_592; 65; 35_897 |] in
        check Alcotest.int "max" 141_592 (Hist.max_value h);
        check Alcotest.int "min" 3 (Hist.min_value h);
        check Alcotest.int "total" 4 (Hist.total h));
    tc "quantile never exceeds the recorded max" (fun () ->
        let h = hist_of [| 1_000_000 |] in
        check Alcotest.int "q999 clamps" 1_000_000 (Hist.quantile h 0.999));
    tc "negative values clamp to zero" (fun () ->
        let h = hist_of [| -5 |] in
        check Alcotest.int "min" 0 (Hist.min_value h);
        check Alcotest.int "q50" 0 (Hist.quantile h 0.5));
    tc "merge refuses mismatched sub_bits" (fun () ->
        let a = Hist.create ~sub_bits:7 () in
        let b = Hist.create ~sub_bits:8 () in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "Hist.merge: sub_bits differ") (fun () ->
            ignore (Hist.merge a b)));
  ]

(* Latency-shaped values: mostly small, a heavy tail, up to ~17 minutes
   in microseconds. *)
let gen_values =
  QCheck2.Gen.(
    array_size (1 -- 400)
      (oneof [ 0 -- 1000; 0 -- 100_000; 0 -- 1_000_000_000 ]))

let hist_qcheck_tests =
  let mk name gen prop =
    QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen prop)
  in
  [
    (* The defining guarantee: a bucketed quantile is an upper bound on
       the exact quantile, overshooting by at most one bucket width —
       which is at most exact / sub_buckets (and 1 in the exact
       levels). *)
    mk "bucketed quantiles track exact quantiles"
      QCheck2.Gen.(pair gen_values (oneofl [ 0.5; 0.9; 0.99; 0.999; 1.0 ]))
      (fun (values, q) ->
        let h = hist_of values in
        let exact = exact_quantile values q in
        let est = Hist.quantile h q in
        est >= exact && est <= exact + max 1 (exact / Hist.sub_buckets h));
    mk "merge is associative and commutative"
      QCheck2.Gen.(triple gen_values gen_values gen_values)
      (fun (a, b, c) ->
        let ha = hist_of a and hb = hist_of b and hc = hist_of c in
        let left = Hist.merge (Hist.merge ha hb) hc in
        let right = Hist.merge ha (Hist.merge hb hc) in
        let flipped = Hist.merge hc (Hist.merge hb ha) in
        let same x y =
          Hist.total x = Hist.total y
          && Hist.max_value x = Hist.max_value y
          && Hist.min_value x = Hist.min_value y
          && List.for_all
               (fun q -> Hist.quantile x q = Hist.quantile y q)
               [ 0.1; 0.5; 0.9; 0.99; 0.999 ]
        in
        same left right && same left flipped);
    mk "merge equals recording the concatenation"
      QCheck2.Gen.(pair gen_values gen_values)
      (fun (a, b) ->
        let merged = Hist.merge (hist_of a) (hist_of b) in
        let whole = hist_of (Array.append a b) in
        Hist.total merged = Hist.total whole
        && List.for_all
             (fun q -> Hist.quantile merged q = Hist.quantile whole q)
             [ 0.5; 0.99 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Arrival schedules *)

let arrival_tests =
  [
    tc "constant pacing spaces arrivals evenly" (fun () ->
        let offs = Arrival.schedule Constant ~rate:100. ~seed:0L ~count:10 in
        check (Alcotest.float 1e-9) "first" 0. offs.(0);
        check (Alcotest.float 1e-9) "last" 0.09 offs.(9));
    tc "poisson pacing is deterministic in the seed" (fun () ->
        let a = Arrival.schedule Poisson ~rate:50. ~seed:42L ~count:200 in
        let b = Arrival.schedule Poisson ~rate:50. ~seed:42L ~count:200 in
        check (Alcotest.array (Alcotest.float 0.)) "same seed" a b;
        let c = Arrival.schedule Poisson ~rate:50. ~seed:43L ~count:200 in
        Alcotest.(check bool) "different seed differs" false (a = c));
    tc "poisson arrivals are ordered with the right mean gap" (fun () ->
        let rate = 1000. and count = 20_000 in
        let offs = Arrival.schedule Poisson ~rate ~seed:7L ~count in
        for i = 1 to count - 1 do
          if offs.(i) < offs.(i - 1) then
            Alcotest.failf "arrival %d goes backwards" i
        done;
        (* Mean gap should be 1/rate within a few percent at this n. *)
        let mean = offs.(count - 1) /. float_of_int (count - 1) in
        if mean < 0.0009 || mean > 0.0011 then
          Alcotest.failf "mean gap %.6f out of range for rate %.0f" mean rate);
  ]

(* ------------------------------------------------------------------ *)
(* The generated corpus *)

let corpus_tests =
  [
    tc "every generated entry validates, titles unique" (fun () ->
        let ts = Corpus.generate ~entries:60 ~seed:5 in
        check Alcotest.int "count" 60 (List.length ts);
        List.iter
          (fun t ->
            match Bx_repo.Template.validate t with
            | Ok () -> ()
            | Error es ->
                Alcotest.failf "%s: %s" t.Bx_repo.Template.title
                  (String.concat "; " es))
          ts;
        let titles = List.map (fun t -> t.Bx_repo.Template.title) ts in
        check Alcotest.int "unique titles" 60
          (List.length (List.sort_uniq compare titles)));
    tc "generation is deterministic in (entries, seed)" (fun () ->
        let a = Corpus.generate ~entries:20 ~seed:9 in
        let b = Corpus.generate ~entries:20 ~seed:9 in
        List.iter2
          (fun x y ->
            Alcotest.(check bool)
              x.Bx_repo.Template.title true
              (Bx_repo.Template.equal x y))
          a b;
        let c = Corpus.generate ~entries:20 ~seed:10 in
        Alcotest.(check bool) "different seed differs" false
          (List.for_all2 Bx_repo.Template.equal a c));
    tc "seed_registry = catalogue + corpus, all submittable" (fun () ->
        let registry = Corpus.seed_registry ~entries:12 ~seed:3 () in
        let catalogue = List.length (Bx_catalogue.Catalogue.all ()) in
        check Alcotest.int "size" (catalogue + 12)
          (Bx_repo.Registry.size registry));
    tc "wiki_paths match the registry's served paths" (fun () ->
        let registry = Corpus.seed_registry ~entries:6 ~seed:3 () in
        Array.iter
          (fun path ->
            (* "/examples:name" -> the identifier part after the colon *)
            let i = String.index path ':' in
            let name = String.sub path (i + 1) (String.length path - i - 1) in
            match Bx_repo.Identifier.of_string name with
            | Error e -> Alcotest.failf "%s: %s" path e
            | Ok id -> (
                match Bx_repo.Registry.latest registry id with
                | Ok _ -> ()
                | Error e ->
                    Alcotest.failf "%s not in registry: %s" path
                      (Bx_repo.Registry.error_message e)))
          (Corpus.wiki_paths ~entries:6 ~seed:3));
  ]

(* ------------------------------------------------------------------ *)
(* Client-domain failure accounting: one crashed domain must not abort
   the others *)

exception Boom of int

let parallel_tests =
  [
    tc "one crashed domain leaves the others' rows" (fun () ->
        let out =
          Loadgen.per_domain
            (fun i -> if i mod 3 = 0 then raise (Boom i) else i * 10)
            [ 1; 2; 3; 4; 5; 6 ]
        in
        check Alcotest.int "six outcomes" 6 (List.length out);
        List.iteri
          (fun idx r ->
            let i = idx + 1 in
            match r with
            | Ok v when i mod 3 <> 0 ->
                check Alcotest.int "value" (i * 10) v
            | Error msg when i mod 3 = 0 ->
                Alcotest.(check bool)
                  "mentions the exception" true
                  (String.length msg > 0)
            | Ok _ -> Alcotest.failf "item %d should have failed" i
            | Error e -> Alcotest.failf "item %d failed: %s" i e)
          out);
    tc "each failure stays on its own slice's row" (fun () ->
        check
          Alcotest.(list (result int string))
          "rows in slice order"
          [
            Ok 1;
            Ok 2;
            Error (Printexc.to_string (Boom 3));
            Error (Printexc.to_string (Boom 4));
            Error (Printexc.to_string (Boom 5));
          ]
          (Loadgen.per_domain
             (fun i -> if i >= 3 then raise (Boom i) else i)
             [ 1; 2; 3; 4; 5 ]));
    tc "a lone slice still reports its outcome" (fun () ->
        Alcotest.(check bool)
          "failed" true
          (match Loadgen.per_domain (fun _ -> failwith "two") [ 2 ] with
          | [ Error _ ] -> true
          | _ -> false);
        check
          Alcotest.(list (result int string))
          "succeeded" [ Ok 3 ]
          (Loadgen.per_domain Fun.id [ 3 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Response-cache sharding *)

let response body =
  { Bx_repo.Webui.status = 200; content_type = "text/html"; body; headers = [] }

let respcache_tests =
  [
    tc "a domain hits its own shard" (fun () ->
        let cache =
          Bx_server.Respcache.create ~capacity:64 ~shards:4
            (Bx_server.Metrics.create ())
        in
        check Alcotest.int "shards" 4 (Bx_server.Respcache.shard_count cache);
        Bx_server.Respcache.store cache ~path:"/a" ~generation:1 (response "A");
        (match Bx_server.Respcache.find cache ~path:"/a" ~generation:1 with
        | Some r -> check Alcotest.string "body" "A" r.Bx_repo.Webui.body
        | None -> Alcotest.fail "expected a hit in the same domain");
        check Alcotest.int "size" 1 (Bx_server.Respcache.size cache);
        let acq, _ = Bx_server.Respcache.lock_stats cache in
        Alcotest.(check bool) "acquisitions counted" true (acq > 0));
    tc "a page stored by one domain is a hit in another" (fun () ->
        let cache =
          Bx_server.Respcache.create ~capacity:64 ~shards:16
            (Bx_server.Metrics.create ())
        in
        Bx_server.Respcache.store cache ~path:"/p" ~generation:1 (response "P");
        let seen =
          Domain.join
            (Domain.spawn (fun () ->
                 Bx_server.Respcache.find cache ~path:"/p" ~generation:1))
        in
        Alcotest.(check (option string))
          "hit in the other domain" (Some "P")
          (Option.map (fun r -> r.Bx_repo.Webui.body) seen);
        check Alcotest.int "held once" 1 (Bx_server.Respcache.size cache));
    tc "stale generations are evicted at capacity" (fun () ->
        (* capacity 16 is the per-shard floor *)
        let cache =
          Bx_server.Respcache.create ~capacity:16 ~shards:1
            (Bx_server.Metrics.create ())
        in
        for i = 1 to 16 do
          Bx_server.Respcache.store cache
            ~path:(Printf.sprintf "/old%d" i)
            ~generation:1 (response "old")
        done;
        Bx_server.Respcache.store cache ~path:"/new" ~generation:2
          (response "new");
        Alcotest.(check bool)
          "old generation swept" true
          (Bx_server.Respcache.size cache <= 2);
        Alcotest.(check bool)
          "new entry present" true
          (Bx_server.Respcache.find cache ~path:"/new" ~generation:2 <> None));
    tc "a full shard of current pages evicts one page" (fun () ->
        (* capacity 16 is the per-shard floor *)
        let cache =
          Bx_server.Respcache.create ~capacity:16 ~shards:1
            (Bx_server.Metrics.create ())
        in
        let path i = Printf.sprintf "/page%d" i in
        for i = 1 to 17 do
          Bx_server.Respcache.store cache ~path:(path i) ~generation:1
            (response "current")
        done;
        let hits =
          List.length
            (List.filter
               (fun i ->
                 Bx_server.Respcache.find cache ~path:(path i) ~generation:1
                 <> None)
               (List.init 16 (fun i -> i + 1)))
        in
        check Alcotest.int "earlier pages still hit" 15 hits;
        Alcotest.(check bool)
          "the last page is held" true
          (Bx_server.Respcache.find cache ~path:(path 17) ~generation:1 <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Service lock counters *)

let service_lock_tests =
  [
    tc "reads and writes are counted and exported" (fun () ->
        let t =
          match
            Bx_server.Service.create ~seed:Bx_catalogue.Catalogue.seed ()
          with
          | Ok t -> t
          | Error e -> Alcotest.failf "service: %s" e
        in
        let get path =
          Bx_server.Service.handle t ~meth:"GET" ~path ~body:""
        in
        check Alcotest.int "GET /" 200 (get "/").Bx_repo.Webui.status;
        let wiki = get "/examples:composers.wiki" in
        check Alcotest.int "GET wiki" 200 wiki.Bx_repo.Webui.status;
        let post =
          Bx_server.Service.handle t ~meth:"POST" ~path:"/examples:composers"
            ~body:wiki.Bx_repo.Webui.body
        in
        check Alcotest.int "POST back" 200 post.Bx_repo.Webui.status;
        let row name mode =
          match
            List.find_opt
              (fun (l, m, _, _) -> l = name && m = mode)
              (Bx_server.Service.lock_stats t)
          with
          | Some (_, _, acq, _) -> acq
          | None -> Alcotest.failf "no %s/%s row" name mode
        in
        Alcotest.(check bool) "read acquisitions" true (row "registry" "read" >= 2);
        Alcotest.(check bool) "write acquisitions" true (row "registry" "write" >= 1);
        let metrics = get "/metrics" in
        check Alcotest.int "GET /metrics" 200 metrics.Bx_repo.Webui.status;
        List.iter
          (fun needle ->
            if
              not
                (let hay = metrics.Bx_repo.Webui.body in
                 let nl = String.length needle and hl = String.length hay in
                 let rec scan i =
                   i + nl <= hl
                   && (String.sub hay i nl = needle || scan (i + 1))
                 in
                 scan 0)
            then Alcotest.failf "/metrics lacks %s" needle)
          [
            "bxwiki_lock_acquisitions_total{lock=\"registry\",mode=\"read\"}";
            "bxwiki_lock_contended_total{lock=\"registry\",mode=\"write\"}";
            "bxwiki_respcache_shards";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* End to end: a live server, a short open-loop run *)

let catalogue_targets () =
  List.filter_map
    (fun t ->
      match Bx_repo.Identifier.of_title t.Bx_repo.Template.title with
      | Ok id -> Some ("/" ^ Bx_repo.Identifier.wiki_path id)
      | Error _ -> None)
    (Bx_catalogue.Catalogue.all ())
  |> Array.of_list

let live_tests =
  [
    tc "open-loop run against a live server" (fun () ->
        let config =
          { Bx_server.Service.default_config with cache_shards = 2 }
        in
        let t =
          match
            Bx_server.Service.create ~config
              ~lenses:
                [ ("composers", Bx_catalogue.Composers_string.lens) ]
              ~seed:Bx_catalogue.Catalogue.seed ()
          with
          | Ok t -> t
          | Error e -> Alcotest.failf "service: %s" e
        in
        let server =
          Thread.create
            (fun () ->
              match
                Bx_server.Service.serve t ~port:0 ~workers:2 ~quiet:true ()
              with
              | Ok () -> ()
              | Error e -> Printf.eprintf "serve: %s\n%!" e)
            ()
        in
        let rec wait_port n =
          match Bx_server.Service.port t with
          | Some p -> p
          | None ->
              if n > 500 then Alcotest.fail "server never bound"
              else begin
                Thread.delay 0.01;
                wait_port (n + 1)
              end
        in
        let port = wait_port 0 in
        (match Loadgen.scrape_locks ~port with
        | Error e -> Alcotest.failf "scrape: %s" e
        | Ok rows ->
            Alcotest.(check bool)
              "registry read row scraped" true
              (List.exists
                 (fun r ->
                   r.Loadgen.lock = "registry" && r.Loadgen.mode = "read")
                 rows));
        let spec =
          {
            Loadgen.port;
            profile = Workload.read_heavy;
            pacing = Arrival.Constant;
            rate = 60.;
            domains = 2;
            warmup = 0.3;
            duration = 1.0;
            seed = 11;
            targets = catalogue_targets ();
          }
        in
        (match Loadgen.run spec with
        | Error e -> Alcotest.failf "loadgen: %s" e
        | Ok r ->
            Alcotest.(check bool) "sent some" true (r.Loadgen.sent > 0);
            check Alcotest.int "no failures" 0 r.Loadgen.failed;
            check Alcotest.int "no transport errors" 0 r.Loadgen.transport;
            check (Alcotest.list Alcotest.string) "no domain crashes" []
              r.Loadgen.domain_failures;
            check Alcotest.int "every request measured" r.Loadgen.sent
              (Hist.total r.Loadgen.latency);
            Alcotest.(check bool)
              "lock deltas recorded" true
              (r.Loadgen.locks <> []));
        Bx_server.Service.shutdown t;
        Thread.join server);
  ]

let () =
  Alcotest.run "bx_load"
    [
      ("histogram", hist_unit_tests);
      ("histogram laws", hist_qcheck_tests);
      ("arrivals", arrival_tests);
      ("corpus", corpus_tests);
      ("parallel accounting", parallel_tests);
      ("respcache shards", respcache_tests);
      ("service locks", service_lock_tests);
      ("live loadgen", live_tests);
    ]
