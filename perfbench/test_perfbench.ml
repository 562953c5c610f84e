(* The benchmark's own arithmetic: span self time, /metrics deltas, the
   p99 reporting rule and failure accounting. *)

let close = Alcotest.float 1e-9

let test_self_no_children () =
  Alcotest.check close "no children" 5. (Arith.self_time ~t0:10. ~t1:15. [])

let test_self_nested () =
  (* Two disjoint children, one of them with a grandchild interval
     inside it: the grandchild adds nothing to what the child covers. *)
  Alcotest.check close "disjoint children" 6.
    (Arith.self_time ~t0:0. ~t1:10. [ (1., 2.); (4., 7.); (5., 6.) ])

let test_self_overlapping () =
  (* Batch documents run on parallel domains: overlapping children cover
     their union, not their sum. *)
  Alcotest.check close "overlapping" 4.
    (Arith.self_time ~t0:0. ~t1:10. [ (1., 4.); (2., 5.); (3., 7.) ]);
  Alcotest.check close "touching" 7.
    (Arith.self_time ~t0:0. ~t1:10. [ (1., 2.); (2., 3.); (3., 4.) ])

let test_self_clipped () =
  (* A child reaching outside its parent only covers the shared part. *)
  Alcotest.check close "clipped" 8.
    (Arith.self_time ~t0:0. ~t1:10. [ (-3., 1.); (9., 12.) ])

let test_self_plus_children () =
  let children = [ (0.5, 2.5); (2., 3.); (6., 6.25) ] in
  let self = Arith.self_time ~t0:0. ~t1:10. children in
  Alcotest.check close "self + covered = root" 10.
    (self +. Arith.covered ~lo:0. ~hi:10. children)

let before =
  {|# HELP bxwiki_lock_contended_total Lock acquisitions that had to block.
# TYPE bxwiki_lock_contended_total counter
bxwiki_lock_contended_total{lock="registry",mode="read"} 3
bxwiki_lock_contended_total{lock="registry",mode="write"} 1
bxwiki_request_duration_seconds_sum{route="entry"} 0.5
bxwiki_request_duration_seconds_count{route="entry"} 10
bxwiki_cache_hits_total 7
|}

let after =
  {|bxwiki_lock_contended_total{lock="registry",mode="read"} 8
bxwiki_lock_contended_total{lock="registry",mode="write"} 1
bxwiki_lock_contended_total{lock="respcache",mode="all"} 2
bxwiki_request_duration_seconds_sum{route="entry"} 1.25
bxwiki_request_duration_seconds_count{route="entry"} 25
bxwiki_request_duration_seconds_count{route="search"} 4
bxwiki_cache_hits_total 19
bxwiki_cache_misses_total 2
|}

let delta () =
  Arith.prom_delta ~before:(Arith.parse_prom before)
    ~after:(Arith.parse_prom after)

let test_prom_parse () =
  let samples = Arith.parse_prom before in
  Alcotest.(check int) "comments skipped" 5 (List.length samples);
  Alcotest.check close "value" 0.5
    (List.assoc {|bxwiki_request_duration_seconds_sum{route="entry"}|} samples)

let test_prom_labels () =
  let d = delta () in
  Alcotest.check close "read delta" 5.
    (Arith.sum_series ~labels:[ ("lock", "registry"); ("mode", "read") ] d
       "bxwiki_lock_contended_total");
  Alcotest.check close "registry, both modes" 5.
    (Arith.sum_series ~labels:[ ("lock", "registry") ] d
       "bxwiki_lock_contended_total");
  Alcotest.check close "sum over route" 0.75
    (Arith.sum_series ~labels:[ ("route", "entry") ] d
       "bxwiki_request_duration_seconds_sum");
  Alcotest.check close "unlabelled" 12. (Arith.sum_series d "bxwiki_cache_hits_total");
  Alcotest.(check (option string)) "label" (Some "search")
    (Arith.label {|bxwiki_request_duration_seconds_count{route="search"}|} "route");
  Alcotest.(check string) "name" "bxwiki_cache_hits_total"
    (Arith.series_name "bxwiki_cache_hits_total")

let test_prom_absent_at_first_scrape () =
  let d = delta () in
  Alcotest.check close "new labelled series counts from zero" 2.
    (Arith.sum_series ~labels:[ ("lock", "respcache") ] d
       "bxwiki_lock_contended_total");
  Alcotest.check close "new route" 4.
    (Arith.sum_series ~labels:[ ("route", "search") ] d
       "bxwiki_request_duration_seconds_count");
  Alcotest.check close "new unlabelled series" 2.
    (Arith.sum_series d "bxwiki_cache_misses_total");
  Alcotest.check close "missing everywhere" 0. (Arith.sum_series d "bxwiki_nope")

let test_p99_rule () =
  Alcotest.(check int) "1000 samples leave 10 beyond" 10
    (Arith.beyond ~count:1000 ~pct:99);
  Alcotest.(check bool) "1000 reportable" true (Arith.reportable ~count:1000 ~pct:99);
  Alcotest.(check bool) "999 not" false (Arith.reportable ~count:999 ~pct:99);
  Alcotest.(check bool) "0 not" false (Arith.reportable ~count:0 ~pct:99);
  Alcotest.(check bool) "p50 of 20" true (Arith.reportable ~count:20 ~pct:50);
  Alcotest.(check bool) "p50 of 19" false (Arith.reportable ~count:19 ~pct:50);
  (* The rank agrees with Hist.quantile at the precision the benchmark
     records with (exact below 1024): of 1000 distinct values the p99 is
     the 990th, and exactly 10 lie above it. *)
  let h = Bx_load.Hist.create ~sub_bits:10 () in
  for v = 1 to 1000 do Bx_load.Hist.record h v done;
  let p99 = Bx_load.Hist.quantile h 0.99 in
  let above = List.length (List.filter (fun v -> v > p99) (List.init 1000 succ)) in
  Alcotest.(check int) "beyond the Hist p99" (Arith.beyond ~count:1000 ~pct:99) above

let test_failed_share () =
  let t = Arith.tally () in
  let count status ~bytes_ok ~within =
    Arith.count t (Arith.classify ~status ~bytes_ok) ~within_limit:within
  in
  count 200 ~bytes_ok:true ~within:true;
  count 200 ~bytes_ok:true ~within:false;
  count 409 ~bytes_ok:true ~within:true;
  count 503 ~bytes_ok:true ~within:true;
  count 504 ~bytes_ok:true ~within:true;
  count 200 ~bytes_ok:false ~within:true;
  Arith.count t Arith.Transport ~within_limit:true;
  Alcotest.(check int) "attempted" 7 t.attempted;
  Alcotest.(check int) "failed" 5 t.failed;
  Alcotest.(check int) "good: answered within the limit only" 1 t.good;
  Alcotest.check close "failed share" (5. /. 7.) (Arith.failed_share t);
  let n o = t.counts.(Arith.index o) in
  Alcotest.(check (list int)) "by outcome" [ 2; 2; 1; 1; 1 ]
    Arith.[ n Answered; n Refused; n Bad_status; n Transport; n Wrong_bytes ];
  let m = Arith.merge_tally t t in
  Alcotest.check close "merge keeps the share" (5. /. 7.) (Arith.failed_share m);
  Alcotest.check close "empty" 0. (Arith.failed_share (Arith.tally ()))

let test_median () =
  Alcotest.check close "odd" 2. (Arith.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Arith.median [ 4.; 1.; 3.; 2. ])

let () =
  Alcotest.run "perfbench"
    [
      ( "self time",
        [
          Alcotest.test_case "no children" `Quick test_self_no_children;
          Alcotest.test_case "nested" `Quick test_self_nested;
          Alcotest.test_case "overlapping" `Quick test_self_overlapping;
          Alcotest.test_case "clipped" `Quick test_self_clipped;
          Alcotest.test_case "self plus children" `Quick test_self_plus_children;
        ] );
      ( "metrics delta",
        [
          Alcotest.test_case "parse" `Quick test_prom_parse;
          Alcotest.test_case "labels" `Quick test_prom_labels;
          Alcotest.test_case "absent at first scrape" `Quick
            test_prom_absent_at_first_scrape;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "p99 rule" `Quick test_p99_rule;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ("accounting", [ Alcotest.test_case "failed share" `Quick test_failed_share ]);
    ]
