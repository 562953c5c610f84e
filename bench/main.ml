(* The benchmark harness.

   The paper (BX 2014) is a position paper with no tables or figures; its
   checkable claims are the section 4 Composers entry and the section 5.4
   wiki bx.  This harness therefore regenerates, in order:

   E1  the claimed-vs-verified property table for every catalogue entry;
   E2  the undoability counterexample trace;
   E3  the variant behaviour matrix;
   E4  the resourceful-vs-positional string lens ablation;
   E5  the wiki round-trip check;

   and then measures the performance series with Bechamel:

   P1  Composers restoration cost vs model size;
   P2  string lens get/put throughput vs document size (dict vs positional);
   P3  static ambiguity checking / lens construction cost;
   P4  registry search, citation and wiki render/parse cost vs store size;
   P5  (wall-clock, before the Bechamel table) server throughput — the
       seed sequential accept loop vs the pooled Bx_server.Service —
       and journal replay cost vs edit-log size. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Experiment artifacts (E1-E5) *)

let rule title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '-')

let e1 () =
  rule "E1: claimed properties vs machine verification (all entries)";
  List.iter
    (fun (title, rows) ->
      Fmt.pr "@.%s@.%a@." title Bx_check.Verify.pp_report rows;
      if not (Bx_check.Verify.all_upheld rows) then
        Fmt.pr "  *** SOME CLAIM REFUTED ***@.")
    (Bx_check.Examples_check.all_reports ~count:80 ())

let e2 () =
  rule "E2: the COMPOSERS undoability counterexample (paper, section 4)";
  let open Bx_catalogue.Composers in
  let trace = undoability_counterexample () in
  Fmt.pr "m0 = %a@." m_space.Bx.Model.pp trace.initial_m;
  Fmt.pr "after delete/restore of Britten in n, two bwd passes give:@.";
  Fmt.pr "m2 = %a@." m_space.Bx.Model.pp trace.m_after_second_bwd;
  Fmt.pr "dates lost: %b@." trace.dates_lost

let e3 () =
  rule "E3: variant behaviour matrix";
  let open Bx_catalogue.Composers in
  let open Bx_catalogue.Composers_variants in
  let m = [ composer ~name:"Britten" ~dates:"1913-1976" ~nationality:"British" ] in
  let n = [ ("Britten", "English") ] in
  let show name bx =
    Fmt.pr "%-22s bwd -> %a@." name m_space.Bx.Model.pp
      (bx.Bx.Symmetric.bwd m n)
  in
  show "base" bx;
  show "name-as-key" name_as_key;
  show "fresh-dates(0000)" (fresh_dates "0000-0000");
  let m2 =
    [
      composer ~name:"Bach" ~dates:"1685-1750" ~nationality:"German";
      composer ~name:"Britten" ~dates:"1913-1976" ~nationality:"English";
    ]
  in
  let n_consistent = [ ("Britten", "English"); ("Bach", "German") ] in
  let hippo bx =
    match
      (Bx.Symmetric.hippocratic_fwd_law n_space bx).Bx.Law.check
        (m2, n_consistent)
    with
    | Bx.Law.Holds -> "hippocratic"
    | Bx.Law.Violated _ -> "NOT hippocratic (reorders)"
  in
  Fmt.pr "%-22s %s@." "base fwd" (hippo bx);
  Fmt.pr "%-22s %s@." "insert-at-beginning" (hippo insert_at_beginning);
  Fmt.pr "%-22s %s@." "alphabetical-n" (hippo alphabetical_n)

let e4 () =
  rule "E4: resourceful vs positional alignment (POPL'08 string lens)";
  let open Bx_catalogue.Composers_string in
  let src = "Bach, 1685-1750, German\nCage, 1912-1992, American\n" in
  let view = "Cage, American\nBach, German\n" in
  Fmt.pr "dictionary put:@.%s" (lens.Bx_strlens.Slens.put view src);
  Fmt.pr "positional put:@.%s" (positional_lens.Bx_strlens.Slens.put view src);
  Fmt.pr "(who wins: the dictionary lens keeps dates with their composers.)@."

let e5 () =
  rule "E5: wiki round trip (section 5.4)";
  let reg = Bx_catalogue.Catalogue.seed () in
  let pages = Bx_repo.Registry.export reg in
  let reg' = Result.get_ok (Bx_repo.Registry.import pages) in
  Fmt.pr "exported %d pages; re-import preserves %d/%d entries: %b@."
    (List.length pages)
    (Bx_repo.Registry.size reg')
    (Bx_repo.Registry.size reg)
    (Bx_repo.Registry.ids reg = Bx_repo.Registry.ids reg')

(* ------------------------------------------------------------------ *)
(* Synthetic data, deterministic by size *)

(* A letters-only token for index i (the string lens's types demand
   letters). *)
let token i =
  let letters = "abcdefghij" in
  let rec go i acc =
    let acc = String.make 1 letters.[i mod 10] ^ acc in
    if i < 10 then acc else go (i / 10) acc
  in
  "c" ^ go i ""

let composers_m_of_size k =
  List.init k (fun i ->
      Bx_catalogue.Composers.composer ~name:(token i) ~dates:"1900-1999"
        ~nationality:(token (i mod 7)))

let composers_n_of_size k =
  (* Half overlapping with the m above, half foreign: both restoration
     branches stay busy. *)
  List.init k (fun i ->
      if i mod 2 = 0 then (token i, token (i mod 7)) else (token (i + 10000), "x"))

(* The CSV documents come from the catalogue so benchmarks and tests
   measure the same corpus. *)
let csv_source_of_size = Bx_catalogue.Composers_string.synthetic_source
let csv_view_of_size = Bx_catalogue.Composers_string.synthetic_view

let big_registry k =
  let reg = Bx_repo.Registry.create () in
  let base = Bx_catalogue.Composers.template in
  for i = 0 to k - 1 do
    let t = { base with Bx_repo.Template.title = Printf.sprintf "ENTRY%04d" i } in
    match
      Bx_repo.Registry.submit reg ~as_:(Bx_repo.Curation.account "seeder") t
    with
    | Ok _ -> ()
    | Error e -> failwith (Bx_repo.Registry.error_message e)
  done;
  reg

(* ------------------------------------------------------------------ *)
(* Bechamel tests *)

let composers_tests =
  let sizes = [ 10; 100; 1000 ] in
  List.concat_map
    (fun k ->
      let m = composers_m_of_size k in
      let n = composers_n_of_size k in
      [
        Test.make
          ~name:(Printf.sprintf "P1 composers fwd n=%d" k)
          (Staged.stage (fun () -> Bx_catalogue.Composers.bx.Bx.Symmetric.fwd m n));
        Test.make
          ~name:(Printf.sprintf "P1 composers bwd n=%d" k)
          (Staged.stage (fun () -> Bx_catalogue.Composers.bx.Bx.Symmetric.bwd m n));
      ])
    sizes

let strlens_tests =
  let open Bx_catalogue.Composers_string in
  List.concat_map
    (fun k ->
      let src = csv_source_of_size k in
      let view = csv_view_of_size k in
      [
        Test.make
          ~name:(Printf.sprintf "P2 slens get lines=%d" k)
          (Staged.stage (fun () -> lens.Bx_strlens.Slens.get src));
        Test.make
          ~name:(Printf.sprintf "P2 slens put dict lines=%d" k)
          (Staged.stage (fun () -> lens.Bx_strlens.Slens.put view src));
        Test.make
          ~name:(Printf.sprintf "P2 slens put positional lines=%d" k)
          (Staged.stage (fun () ->
               positional_lens.Bx_strlens.Slens.put view src));
      ])
    [ 10; 100 ]

let regex_tests =
  let letters = Bx_regex.Regex.plus (Bx_regex.Regex.cset (Bx_regex.Cset.range 'a' 'z')) in
  let digits = Bx_regex.Regex.plus (Bx_regex.Regex.cset (Bx_regex.Cset.range '0' '9')) in
  [
    Test.make ~name:"P3 ambig-check letters.digits"
      (Staged.stage (fun () -> Bx_regex.Ambig.unambig_concat letters digits));
    Test.make ~name:"P3 ambig-check letters.letters (ambiguous)"
      (Staged.stage (fun () -> Bx_regex.Ambig.unambig_concat letters letters));
    Test.make ~name:"P3 dfa-build composers line"
      (Staged.stage (fun () ->
           Bx_regex.Dfa.build
             Bx_catalogue.Composers_string.lens.Bx_strlens.Slens.stype));
    Test.make ~name:"P3 lens construction (all static checks)"
      (Staged.stage (fun () ->
           (* Rebuild the full composers string lens, typing checks and
              all. *)
           let open Bx_regex in
           let letter = Cset.union (Cset.range 'A' 'Z') (Cset.range 'a' 'z') in
           let word = Regex.plus (Regex.cset letter) in
           let dates =
             Regex.(concat_list
                      [ repeat 4 (cset (Cset.range '0' '9')); chr '-';
                        repeat 4 (cset (Cset.range '0' '9')) ])
           in
           let open Bx_strlens in
           Slens.star_key ~key:Fun.id
             (Slens.concat_list
                [
                  Slens.copy word;
                  Slens.copy (Regex.str ", ");
                  Slens.del (Regex.seq dates (Regex.str ", "))
                    ~default:"0000-0000, ";
                  Slens.copy word;
                  Slens.copy (Regex.chr '\n');
                ])));
  ]

let alignment_tests =
  (* Ablation: the three chunk-alignment strategies for the star. *)
  let open Bx_catalogue.Composers_string in
  List.concat_map
    (fun k ->
      let src = csv_source_of_size k in
      let view = csv_view_of_size k in
      [
        Test.make
          ~name:(Printf.sprintf "P5 align positional lines=%d" k)
          (Staged.stage (fun () ->
               positional_lens.Bx_strlens.Slens.put view src));
        Test.make
          ~name:(Printf.sprintf "P5 align greedy-key lines=%d" k)
          (Staged.stage (fun () -> lens.Bx_strlens.Slens.put view src));
        Test.make
          ~name:(Printf.sprintf "P5 align lcs-diff lines=%d" k)
          (Staged.stage (fun () -> diff_lens.Bx_strlens.Slens.put view src));
      ])
    [ 10; 100 ]

let engine_tests =
  (* The compiled-engine series, per-run view.  The wall-clock MB/s and
     speedup headline for the same workloads is printed by p6_engine. *)
  let open Bx_regex in
  let stype = Bx_catalogue.Composers_string.lens.Bx_strlens.Slens.stype in
  let doc = csv_source_of_size 200 in
  let d = Dfa.compile stype in
  [
    Test.make ~name:"P6 match compiled doc=200-lines"
      (Staged.stage (fun () -> Dfa.accepts d doc));
    Test.make ~name:"P6 match interpreted doc=200-lines"
      (Staged.stage (fun () -> Regex.matches_deriv stype doc));
    Test.make ~name:"P6 dfa compile (cached) composers type"
      (Staged.stage (fun () -> Dfa.compile stype));
    Test.make ~name:"P6 dfa minimise composers type"
      (Staged.stage (fun () -> Dfa.minimise d));
  ]

let scenario_tests =
  List.concat_map
    (fun k ->
      List.map
        (fun scenario ->
          Test.make
            ~name:
              (Printf.sprintf "P7 f2p %s"
                 scenario.Bx_catalogue.F2p_scenarios.scenario_name)
            (Staged.stage (fun () ->
                 Bx_catalogue.F2p_scenarios.run scenario)))
        (Bx_catalogue.F2p_scenarios.all k))
    [ 8; 32 ]

let registry_tests =
  List.concat_map
    (fun k ->
      let reg = big_registry k in
      let q = Bx_repo.Registry.query ~text:"undoability" () in
      [
        Test.make
          ~name:(Printf.sprintf "P4 registry search entries=%d" k)
          (Staged.stage (fun () -> Bx_repo.Registry.search reg q));
        Test.make
          ~name:(Printf.sprintf "P4 registry export entries=%d" k)
          (Staged.stage (fun () -> Bx_repo.Registry.export reg));
      ])
    [ 10; 50 ]
  @
  let entry = Bx_repo.Sync.normalise Bx_catalogue.Composers.template in
  let page = Bx_repo.Sync.wiki_text entry in
  [
    Test.make ~name:"P4 sync render (get)"
      (Staged.stage (fun () -> Bx_repo.Sync.wiki_text entry));
    Test.make ~name:"P4 sync parse (put)"
      (Staged.stage (fun () -> Bx_repo.Sync.of_wiki_text ~fallback:entry page));
  ]

let store_tests =
  let reg = Bx_catalogue.Catalogue.seed () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "bx-bench-store" in
  [
    Test.make ~name:"P8 store save (full catalogue)"
      (Staged.stage (fun () ->
           match Bx_repo.Store.save ~dir reg with
           | Ok n -> n
           | Error e -> failwith e));
    Test.make ~name:"P8 store load (full catalogue)"
      (Staged.stage (fun () ->
           (* save once outside would be racy with the alternating runs;
              saving is idempotent, so just load what the save bench
              leaves behind (it runs in the same process). *)
           match Bx_repo.Store.load ~dir () with
           | Ok reg -> Bx_repo.Registry.size reg
           | Error e -> failwith e));
  ]

let generic_scenario_tests =
  (* The generic runner driving COMPOSERS: churn on the entry list. *)
  let m0 =
    List.init 16 (fun i ->
        Bx_catalogue.Composers.composer
          ~name:(token i) ~dates:"1900-1999" ~nationality:(token (i mod 5)))
  in
  let steps =
    List.concat
      (List.init 8 (fun i ->
           [
             Bx.Scenario.Edit_right
               ( Printf.sprintf "drop-%d" i,
                 fun n -> List.filteri (fun j _ -> j <> 0) n );
             Bx.Scenario.Edit_left
               ( Printf.sprintf "add-%d" i,
                 fun m ->
                   Bx_catalogue.Composers.canon_m
                     (Bx_catalogue.Composers.composer
                        ~name:(token (100 + i)) ~dates:"1800-1899"
                        ~nationality:"x"
                     :: m) );
           ]))
  in
  let scenario =
    Bx.Scenario.make ~name:"composers-churn" ~initial_left:m0 ~initial_right:[]
      steps
  in
  [
    Test.make ~name:"P7 composers-churn scenario (generic runner)"
      (Staged.stage (fun () -> Bx.Scenario.run Bx_catalogue.Composers.bx scenario));
  ]

let tree_edit_tests =
  let rec synthetic depth width i =
    if depth = 0 then Bx_models.Tree.leaf (token i)
    else
      Bx_models.Tree.node (token i)
        (List.init width (fun j -> synthetic (depth - 1) width ((i * width) + j)))
  in
  let t1 = synthetic 3 4 1 in
  (* A perturbed copy: relabel one leaf, drop one subtree. *)
  let t2 =
    match
      Bx_models.Tree_edit.apply
        Bx_models.Tree_edit.
          [ Relabel ([ 0; 0; 0 ], "changed"); Delete_child ([ 2 ], 1) ]
        t1
    with
    | Some t -> t
    | None -> failwith "perturbation failed"
  in
  let edit = Bx_models.Tree_edit.diff ~equal:String.equal t1 t2 in
  [
    Test.make ~name:"P9 tree diff (85-node trees)"
      (Staged.stage (fun () ->
           Bx_models.Tree_edit.diff ~equal:String.equal t1 t2));
    Test.make ~name:"P9 tree edit apply"
      (Staged.stage (fun () -> Bx_models.Tree_edit.apply edit t1));
  ]

let web_tests =
  let reg = Bx_catalogue.Catalogue.seed () in
  let entry = Bx_repo.Sync.normalise Bx_catalogue.Composers.template in
  let json = Bx_repo.Json_codec.to_string entry in
  [
    Test.make ~name:"P10 webui GET entry page"
      (Staged.stage (fun () ->
           Bx_repo.Webui.handle reg ~meth:"GET" ~path:"/examples:composers"
             ~body:""));
    Test.make ~name:"P10 webui GET index"
      (Staged.stage (fun () ->
           Bx_repo.Webui.handle reg ~meth:"GET" ~path:"/" ~body:""));
    Test.make ~name:"P10 json encode"
      (Staged.stage (fun () -> Bx_repo.Json_codec.to_string entry));
    Test.make ~name:"P10 json decode"
      (Staged.stage (fun () -> Bx_repo.Json_codec.of_string json));
  ]

(* ------------------------------------------------------------------ *)
(* P5: the server series.  Wall-clock, socket-bound measurements — the
   seed's sequential accept loop against the pooled Bx_server.Service
   under 8 concurrent clients, then journal replay cost against the
   edit-log size.  Reported directly rather than through Bechamel:
   the interesting number is aggregate throughput, not per-call OLS. *)

(* The archival manuscript (section 5.2) is by far the costliest render
   in the system (~2 ms: every entry, full template, cross-references) —
   exactly where the pooled service's generation-keyed response cache
   pays off, since the page only changes when an edit is accepted. *)
let bench_path = "/manuscript"

(* Minimal HTTP client plumbing over in_channels. *)
let drain_response ic =
  let _status_line = input_line ic in
  let content_length = ref 0 in
  (try
     let rec headers () =
       let line = String.trim (input_line ic) in
       if line <> "" then begin
         (match String.index_opt line ':' with
         | Some i
           when String.lowercase_ascii (String.sub line 0 i)
                = "content-length" ->
             content_length :=
               int_of_string
                 (String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> ());
         headers ()
       end
     in
     headers ()
   with End_of_file -> ());
  ignore (really_input_string ic !content_length)

let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  sock

(* A faithful replica of the seed bxwiki loop: one thread, one
   connection per request, a fresh render every time, Connection:
   close. *)
let start_sequential_loop registry =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let thread =
    Thread.create
      (fun () ->
        let continue = ref true in
        while !continue do
          match Unix.accept sock with
          | exception Unix.Unix_error (_, _, _) -> continue := false
          | client, _ ->
              (try
                 match
                   Bx_server.Httpd.read_request
                     (Bx_server.Httpd.reader_of_fd client)
                 with
                 | Ok req ->
                     Bx_server.Httpd.write_response client ~keep_alive:false
                       (Bx_repo.Webui.handle registry ~meth:req.Bx_server.Httpd.meth
                          ~path:req.Bx_server.Httpd.path
                          ~body:req.Bx_server.Httpd.body)
                 | Error _ -> ()
               with Unix.Unix_error (_, _, _) -> ());
              (try Unix.close client with Unix.Unix_error (_, _, _) -> ())
        done)
      ()
  in
  (port, sock, thread)

let run_clients n f =
  let started = Bx_obs.Clock.now () in
  let clients = List.init n (fun i -> Thread.create f i) in
  List.iter Thread.join clients;
  Bx_obs.Clock.now () -. started

let p5_server_throughput () =
  rule "P5: server throughput — seed sequential loop vs pooled service";
  let clients = 8 and requests = 40 in
  (* Baseline: the seed loop. *)
  let seq_rate =
    let registry = Bx_catalogue.Catalogue.seed () in
    let port, sock, thread = start_sequential_loop registry in
    let per_client _ =
      for _ = 1 to requests do
        let c = connect port in
        let oc = Unix.out_channel_of_descr c in
        Printf.fprintf oc "GET %s HTTP/1.1\r\nConnection: close\r\n\r\n"
          bench_path;
        flush oc;
        drain_response (Unix.in_channel_of_descr c);
        try Unix.close c with Unix.Unix_error (_, _, _) -> ()
      done
    in
    let elapsed = run_clients clients per_client in
    (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
    Thread.join thread;
    float_of_int (clients * requests) /. elapsed
  in
  (* The pooled service: worker domains, keep-alive, response cache. *)
  let pool_rate =
    let service =
      match
        Bx_server.Service.create ~seed:Bx_catalogue.Catalogue.seed ()
      with
      | Ok t -> t
      | Error e -> failwith e
    in
    let server =
      Thread.create
        (fun () ->
          match
            Bx_server.Service.serve service ~port:0 ~workers:4 ~quiet:true ()
          with
          | Ok () -> ()
          | Error e -> Fmt.epr "pooled service: %s@." e)
        ()
    in
    let rec wait_port n =
      match Bx_server.Service.port service with
      | Some p -> p
      | None ->
          if n > 500 then failwith "pooled service never bound"
          else begin
            Thread.delay 0.01;
            wait_port (n + 1)
          end
    in
    let port = wait_port 0 in
    let per_client _ =
      let c = connect port in
      let oc = Unix.out_channel_of_descr c in
      let ic = Unix.in_channel_of_descr c in
      for _ = 1 to requests do
        Printf.fprintf oc "GET %s HTTP/1.1\r\n\r\n" bench_path;
        flush oc;
        drain_response ic
      done;
      try Unix.close c with Unix.Unix_error (_, _, _) -> ()
    in
    let elapsed = run_clients clients per_client in
    Bx_server.Service.shutdown service;
    Thread.join server;
    float_of_int (clients * requests) /. elapsed
  in
  Fmt.pr "sequential loop   %8.0f req/s  (%d clients x %d GET %s)@." seq_rate
    clients requests bench_path;
  Fmt.pr "pooled service    %8.0f req/s  (4 workers, keep-alive, cache)@."
    pool_rate;
  Fmt.pr "speedup           %8.1fx (acceptance target: >= 4x)%s@."
    (pool_rate /. seq_rate)
    (if pool_rate < 4.0 *. seq_rate then "  *** BELOW TARGET ***" else "")

let p5_journal_replay () =
  rule "P5: journal replay cost vs edit-log size";
  List.iter
    (fun edits ->
      let dir = Filename.temp_file "bx-bench-journal" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let config =
        {
          Bx_server.Service.default_config with
          journal_dir = Some dir;
          compact_every = 0;
        }
      in
      let create () =
        match
          Bx_server.Service.create ~config ~seed:Bx_catalogue.Catalogue.seed ()
        with
        | Ok t -> t
        | Error e -> failwith e
      in
      let t = create () in
      let page =
        (Bx_server.Service.handle t ~meth:"GET" ~path:"/examples:celsius.wiki"
           ~body:"")
          .Bx_repo.Webui.body
      in
      for _ = 1 to edits do
        ignore
          (Bx_server.Service.handle t ~meth:"POST" ~path:"/examples:celsius"
             ~body:page)
      done;
      Bx_server.Service.close t;
      let started = Bx_obs.Clock.now () in
      let t' = create () in
      let elapsed = Bx_obs.Clock.now () -. started in
      let applied, failed = Bx_server.Service.replay_stats t' in
      Bx_server.Service.close t';
      Fmt.pr
        "replay %4d edits  %7.1f ms  (%5.0f edits/s, %d applied, %d failed)@."
        edits (elapsed *. 1000.)
        (float_of_int applied /. elapsed)
        applied failed)
    [ 8; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* P8: the load-shedding curve.  Bursts of concurrent connections are
   offered to a service with a deliberately small queue and a
   failpoint-injected 5 ms per-request service time; each burst is split
   into 200s (served) and 503s (shed).  The acceptance shape: below
   queue capacity nothing is shed, while at 2x capacity and beyond the
   excess is answered with a fast 503 + Retry-After (and /readyz flips)
   instead of piling onto latency.  --json-shed dumps the curve
   (committed as BENCH_shed.json). *)

type shed_row = {
  sr_multiple : float;  (* offered / queue_capacity *)
  sr_offered : int;
  sr_served : int;
  sr_shed : int;
  sr_failed : int;
  sr_elapsed : float;
  sr_flipped : bool;  (* /readyz went unready during the burst *)
}

let p8_load_shedding () =
  rule "P8: load shedding — offered burst vs served/shed split";
  let queue_capacity = 16 and workers = 2 and delay_ms = 5.0 in
  Bx_fault.Fault.set "httpd.read" (Bx_fault.Fault.Delay (delay_ms /. 1000.));
  let config = { Bx_server.Service.default_config with queue_capacity } in
  let service =
    match
      Bx_server.Service.create ~config ~seed:Bx_catalogue.Catalogue.seed ()
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let server =
    Thread.create
      (fun () ->
        match
          Bx_server.Service.serve service ~port:0 ~workers ~quiet:true ()
        with
        | Ok () -> ()
        | Error e -> Fmt.epr "shed service: %s@." e)
      ()
  in
  let rec wait_port n =
    match Bx_server.Service.port service with
    | Some p -> p
    | None ->
        if n > 500 then failwith "shed service never bound"
        else begin
          Thread.delay 0.01;
          wait_port (n + 1)
        end
  in
  let port = wait_port 0 in
  let burst offered =
    let served = Atomic.make 0
    and shed = Atomic.make 0
    and failed = Atomic.make 0
    and flipped = Atomic.make false
    and stop = Atomic.make false in
    let monitor =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            if not (Bx_server.Service.ready service) then
              Atomic.set flipped true;
            Thread.delay 0.001
          done)
        ()
    in
    let per_client _ =
      (* Count each connection exactly once: a reset while draining an
         already-classified response is not a failure. *)
      let classified = ref false in
      try
        let c = connect port in
        let oc = Unix.out_channel_of_descr c in
        let ic = Unix.in_channel_of_descr c in
        Printf.fprintf oc "GET %s HTTP/1.1\r\nConnection: close\r\n\r\n"
          bench_path;
        flush oc;
        let status_line = input_line ic in
        let has needle =
          let hl = String.length status_line
          and nl = String.length needle in
          let rec scan i =
            i + nl <= hl
            && (String.sub status_line i nl = needle || scan (i + 1))
          in
          scan 0
        in
        classified := true;
        if has " 200" then Atomic.incr served
        else if has " 503" then Atomic.incr shed
        else Atomic.incr failed;
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
        try Unix.close c with Unix.Unix_error (_, _, _) -> ()
      with _ -> if not !classified then Atomic.incr failed
    in
    let elapsed = run_clients offered per_client in
    Atomic.set stop true;
    Thread.join monitor;
    (* Let the queue drain so bursts are independent measurements. *)
    let rec settle n =
      if n < 1000 && not (Bx_server.Service.ready service) then begin
        Thread.delay 0.005;
        settle (n + 1)
      end
    in
    settle 0;
    {
      sr_multiple = float_of_int offered /. float_of_int queue_capacity;
      sr_offered = offered;
      sr_served = Atomic.get served;
      sr_shed = Atomic.get shed;
      sr_failed = Atomic.get failed;
      sr_elapsed = elapsed;
      sr_flipped = Atomic.get flipped;
    }
  in
  let rows =
    List.map
      (fun m -> burst (int_of_float (m *. float_of_int queue_capacity)))
      [ 0.5; 1.0; 2.0; 4.0 ]
  in
  Bx_fault.Fault.clear ();
  Bx_server.Service.shutdown service;
  Thread.join server;
  Fmt.pr
    "queue capacity %d, %d workers, %.0f ms injected service time@.@."
    queue_capacity workers delay_ms;
  Fmt.pr "  load  offered   served     shed   failed  elapsed  readyz@.";
  List.iter
    (fun r ->
      Fmt.pr "  %3.1fx  %7d  %7d  %7d  %7d  %6.2fs  %s@." r.sr_multiple
        r.sr_offered r.sr_served r.sr_shed r.sr_failed r.sr_elapsed
        (if r.sr_flipped then "flipped" else "ready"))
    rows;
  let over =
    List.filter (fun r -> r.sr_multiple >= 2.0 && r.sr_shed = 0) rows
  in
  Fmt.pr "overload sheds    %s@."
    (if over = [] then "yes (every burst >= 2x capacity shed)"
     else "*** NO SHEDDING AT >= 2x CAPACITY ***");
  ((queue_capacity, workers, delay_ms), rows)

(* Bench honesty: every BENCH_*.json says what the host offered next to
   what the run actually used — a flat "scaling" number measured on a
   single-core container must be readable as such. *)
let host_meta ~domains_used =
  Printf.sprintf "  \"cores_available\": %d,\n  \"domains_used\": %d,\n"
    (Domain.recommended_domain_count ())
    domains_used

let write_shed_json path ~meta:(queue_capacity, workers, delay_ms) rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"benchmark\": \"P8 load shedding\",\n";
  out "%s" (host_meta ~domains_used:workers);
  out "  \"queue_capacity\": %d,\n" queue_capacity;
  out "  \"workers\": %d,\n" workers;
  out "  \"service_delay_ms\": %g,\n" delay_ms;
  out "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"load_multiple\": %g, \"offered\": %d, \"served\": %d, \
         \"shed\": %d, \"failed\": %d, \"elapsed_s\": %.4f, \
         \"readyz_flipped\": %b}%s\n"
        r.sr_multiple r.sr_offered r.sr_served r.sr_shed r.sr_failed
        r.sr_elapsed r.sr_flipped
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* P9: replication — how fast a cold replica catches up on a journal
   backlog, and how far behind a hot standby falls while the primary
   takes a write storm.  The follower is the real Service.follow loop
   over real sockets; lag is sampled from the replica's own
   replication_lag/behind gauges while the storm runs.  --json-repl
   dumps the numbers (committed as BENCH_repl.json). *)

type repl_summary = {
  rp_preload : int;  (* journal records the cold replica had to fetch *)
  rp_catchup_s : float;
  rp_catchup_rate : float;  (* records/s while catching up *)
  rp_storm : int;  (* edits written while the follower was live *)
  rp_storm_s : float;  (* wall time of the storm itself *)
  rp_drain_s : float;  (* storm end -> replica reports behind = 0 *)
  rp_apply_rate : float;  (* records/s applied over storm + drain *)
  rp_max_behind : int;  (* worst sampled record lag *)
  rp_max_lag_s : float;  (* worst sampled lag seconds *)
  rp_samples : int;
}

let p9_replication () =
  rule "P9: replication — catch-up and steady-state lag under a write storm";
  let temp_dir () =
    let d = Filename.temp_file "bx-bench-repl" "" in
    Sys.remove d;
    Unix.mkdir d 0o755;
    d
  in
  let preload = 200 and storm = 200 in
  let pdir = temp_dir () and rdir = temp_dir () in
  let config dir replica =
    {
      Bx_server.Service.default_config with
      journal_dir = Some dir;
      compact_every = 0;
      stream_wait = 0.2;
      replica;
    }
  in
  let create dir replica =
    match
      Bx_server.Service.create ~config:(config dir replica)
        ~seed:Bx_catalogue.Catalogue.seed ()
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let primary = create pdir false in
  let server =
    Thread.create
      (fun () ->
        match Bx_server.Service.serve primary ~port:0 ~workers:2 ~quiet:true () with
        | Ok () -> ()
        | Error e -> Fmt.epr "repl primary: %s@." e)
      ()
  in
  let rec wait_port n =
    match Bx_server.Service.port primary with
    | Some p -> p
    | None ->
        if n > 500 then failwith "repl primary never bound"
        else begin
          Thread.delay 0.01;
          wait_port (n + 1)
        end
  in
  let port = wait_port 0 in
  let page =
    (Bx_server.Service.handle primary ~meth:"GET"
       ~path:"/examples:celsius.wiki" ~body:"")
      .Bx_repo.Webui.body
  in
  let edit () =
    ignore
      (Bx_server.Service.handle primary ~meth:"POST" ~path:"/examples:celsius"
         ~body:page)
  in
  (* A cold replica against an established backlog. *)
  for _ = 1 to preload do
    edit ()
  done;
  let replica = create rdir true in
  let sink = Bx_server.Service.replication_sink replica in
  let catchup_started = Bx_obs.Clock.now () in
  let rec catch_up n =
    if n > 10_000 then failwith "replica never caught up"
    else
      match Bx_server.Replication.poll_once ~host:"" ~port ~wait:0.2 sink with
      | Ok 0 -> ()
      | _ -> catch_up (n + 1)
  in
  catch_up 0;
  let catchup_s = Bx_obs.Clock.now () -. catchup_started in
  (* The hot standby under a write storm: the real follower loop applies
     while we write flat out, and a sampler watches the lag gauges. *)
  let follower =
    Thread.create
      (fun () ->
        Bx_server.Service.follow replica ~host:"" ~port ~wait:0.2
          ~min_sleep:0.005 ~max_sleep:0.05 ())
      ()
  in
  let max_behind = Atomic.make 0
  and max_lag_us = Atomic.make 0
  and samples = Atomic.make 0
  and stop_sampler = Atomic.make false in
  let bump cell v =
    let rec go () =
      let cur = Atomic.get cell in
      if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
    in
    go ()
  in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_sampler) do
          bump max_behind (Bx_server.Service.replication_behind replica);
          bump max_lag_us
            (int_of_float (Bx_server.Service.replication_lag replica *. 1e6));
          Atomic.incr samples;
          Thread.delay 0.002
        done)
      ()
  in
  let storm_started = Bx_obs.Clock.now () in
  for _ = 1 to storm do
    edit ()
  done;
  let storm_s = Bx_obs.Clock.now () -. storm_started in
  (* Drain: the follower reports behind = 0 once a post-storm poll has
     applied everything. *)
  let rec drain n =
    if
      Bx_server.Service.replication_behind replica > 0
      || not (Bx_server.Service.replication_synced replica)
    then
      if n > 12_000 then failwith "storm never drained"
      else begin
        Thread.delay 0.005;
        drain (n + 1)
      end
  in
  drain 0;
  let drain_s = Bx_obs.Clock.now () -. storm_started -. storm_s in
  Atomic.set stop_sampler true;
  Thread.join sampler;
  Bx_server.Service.shutdown replica;
  Thread.join follower;
  Bx_server.Service.close replica;
  Bx_server.Service.shutdown primary;
  Thread.join server;
  let summary =
    {
      rp_preload = preload;
      rp_catchup_s = catchup_s;
      rp_catchup_rate = float_of_int preload /. catchup_s;
      rp_storm = storm;
      rp_storm_s = storm_s;
      rp_drain_s = drain_s;
      rp_apply_rate = float_of_int storm /. (storm_s +. drain_s);
      rp_max_behind = Atomic.get max_behind;
      rp_max_lag_s = float_of_int (Atomic.get max_lag_us) /. 1e6;
      rp_samples = Atomic.get samples;
    }
  in
  Fmt.pr "cold catch-up     %4d records in %6.2f s  (%6.0f records/s)@."
    summary.rp_preload summary.rp_catchup_s summary.rp_catchup_rate;
  Fmt.pr
    "write storm       %4d records in %6.2f s, drained %.2f s later  \
     (%6.0f records/s applied)@."
    summary.rp_storm summary.rp_storm_s summary.rp_drain_s
    summary.rp_apply_rate;
  Fmt.pr "worst sampled lag %4d records behind, %.3f s  (%d samples)@."
    summary.rp_max_behind summary.rp_max_lag_s summary.rp_samples;
  Fmt.pr "steady state      behind 0, lag 0 after drain@.";
  summary

let write_repl_json path s =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"benchmark\": \"P9 replication\",\n";
  (* The primary serves the stream with 2 worker domains (see
     p9_replication); the follower applies on its own. *)
  out "%s" (host_meta ~domains_used:2);
  out "  \"catchup\": {\"records\": %d, \"seconds\": %.4f, \
       \"records_per_s\": %.1f},\n"
    s.rp_preload s.rp_catchup_s s.rp_catchup_rate;
  out "  \"storm\": {\"records\": %d, \"storm_s\": %.4f, \"drain_s\": %.4f, \
       \"applied_records_per_s\": %.1f},\n"
    s.rp_storm s.rp_storm_s s.rp_drain_s s.rp_apply_rate;
  out "  \"lag\": {\"max_behind_records\": %d, \"max_lag_s\": %.4f, \
       \"samples\": %d}\n"
    s.rp_max_behind s.rp_max_lag_s s.rp_samples;
  out "}\n";
  close_out oc

(* The zero-cost-when-disabled contract, enforced: with no rules
   configured a Fault.point is one atomic load, and 50 M of them must
   average under 50 ns each (real cost is well under 5; the budget only
   needs to catch an accidental table lookup or allocation on the fast
   path). *)
let fault_guard () =
  rule "fault guard: disabled failpoints must stay free";
  if Bx_fault.Fault.enabled () then begin
    Fmt.epr "fault guard FAILED: failpoints are armed in a bench run@.";
    exit 1
  end;
  let n = 50_000_000 in
  let started = Bx_obs.Clock.now () in
  for _ = 1 to n do
    Bx_fault.Fault.point "bench.fault_guard"
  done;
  let elapsed = Bx_obs.Clock.now () -. started in
  let ns = elapsed /. float_of_int n *. 1e9 in
  Fmt.pr "%d disabled Fault.point calls  %5.2f ns/call  (budget: 50 ns)@." n
    ns;
  if ns > 50.0 then begin
    Fmt.epr "fault guard FAILED: disabled failpoint costs %.2f ns/call@." ns;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* P6: the compiled regex engine.  Wall-clock throughput of the dense
   transition table against the derivative interpreter on the Composers
   source type, and the cost of constructing the full Composers string
   lens (every ambiguity analysis and splitter) with a cold versus a
   warm DFA cache.  Reported directly — the interesting numbers are
   MB/s and the speedup ratios — and recorded in the --json dump. *)

type p6_summary = {
  doc_bytes : int;
  compiled_ns : float;
  interpreted_ns : float;
  compiled_mb_s : float;
  interpreted_mb_s : float;
  match_speedup : float;
  construct_cold_ms : float;
  construct_warm_ms : float;
  construct_speedup : float;
  warm_rebuild_dfa_builds : int;
}

let time_per_run f =
  (* One warm-up call, a single timed call to calibrate, then enough
     repetitions for ~0.2 s of work. *)
  ignore (Sys.opaque_identity (f ()));
  let t0 = Bx_obs.Clock.now () in
  ignore (Sys.opaque_identity (f ()));
  let once = Bx_obs.Clock.now () -. t0 in
  let reps = max 5 (int_of_float (0.2 /. Float.max 1e-9 once)) in
  let t0 = Bx_obs.Clock.now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Bx_obs.Clock.now () -. t0) /. float_of_int reps

let p6_engine () =
  rule "P6: compiled vs interpreted matching (Composers source type)";
  let open Bx_regex in
  let stype = Bx_catalogue.Composers_string.lens.Bx_strlens.Slens.stype in
  let doc = csv_source_of_size 200 in
  let doc_bytes = String.length doc in
  let d = Dfa.compile stype in
  assert (Dfa.accepts d doc);
  assert (Regex.matches_deriv stype doc);
  let compiled = time_per_run (fun () -> Dfa.accepts d doc) in
  let interpreted = time_per_run (fun () -> Regex.matches_deriv stype doc) in
  let mb_s t = float_of_int doc_bytes /. t /. 1e6 in
  let match_speedup = interpreted /. compiled in
  Fmt.pr "document          %8d bytes (200 source lines)@." doc_bytes;
  Fmt.pr "compiled match    %10.1f us  %8.1f MB/s  (dense table)@."
    (compiled *. 1e6) (mb_s compiled);
  Fmt.pr "interpreted match %10.1f us  %8.1f MB/s  (memoised derivatives)@."
    (interpreted *. 1e6) (mb_s interpreted);
  Fmt.pr "speedup           %8.1fx (acceptance target: >= 10x)%s@."
    match_speedup
    (if match_speedup < 10.0 then "  *** BELOW TARGET ***" else "");
  (* Lens construction: cold (every DFA built) vs warm (every DFA served
     by the compile cache).  Best of five for the cold path — a single
     run is at the mercy of the allocator. *)
  let cold =
    let best = ref infinity in
    for _ = 1 to 5 do
      Dfa.cache_clear ();
      let t0 = Bx_obs.Clock.now () in
      ignore (Sys.opaque_identity (Bx_catalogue.Composers_string.build_lens ()));
      best := Float.min !best (Bx_obs.Clock.now () -. t0)
    done;
    !best
  in
  let _, m0 = Dfa.cache_stats () in
  let warm =
    time_per_run (fun () -> Bx_catalogue.Composers_string.build_lens ())
  in
  let _, m1 = Dfa.cache_stats () in
  let construct_speedup = cold /. warm in
  Fmt.pr "lens construction %10.2f ms cold  %8.2f ms warm  (%.1fx; %d DFA \
          builds during warm reruns)@."
    (cold *. 1e3) (warm *. 1e3) construct_speedup (m1 - m0);
  {
    doc_bytes;
    compiled_ns = compiled *. 1e9;
    interpreted_ns = interpreted *. 1e9;
    compiled_mb_s = mb_s compiled;
    interpreted_mb_s = mb_s interpreted;
    match_speedup;
    construct_cold_ms = cold *. 1e3;
    construct_warm_ms = warm *. 1e3;
    construct_speedup;
    warm_rebuild_dfa_builds = m1 - m0;
  }

(* ------------------------------------------------------------------ *)
(* P7: the zero-copy slice engine against the copying reference engine,
   end to end on the Composers lens.  Wall-clock per-run times for get
   and put at several document sizes, plus the batched API's scaling
   across domains.  Recorded in the --json-strlens dump
   (BENCH_strlens.json in the repo). *)

(* Words one run allocates on this domain: minor, promoted, and direct
   in the major heap. *)
type gc_words = { minor_w : float; promoted_w : float; direct_major_w : float }

type p7_row = {
  p7_lines : int;
  p7_bytes : int;
  sliced_get_ns : float;
  ref_get_ns : float;
  get_speedup : float;
  sliced_get_mb_s : float;
  sliced_put_ns : float;
  ref_put_ns : float;
  put_speedup : float;
  get_words : gc_words;
  put_words : gc_words;
}

(* Bracketed by minor collections; the least of three runs, because the
   runtime folds direct-major words into its counters a slice at a time
   and a sample can carry words allocated before it. *)
let gc_words_per_run f =
  ignore (Sys.opaque_identity (f ()));
  let once () =
    Gc.minor ();
    let a = Gc.quick_stat () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    let b = Gc.quick_stat () in
    let promoted_w = b.Gc.promoted_words -. a.Gc.promoted_words in
    {
      minor_w = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_w;
      direct_major_w = b.Gc.major_words -. a.Gc.major_words -. promoted_w;
    }
  in
  List.fold_left
    (fun a b ->
      {
        minor_w = Float.min a.minor_w b.minor_w;
        promoted_w = Float.min a.promoted_w b.promoted_w;
        direct_major_w = Float.min a.direct_major_w b.direct_major_w;
      })
    (once ()) [ once (); once () ]

type p7_batch = {
  batch_docs : int;
  batch_doc_lines : int;
  batch_workers : int;
  batch_seq_ns : float;
  batch_par_ns : float;
  batch_scaling : float;
}

(* A put row for an alignment variant the gated workloads never send:
   there, every view chunk equals its source chunk's view and is
   spliced; here chunks are re-put (every record edited, or positional
   alignment, which does not splice) or aligned by LCS. *)
type p7_put_row = {
  put_lens : string;
  put_lines : int;
  put_sliced_ns : float;
  put_ref_ns : float;
  put_speedup : float;
}

type p7_summary = {
  rows7 : p7_row list;
  batch7 : p7_batch;
  puts7 : p7_put_row list;
  lead7 : p7_row;
}

(* One get/put row of lens [l] against its copy [r] on the copying
   engine, over a [k]-record source and view. *)
let p7_row ~k (l : Bx_strlens.Slens.t) (r : Bx_strlens.Slens_ref.t) src view =
  let bytes = String.length src in
  (* The engines must agree before their times mean anything. *)
  assert (String.equal (l.get src) (r.get src));
  assert (String.equal (l.put view src) (r.put view src));
  let sliced_get = time_per_run (fun () -> l.get src) in
  let ref_get = time_per_run (fun () -> r.get src) in
  let sliced_put = time_per_run (fun () -> l.put view src) in
  let ref_put = time_per_run (fun () -> r.put view src) in
  let get_speedup = ref_get /. sliced_get in
  let put_speedup = ref_put /. sliced_put in
  let get_words = gc_words_per_run (fun () -> l.get src) in
  let put_words = gc_words_per_run (fun () -> l.put view src) in
  let pp_words w =
    Printf.sprintf "%.0f minor, %.0f promoted, %.0f direct-major words" w.minor_w w.promoted_w
      w.direct_major_w
  in
  Fmt.pr
    "lines=%5d  get %8.1f us sliced %8.1f us copying (%4.1fx, %6.1f \
     MB/s)@."
    k (sliced_get *. 1e6) (ref_get *. 1e6) get_speedup
    (float_of_int bytes /. sliced_get /. 1e6);
  Fmt.pr
    "             put %8.1f us sliced %8.1f us copying (%4.1fx)%s@."
    (sliced_put *. 1e6) (ref_put *. 1e6) put_speedup
    (if k >= 1000 && (get_speedup < 3.0 || put_speedup < 3.0) then
       "  *** BELOW 3x TARGET ***"
     else "");
  Fmt.pr "             get %s@.             put %s@." (pp_words get_words) (pp_words put_words);
  {
    p7_lines = k;
    p7_bytes = bytes;
    sliced_get_ns = sliced_get *. 1e9;
    ref_get_ns = ref_get *. 1e9;
    get_speedup;
    sliced_get_mb_s = float_of_int bytes /. sliced_get /. 1e6;
    sliced_put_ns = sliced_put *. 1e9;
    ref_put_ns = ref_put *. 1e9;
    put_speedup;
    get_words;
    put_words;
  }

let p7_strlens () =
  rule "P7: zero-copy slice engine vs copying engine (Composers end-to-end)";
  let open Bx_catalogue.Composers_string in
  let module S = Bx_strlens.Slens in
  let module R = Bx_strlens.Slens_ref in
  let rows7 =
    List.map
      (fun k -> p7_row ~k lens ref_lens (csv_source_of_size k) (csv_view_of_size k))
      [ 100; 1000 ]
  in
  (* The same records led by their newline instead of ended by it.  A
     name can extend past any accepting position, so this star's body
     is not prefix-free and its chunk scans run the suffix pass; every
     record the gated workloads send is newline-terminated, whose body
     is prefix-free. *)
  let lead7 =
    let module Rx = Bx_regex.Regex in
    let name = Rx.plus (Rx.cset (Bx_regex.Cset.range 'a' 'z')) in
    let digit = Rx.cset (Bx_regex.Cset.range '0' '9') in
    let dates = Rx.concat_list [ Rx.repeat 4 digit; Rx.chr '-'; Rx.repeat 4 digit; Rx.str ", " ] in
    let lead doc =
      if doc = "" then doc else "\n" ^ String.sub doc 0 (String.length doc - 1)
    in
    let k = 1000 in
    Fmt.pr "separator-led records (body not prefix-free):@.";
    p7_row ~k
      (S.star_key ~key:Fun.id
         (S.concat_list
            [ S.copy (Rx.chr '\n'); S.copy name; S.copy (Rx.str ", "); S.del dates ~default:"0000-0000, "; S.copy name ]))
      (R.star_key ~key:Fun.id
         (R.concat_list
            [ R.copy (Rx.chr '\n'); R.copy name; R.copy (Rx.str ", "); R.del dates ~default:"0000-0000, "; R.copy name ]))
      (lead (csv_source_of_size k)) (lead (csv_view_of_size k))
  in
  let puts7 =
    let k = 1000 in
    let src = csv_source_of_size k and view = csv_view_of_size k in
    (* Every nationality edited: each record pairs by name, none splices. *)
    let all_edited =
      String.split_on_char '\n' view
      |> List.map (fun l -> if l = "" then l else l ^ "x")
      |> String.concat "\n"
    in
    List.map
      (fun (name, l, r, view) ->
        assert (String.equal (l.S.put view src) (r.R.put view src));
        let sliced = time_per_run (fun () -> l.S.put view src) in
        let copying = time_per_run (fun () -> r.R.put view src) in
        Fmt.pr "lines=%5d  put %8.1f us sliced %8.1f us copying (%4.1fx)  %s@." k
          (sliced *. 1e6) (copying *. 1e6) (copying /. sliced) name;
        {
          put_lens = name;
          put_lines = k;
          put_sliced_ns = sliced *. 1e9;
          put_ref_ns = copying *. 1e9;
          put_speedup = copying /. sliced;
        })
      [
        ( "name_keyed_lens, every record edited",
          name_keyed_lens,
          R.star_key ~key:name_of_view_line ref_line,
          all_edited );
        ("positional_lens", positional_lens, R.star ref_line, view);
        ("diff_lens", diff_lens, R.star_diff ~key:Fun.id ref_line, view);
      ]
  in
  (* Size the fan-out to the machine: spawning domains a single-core
     container cannot run in parallel only adds stop-the-world cost. *)
  let batch_docs = 256 and batch_doc_lines = 200 in
  let batch_workers = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let docs = List.init batch_docs (fun _ -> csv_source_of_size batch_doc_lines) in
  let seq = time_per_run (fun () -> S.get_all ~workers:1 lens docs) in
  let par = time_per_run (fun () -> S.get_all ~workers:batch_workers lens docs) in
  let batch_scaling = seq /. par in
  Fmt.pr
    "batch get_all %d docs x %d lines: %8.1f us sequential %8.1f us on %d \
     domain(s) (%.1fx; %d core(s) available)@."
    batch_docs batch_doc_lines (seq *. 1e6) (par *. 1e6) batch_workers
    batch_scaling
    (Domain.recommended_domain_count ());
  {
    rows7;
    puts7;
    lead7;
    batch7 =
      {
        batch_docs;
        batch_doc_lines;
        batch_workers;
        batch_seq_ns = seq *. 1e9;
        batch_par_ns = par *. 1e9;
        batch_scaling;
      };
  }

(* ------------------------------------------------------------------ *)
(* P11: the sharded registry at catalogue scale.  The claim under test
   (ISSUE 7): search, the paginated index and per-shard export stay flat
   as the catalogue grows 10x, because they are answered by incremental
   posting-list indexes and O(page) slicing rather than whole-catalogue
   scans — and a single accepted edit persists O(entry) bytes to its
   shard's journal segment, not a whole-catalogue rewrite.  Shard count
   scales with the catalogue (~2k entries/shard) as TUTORIAL.md advises,
   so the per-shard streaming unit is constant-size.  The free-text scan
   is measured alongside as the honest contrast: it is the one query
   shape that still grows linearly.  Latencies are reported as p50 over
   repeated calls — the acceptance criterion — so one call that absorbs
   a major-GC slice (whose cost tracks live-heap size, not the
   algorithm) does not misprice the typical request.  --json-shard
   dumps the rows (committed as BENCH_shard.json). *)

type p11_row = {
  p11_entries : int;
  p11_shards : int;
  p11_search_us : float;  (* indexed needle /search (unique author) *)
  p11_scan_us : float;  (* free-text scan — the linear contrast *)
  p11_index_us : float;  (* GET / mid-catalogue page, 100 entries *)
  p11_export_shard_us : float;  (* one shard's export (streaming unit) *)
  p11_digest_us : float;  (* GET /replication/digest — O(shards) claim *)
  p11_export_shard_pages : int;
  p11_post_bytes : int;  (* journal bytes one accepted edit persists *)
  p11_dump_bytes_approx : int;  (* what a whole-catalogue rewrite costs *)
}

(* Nearest-rank [p]th percentile of an ascending array (0. if empty). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* Median seconds per call of [f] on a fresh [prepare ()], which is left
   off the clock: three warm-up calls, then samples for ~0.3 s (at least
   9, at most 2000). *)
let p50_prepared ~prepare ~f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f (prepare ())))
  done;
  let samples = ref [] in
  let started = Bx_obs.Clock.now () in
  let n = ref 0 in
  while !n < 9 || (Bx_obs.Clock.now () -. started < 0.3 && !n < 2000) do
    let x = prepare () in
    let t0 = Bx_obs.Clock.now_ns () in
    ignore (Sys.opaque_identity (f x));
    samples := (float_of_int (Bx_obs.Clock.now_ns () - t0) *. 1e-9) :: !samples;
    incr n
  done;
  let sorted = Array.of_list !samples in
  Array.sort compare sorted;
  percentile sorted 50.

let p50_per_run f = p50_prepared ~prepare:ignore ~f

let rec dir_bytes d =
  Array.fold_left
    (fun acc name ->
      let p = Filename.concat d name in
      if Sys.is_directory p then acc + dir_bytes p
      else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir d)

(* A needle entry whose author appears nowhere else: the indexed search
   for it returns one identifier whatever the catalogue size, so its
   latency curve is the index's, not the result set's. *)
let p11_probe =
  {
    Bx_catalogue.Composers.template with
    Bx_repo.Template.title = "Flat Latency Probe";
    authors = [ Bx_repo.Contributor.make ~affiliation:"Bench" "Needle Probe" ];
  }

let p11_sharded ~sizes () =
  rule "P11: sharded registry — search/index/export latency vs catalogue size";
  let rows =
    List.map
      (fun entries ->
        let shards = max 1 (entries / 2000) in
        let dir = Filename.temp_file "bx-bench-shard" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let config =
          {
            Bx_server.Service.default_config with
            journal_dir = Some dir;
            shards;
            compact_every = 0;
          }
        in
        let seed () =
          let reg = Bx_load.Corpus.seed_registry ~shards ~entries ~seed:1 () in
          (match
             Bx_repo.Registry.submit reg
               ~as_:(Bx_repo.Curation.account "Needle Probe")
               p11_probe
           with
          | Ok _ -> ()
          | Error e -> failwith (Bx_repo.Registry.error_message e));
          reg
        in
        let service =
          match Bx_server.Service.create ~config ~seed () with
          | Ok t -> t
          | Error e -> failwith e
        in
        let probe_id =
          match Bx_repo.Identifier.of_title p11_probe.Bx_repo.Template.title with
          | Ok id -> id
          | Error e -> failwith e
        in
        let probe_path = "/" ^ Bx_repo.Identifier.wiki_path probe_id in
        let search_us, scan_us, index_us, export_shard_us, pages, dump_approx =
          Bx_server.Service.with_registry service (fun reg ->
              let get ~query path =
                let r =
                  Bx_repo.Webui.handle ~query reg ~meth:"GET" ~path ~body:""
                in
                if r.Bx_repo.Webui.status <> 200 then
                  failwith
                    (Printf.sprintf "P11 GET %s?%s -> %d" path query
                       r.Bx_repo.Webui.status)
              in
              let search_us =
                p50_per_run (fun () ->
                    get ~query:"author=Needle+Probe" "/search")
                *. 1e6
              in
              (* A page that exists in full at every measured size —
                 comparing a clamped partial page against a full one
                 would misread O(page) cost as growth. *)
              let index_us =
                p50_per_run (fun () -> get ~query:"page=5&per_page=100" "/")
                *. 1e6
              in
              let k = Bx_repo.Registry.shard_of_id reg probe_id in
              let export_shard_us =
                p50_per_run (fun () -> Bx_repo.Registry.export_shard reg k)
                *. 1e6
              in
              (* The scan goes last: its per-call allocation churn (it
                 rebuilds every entry's text) would otherwise distort
                 the flat measurements that follow it. *)
              let scan_us =
                p50_per_run (fun () -> get ~query:"q=undoability" "/search")
                *. 1e6
              in
              let shard_pages = Bx_repo.Registry.export_shard reg k in
              let shard_bytes =
                List.fold_left
                  (fun acc (p, body) ->
                    acc + String.length p + String.length body)
                  0 shard_pages
              in
              ( search_us,
                scan_us,
                index_us,
                export_shard_us,
                List.length shard_pages,
                shard_bytes * shards ))
        in
        (* The anti-entropy digest must cost O(shards), not O(entries):
           per-shard values are maintained incrementally on every write,
           so serving the vector renders [shards] lines. *)
        let digest_us =
          p50_per_run (fun () ->
              let r =
                Bx_server.Service.handle service ~meth:"GET"
                  ~path:"/replication/digest" ~body:""
              in
              if r.Bx_repo.Webui.status <> 200 then
                failwith
                  (Printf.sprintf "P11 GET /replication/digest -> %d"
                     r.Bx_repo.Webui.status))
          *. 1e6
        in
        (* One accepted edit: the bytes that land in the journal are the
           persistence cost of the write — per-entry, not per-catalogue. *)
        let wiki =
          (Bx_server.Service.handle service ~meth:"GET"
             ~path:(probe_path ^ ".wiki") ~body:"")
            .Bx_repo.Webui.body
        in
        let before = dir_bytes dir in
        let resp =
          Bx_server.Service.handle service ~meth:"POST" ~path:probe_path
            ~body:wiki
        in
        if resp.Bx_repo.Webui.status <> 200 then
          failwith
            (Printf.sprintf "P11 POST %s -> %d" probe_path
               resp.Bx_repo.Webui.status);
        let post_bytes = dir_bytes dir - before in
        Bx_server.Service.close service;
        let row =
          {
            p11_entries = entries;
            p11_shards = shards;
            p11_search_us = search_us;
            p11_scan_us = scan_us;
            p11_index_us = index_us;
            p11_export_shard_us = export_shard_us;
            p11_digest_us = digest_us;
            p11_export_shard_pages = pages;
            p11_post_bytes = post_bytes;
            p11_dump_bytes_approx = dump_approx;
          }
        in
        Fmt.pr
          "entries=%7d shards=%3d  search %8.1f us  index-page %8.1f us  \
           export-shard %8.1f us (%d pages)  digest %6.1f us  text-scan \
           %9.1f us@."
          entries shards search_us index_us export_shard_us pages digest_us
          scan_us;
        Fmt.pr
          "                          one edit persists %d bytes (full dump \
           ~%d bytes: %.0fx more)@."
          post_bytes dump_approx
          (float_of_int dump_approx /. float_of_int (max 1 post_bytes));
        row)
      sizes
  in
  (match rows with
  | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      let ratio f = f last /. Float.max 1e-9 (f first) in
      let flat name f =
        let r = ratio f in
        Fmt.pr "%-14s %6.1fx grown catalogue -> %4.2fx latency%s@." name
          (float_of_int last.p11_entries /. float_of_int first.p11_entries)
          r
          (if r > 2.0 then "  *** NOT FLAT (target <= 2x) ***" else "")
      in
      flat "search" (fun r -> r.p11_search_us);
      flat "index page" (fun r -> r.p11_index_us);
      flat "export shard" (fun r -> r.p11_export_shard_us);
      flat "digest" (fun r -> r.p11_digest_us)
  | _ -> ());
  rows

let write_shard_json path rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"benchmark\": \"P11 sharded registry\",\n";
  out "%s" (host_meta ~domains_used:1);
  out "  \"flat_latency_target\": 2.0,\n";
  (match rows with
  | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      let ratio f = f last /. Float.max 1e-9 (f first) in
      out "  \"growth\": %g,\n"
        (float_of_int last.p11_entries /. float_of_int first.p11_entries);
      out "  \"search_latency_ratio\": %.3f,\n"
        (ratio (fun r -> r.p11_search_us));
      out "  \"index_latency_ratio\": %.3f,\n"
        (ratio (fun r -> r.p11_index_us));
      out "  \"export_shard_latency_ratio\": %.3f,\n"
        (ratio (fun r -> r.p11_export_shard_us));
      out "  \"digest_latency_ratio\": %.3f,\n"
        (ratio (fun r -> r.p11_digest_us))
  | _ -> ());
  out "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"entries\": %d, \"shards\": %d, \"search_us\": %.1f, \
         \"text_scan_us\": %.1f, \"index_page_us\": %.1f, \
         \"export_shard_us\": %.1f, \"digest_us\": %.1f, \
         \"export_shard_pages\": %d, \"edit_journal_bytes\": %d, \
         \"full_dump_bytes_approx\": %d}%s\n"
        r.p11_entries r.p11_shards r.p11_search_us r.p11_scan_us
        r.p11_index_us r.p11_export_shard_us r.p11_digest_us
        r.p11_export_shard_pages r.p11_post_bytes r.p11_dump_bytes_approx
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Harness *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"bx" ~fmt:"%s %s" tests)
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

(* Every P-series row as (name, ns-per-run), sorted by name; the common
   substrate of the printed table and the --json dump. *)
let result_rows results =
  let table = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) table [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> (name, Some est)
      | _ -> (name, None))
    rows

let print_rows rows =
  Fmt.pr "@.%-50s %15s@." "benchmark" "time/run";
  Fmt.pr "%s@." (String.make 66 '-');
  List.iter
    (fun (name, est) ->
      match est with
      | Some est ->
          let value, unit =
            if est >= 1e6 then (est /. 1e6, "ms")
            else if est >= 1e3 then (est /. 1e3, "us")
            else (est, "ns")
          in
          Fmt.pr "%-50s %12.2f %s@." name value unit
      | None -> Fmt.pr "%-50s %15s@." name "n/a")
    rows

(* ------------------------------------------------------------------ *)
(* JSON dump (--json).  Hand-rolled — the repo deliberately carries no
   JSON dependency beyond its own wiki codec. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~p6 ~series =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"suite\": \"bx bench\",\n";
  (* 4 = the pooled-service worker count in p4_server_throughput. *)
  add "%s" (host_meta ~domains_used:4);
  add "  \"p6_compiled_engine\": {\n";
  add "    \"doc_bytes\": %d,\n" p6.doc_bytes;
  add "    \"compiled_ns_per_match\": %.1f,\n" p6.compiled_ns;
  add "    \"interpreted_ns_per_match\": %.1f,\n" p6.interpreted_ns;
  add "    \"compiled_mb_per_s\": %.2f,\n" p6.compiled_mb_s;
  add "    \"interpreted_mb_per_s\": %.2f,\n" p6.interpreted_mb_s;
  add "    \"match_speedup\": %.2f,\n" p6.match_speedup;
  add "    \"match_speedup_target\": 10.0,\n";
  add "    \"lens_construction_cold_ms\": %.3f,\n" p6.construct_cold_ms;
  add "    \"lens_construction_warm_ms\": %.3f,\n" p6.construct_warm_ms;
  add "    \"lens_construction_speedup\": %.2f,\n" p6.construct_speedup;
  add "    \"dfa_builds_during_warm_reruns\": %d\n" p6.warm_rebuild_dfa_builds;
  add "  },\n";
  add "  \"series\": [\n";
  let last = List.length series - 1 in
  List.iteri
    (fun i (name, est) ->
      add "    { \"name\": \"%s\", \"ns_per_run\": %s }%s\n" (json_escape name)
        (match est with
        | Some e -> Printf.sprintf "%.2f" e
        | None -> "null")
        (if i = last then "" else ","))
    series;
  add "  ]\n";
  add "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

let write_strlens_json path ~p7 =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"suite\": \"bx strlens engine\",\n";
  add "%s" (host_meta ~domains_used:p7.batch7.batch_workers);
  add "  \"baseline\": \"copying engine (Slens_ref)\",\n";
  add "  \"speedup_target\": 3.0,\n";
  add "  \"rows\": [\n";
  let last = List.length p7.rows7 - 1 in
  let words w =
    Printf.sprintf "{ \"minor\": %.0f, \"promoted\": %.0f, \"direct_major\": %.0f }" w.minor_w
      w.promoted_w w.direct_major_w
  in
  List.iteri
    (fun i r ->
      add
        "    { \"lines\": %d, \"bytes\": %d, \"sliced_get_ns\": %.1f, \
         \"copying_get_ns\": %.1f, \"get_speedup\": %.2f, \
         \"sliced_get_mb_per_s\": %.2f, \"sliced_put_ns\": %.1f, \
         \"copying_put_ns\": %.1f, \"put_speedup\": %.2f, \
         \"get_words_per_op\": %s, \"put_words_per_op\": %s }%s\n"
        r.p7_lines r.p7_bytes r.sliced_get_ns r.ref_get_ns r.get_speedup
        r.sliced_get_mb_s r.sliced_put_ns r.ref_put_ns r.put_speedup (words r.get_words)
        (words r.put_words)
        (if i = last then "" else ","))
    p7.rows7;
  add "  ],\n";
  add "  \"put_rows\": [\n";
  let last = List.length p7.puts7 - 1 in
  List.iteri
    (fun i r ->
      add
        "    { \"lens\": %S, \"lines\": %d, \"sliced_put_ns\": %.1f, \
         \"copying_put_ns\": %.1f, \"put_speedup\": %.2f }%s\n"
        r.put_lens r.put_lines r.put_sliced_ns r.put_ref_ns r.put_speedup
        (if i = last then "" else ","))
    p7.puts7;
  add "  ],\n";
  let r = p7.lead7 in
  add
    "  \"separator_led_row\": { \"lines\": %d, \"bytes\": %d, \"prefix_free\": false, \
     \"sliced_get_ns\": %.1f, \"copying_get_ns\": %.1f, \"get_speedup\": %.2f, \
     \"sliced_put_ns\": %.1f, \"copying_put_ns\": %.1f, \"put_speedup\": %.2f },\n"
    r.p7_lines r.p7_bytes r.sliced_get_ns r.ref_get_ns r.get_speedup r.sliced_put_ns
    r.ref_put_ns r.put_speedup;
  let b = p7.batch7 in
  add "  \"batch_get_all\": {\n";
  add "    \"documents\": %d,\n" b.batch_docs;
  add "    \"lines_per_document\": %d,\n" b.batch_doc_lines;
  add "    \"workers\": %d,\n" b.batch_workers;
  add "    \"cores_available\": %d,\n" (Domain.recommended_domain_count ());
  add "    \"sequential_ns\": %.1f,\n" b.batch_seq_ns;
  add "    \"parallel_ns\": %.1f,\n" b.batch_par_ns;
  add "    \"scaling\": %.2f\n" b.batch_scaling;
  add "  }\n";
  add "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* P12: delta propagation against full recomputation (ISSUE 8).  The
   claim under test: a single-line edit to an n-line composer document
   through Slens_delta.put_delta costs O(edit window), not O(n) — at
   1000 lines it should beat the (already zero-copy) full put by >= 20x
   — and the journal record a patch persists is a few percent of the
   full-document record a non-delta pipeline would write.  Timing is
   the realistic steady state: the document evolves edit by edit and
   the delta cache follows, so every sample pays exactly what the
   docstore's patch endpoint pays.  Edit construction (the client's
   work) happens outside the timed region.  p50 over >= 9 samples
   after 3 warm-ups, as in P11.  --json-delta dumps the rows
   (committed as BENCH_delta.json). *)

type p12_row = {
  p12_lines : int;
  p12_bytes : int;
  delta_put_us : float;
  full_put_us : float;
  p12_put_speedup : float;
  delta_get_us : float;
  full_get_us : float;
  p12_get_speedup : float;
  edit_record_bytes : int;
  full_record_bytes : int;
  edit_record_pct : float;
  put_fast_share : float;
}

(* Replace the final comma-field (the nationality) of one line with
   [word], rotating through the document — a fresh letters-only word
   keeps the document inside the lens's types while guaranteeing the
   line actually changes. *)
let p12_edit_line doc line word =
  let lines = String.split_on_char '\n' doc in
  let n = max 1 (List.length lines - 1) in
  let target = line mod n in
  String.concat "\n"
    (List.mapi
       (fun i l ->
         if i <> target || l = "" then l
         else
           match String.rindex_opt l ',' with
           | None -> l
           | Some c -> String.sub l 0 c ^ ", " ^ word)
       lines)

let p12_word i =
  Printf.sprintf "q%c%c"
    (Char.chr (Char.code 'a' + (i mod 26)))
    (Char.chr (Char.code 'a' + (i / 26 mod 26)))

let p12_delta ~sizes () =
  rule "P12: delta propagation vs full recomputation (single-line edits)";
  let module S = Bx_strlens.Slens in
  let module D = Bx_strlens.Slens_delta in
  let module Sd = Bx_strlens.Sdiff in
  let lens = Bx_catalogue.Composers_string.lens in
  List.map
    (fun k ->
      let src0 = csv_source_of_size k in
      (* Not [csv_view_of_size]: that view is deliberately shuffled and
         renamed to stress keyed realignment.  Delta propagation starts
         from a consistent pair, as the docstore guarantees. *)
      let view0 = lens.S.get src0 in
      let bytes = String.length src0 in
      (* The tiers must agree with the full engine before their times
         mean anything. *)
      let v1 = p12_edit_line view0 (k / 2) "qzz" in
      let e1 = Sd.diff view0 v1 in
      let check_cache = D.make_cache () in
      let ns1, se1 =
        D.put_delta lens ~cache:check_cache ~source:src0 ~view:view0 e1
      in
      assert (String.equal ns1 (lens.S.put v1 src0));
      assert (String.equal (Sd.apply src0 se1) ns1);
      (* put: steady state, document evolving under its cache. *)
      let src = ref src0 and view = ref view0 in
      let cache = D.make_cache () in
      let counter = ref 0 in
      D.reset_stats ();
      let delta_put =
        p50_prepared
          ~prepare:(fun () ->
            incr counter;
            let v' = p12_edit_line !view !counter (p12_word !counter) in
            (Sd.diff !view v', v'))
          ~f:(fun (edit, v') ->
            let ns, _ = D.put_delta lens ~cache ~source:!src ~view:!view edit in
            src := ns;
            view := v')
      in
      let ds = D.stats () in
      let put_calls = ds.D.fast_puts + ds.D.slow_puts + ds.D.fallback_puts in
      let put_fast_share =
        if put_calls = 0 then 0.
        else float_of_int ds.D.fast_puts /. float_of_int put_calls
      in
      let full_put = p50_per_run (fun () -> lens.S.put v1 src0) in
      (* get: the mirror direction, source edits propagated forward. *)
      let src = ref src0 and view = ref view0 in
      let gcache = D.make_cache () in
      let delta_get =
        p50_prepared
          ~prepare:(fun () ->
            incr counter;
            let s' = p12_edit_line !src !counter (p12_word !counter) in
            (Sd.diff !src s', s'))
          ~f:(fun (edit, s') ->
            let nv, _ =
              D.get_delta lens ~cache:gcache ~source:!src ~view:!view edit
            in
            view := nv;
            src := s')
      in
      let s1 = p12_edit_line src0 (k / 2) "qzz" in
      let full_get = p50_per_run (fun () -> lens.S.get s1) in
      (* What the journal persists for a patch vs for a full document:
         real v2 record framing, path and all. *)
      let rs = "\x1e" in
      let patch_body = "doc-1" ^ rs ^ "42" ^ rs ^ Sd.encode e1 in
      let edit_record_bytes =
        String.length
          (Bx_server.Journal.encode ~seq:1000
             ~path:"/slens/composers/patch" ~body:patch_body)
      in
      let full_record_bytes =
        String.length
          (Bx_server.Journal.encode ~seq:1000
             ~path:"/slens/composers/doc/doc-1" ~body:ns1)
      in
      let edit_record_pct =
        100. *. float_of_int edit_record_bytes /. float_of_int full_record_bytes
      in
      let p12_put_speedup = full_put /. delta_put in
      let p12_get_speedup = full_get /. delta_get in
      Fmt.pr
        "lines=%5d  put_delta %8.1f us vs full put %8.1f us (%5.1fx, fast \
         share %.2f)%s@."
        k (delta_put *. 1e6) (full_put *. 1e6) p12_put_speedup put_fast_share
        (if k = 1000 && p12_put_speedup < 20.0 then
           "  *** BELOW 20x TARGET ***"
         else "");
      Fmt.pr
        "             get_delta %8.1f us vs full get %8.1f us (%5.1fx)@."
        (delta_get *. 1e6) (full_get *. 1e6) p12_get_speedup;
      Fmt.pr
        "             journal record: %d B edit vs %d B full document \
         (%.2f%%)%s@."
        edit_record_bytes full_record_bytes edit_record_pct
        (if k = 1000 && edit_record_pct > 5.0 then
           "  *** ABOVE 5%% TARGET ***"
         else "");
      {
        p12_lines = k;
        p12_bytes = bytes;
        delta_put_us = delta_put *. 1e6;
        full_put_us = full_put *. 1e6;
        p12_put_speedup;
        delta_get_us = delta_get *. 1e6;
        full_get_us = full_get *. 1e6;
        p12_get_speedup;
        edit_record_bytes;
        full_record_bytes;
        edit_record_pct;
        put_fast_share;
      })
    sizes

let write_delta_json path rows =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"suite\": \"bx delta propagation\",\n";
  add "%s" (host_meta ~domains_used:1);
  add "  \"baseline\": \"full put/get through the zero-copy slice engine\",\n";
  add "  \"edit_shape\": \"single-line nationality replacement, rotating \
       line, steady-state cache\",\n";
  add "  \"method\": \"p50 over >= 9 samples after 3 warm-ups; edit \
       construction untimed\",\n";
  add "  \"put_speedup_target_at_1000_lines\": 20.0,\n";
  add "  \"edit_record_max_pct\": 5.0,\n";
  add "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      add
        "    { \"lines\": %d, \"bytes\": %d, \"delta_put_us\": %.2f, \
         \"full_put_us\": %.2f, \"put_speedup\": %.1f, \"put_fast_share\": \
         %.3f, \"delta_get_us\": %.2f, \"full_get_us\": %.2f, \
         \"get_speedup\": %.1f, \"edit_record_bytes\": %d, \
         \"full_record_bytes\": %d, \"edit_record_pct\": %.2f }%s\n"
        r.p12_lines r.p12_bytes r.delta_put_us r.full_put_us
        r.p12_put_speedup r.put_fast_share r.delta_get_us r.full_get_us
        r.p12_get_speedup r.edit_record_bytes r.full_record_bytes
        r.edit_record_pct
        (if i = last then "" else ","))
    rows;
  add "  ]\n";
  add "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* P13: end-to-end integrity (ISSUE 9).  Three claims under test on one
   journal-backed store seeded with a generated corpus: (a) a full
   scrub pass — journal CRCs, snapshot DIGESTS, entry round-trip laws,
   document view/source agreement — covers the store at a useful rate
   and reports zero findings on clean bytes; (b) single-bit flips
   injected across every cold surface (segment logs, snapshot pages,
   DOCS.bxdocs, MANIFESTs) are all caught — each flipped file ends up
   quarantined by the scrubber or repaired to a clean prefix by boot
   recovery, with nothing silently served; (c) running the background
   scrubber under a read-heavy open-loop load moves p50/p99 by less
   than 10% — the token bucket keeps the tax invisible.  --json-integrity
   dumps the summary (committed as BENCH_integrity.json). *)

type p13_tax = {
  tax_ok : int;
  tax_shed : int;
  tax_failed : int;
  tax_p50_us : int;
  tax_p99_us : int;
}

type p13_summary = {
  p13_entries : int;
  p13_shards : int;
  p13_store_bytes : int;
  p13_scrub_items : int;
  p13_scrub_seconds : float;
  p13_items_per_s : float;
  p13_mb_per_s : float;
  p13_false_positives : int;
  p13_injected : int;
  p13_detected : int;
  p13_quarantined : int;
  p13_repaired_at_boot : int;
  p13_tax_rate : float;
  p13_tax_scrub_rate : int;
  p13_tax_off : p13_tax;
  p13_tax_on : p13_tax;
  p13_p50_delta_pct : float;
  p13_p99_delta_pct : float;
}

let p13_integrity ~entries () =
  rule "P13: integrity — scrub throughput, corruption detection, scrub tax";
  let shards = max 2 (min 64 (entries / 2000)) in
  let dir = Filename.temp_file "bx-bench-integrity" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let lenses = [ ("composers", Bx_catalogue.Composers_string.lens) ] in
  let seed () = Bx_load.Corpus.seed_registry ~shards ~entries ~seed:1 () in
  let create ?(scrub_rate = 0) () =
    let config =
      {
        Bx_server.Service.default_config with
        journal_dir = Some dir;
        shards;
        compact_every = 0;
        scrub_rate;
      }
    in
    match Bx_server.Service.create ~config ~lenses ~seed () with
    | Ok t -> t
    | Error e -> failwith ("P13 service: " ^ e)
  in
  let targets = Bx_load.Corpus.wiki_paths ~entries ~seed:1 in
  (* Land a few accepted edits so the segment journals hold records at
     rest — p11-style: re-POST the fetched page. *)
  let land_edits svc =
    let n = min entries (max 24 (2 * shards)) in
    for i = 0 to n - 1 do
      let path = targets.((i * 97) mod Array.length targets) in
      let page =
        (Bx_server.Service.handle svc ~meth:"GET" ~path:(path ^ ".wiki")
           ~body:"")
          .Bx_repo.Webui.body
      in
      let r = Bx_server.Service.handle svc ~meth:"POST" ~path ~body:page in
      if r.Bx_repo.Webui.status <> 200 then
        failwith
          (Printf.sprintf "P13 POST %s -> %d" path r.Bx_repo.Webui.status)
    done
  in
  (* Phase 1 — build the store and time one clean scrub pass. *)
  let svc = create () in
  let doc_src = Bx_catalogue.Composers_string.synthetic_source 5 in
  (let r =
     Bx_server.Service.handle svc ~meth:"POST"
       ~path:"/slens/composers/doc/bench-doc" ~body:doc_src
   in
   if r.Bx_repo.Webui.status <> 200 then
     failwith
       (Printf.sprintf "P13 doc create -> %d" r.Bx_repo.Webui.status));
  (match Bx_server.Service.checkpoint svc with
  | Ok _ -> ()
  | Error e -> failwith ("P13 checkpoint: " ^ e));
  land_edits svc;
  let store_bytes = dir_bytes dir in
  let t0 = Bx_obs.Clock.now () in
  let scrub_items, clean_findings = Bx_server.Service.scrub_once svc in
  let scrub_seconds = Bx_obs.Clock.now () -. t0 in
  let false_positives = List.length clean_findings in
  List.iter
    (fun (name, why) -> Fmt.pr "P13 false positive: %s: %s@." name why)
    clean_findings;
  Bx_server.Service.close svc;
  let items_per_s = float_of_int scrub_items /. scrub_seconds in
  let mb_per_s = float_of_int store_bytes /. scrub_seconds /. 1e6 in
  Fmt.pr "store: %d entries, %d shards, %.1f MB on disk@." entries shards
    (float_of_int store_bytes /. 1e6);
  Fmt.pr
    "scrub: %d items in %.2f s — %.0f items/s, %.1f MB/s, %d false \
     positive(s)%s@."
    scrub_items scrub_seconds items_per_s mb_per_s false_positives
    (if false_positives > 0 then "  *** CLEAN STORE FLAGGED ***" else "");
  (* Phase 2 — scrub tax: the same read-heavy open-loop load with the
     scrubber off, then on.  Serving re-checkpoints on shutdown, which
     is why corruption injection waits for phase 3. *)
  (* The offered load is calibrated, not fixed: an open-loop driver on
     a saturated server measures backlog, not the scrubber.  A short
     saturating probe through the real socket path measures what this
     host actually serves; the tax runs offer 30% of that, so the
     scrubber's cost shows up as latency, not as queueing collapse.
     The scrub rate is an operator knob; pick one the host can afford
     (paced scrubbing is a few percent of one core). *)
  let cores = Domain.recommended_domain_count () in
  let tax_domains = max 1 (min 4 (cores / 2))
  and tax_scrub_rate = max 100 (min 2000 (500 * (cores - 1))) in
  let with_server ~scrub_rate f =
    let svc = create ~scrub_rate () in
    let server =
      Thread.create
        (fun () ->
          match
            Bx_server.Service.serve svc ~port:0 ~workers:(tax_domains + 2)
              ~quiet:true ()
          with
          | Ok () -> ()
          | Error e -> Fmt.epr "P13 serve: %s@." e)
        ()
    in
    let rec wait_port n =
      match Bx_server.Service.port svc with
      | Some p -> p
      | None ->
          if n > 1000 then failwith "P13 service never bound"
          else begin
            Thread.delay 0.01;
            wait_port (n + 1)
          end
    in
    let port = wait_port 0 in
    let r = f port in
    Bx_server.Service.shutdown svc;
    Thread.join server;
    r
  in
  let load ~port ~rate ~warmup ~duration =
    let spec =
      {
        Bx_load.Loadgen.port;
        profile = Bx_load.Workload.read_heavy;
        pacing = Bx_load.Arrival.Poisson;
        rate;
        domains = tax_domains;
        warmup;
        duration;
        seed = 1;
        targets;
      }
    in
    match Bx_load.Loadgen.run spec with
    | Ok r -> r
    | Error e -> failwith ("P13 loadgen: " ^ e)
  in
  (* Per mode: three measured repetitions against one server, medians
     per quantile — a single rep's p99 is one scheduling hiccup away
     from either sign. *)
  let measure ~port ~rate =
    let reps =
      List.init 5 (fun _ -> load ~port ~rate ~warmup:0.5 ~duration:4.0)
    in
    let median f =
      let sorted = List.sort compare (List.map f reps) in
      List.nth sorted (List.length sorted / 2)
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
    {
      tax_ok = sum (fun r -> r.Bx_load.Loadgen.ok);
      tax_shed = sum (fun r -> r.Bx_load.Loadgen.shed);
      tax_failed = sum (fun r -> r.Bx_load.Loadgen.failed);
      tax_p50_us = median (fun r -> Bx_obs.Hist.quantile r.latency 0.5);
      tax_p99_us = median (fun r -> Bx_obs.Hist.quantile r.latency 0.99);
    }
  in
  let tax_off, tax_rate =
    with_server ~scrub_rate:0 (fun port ->
        let probe = load ~port ~rate:5000. ~warmup:0.5 ~duration:2.0 in
        let rate =
          Float.max 20. (0.30 *. probe.Bx_load.Loadgen.throughput)
        in
        (measure ~port ~rate, rate))
  in
  let tax_on =
    with_server ~scrub_rate:tax_scrub_rate (fun port ->
        measure ~port ~rate:tax_rate)
  in
  let delta_pct a b =
    100. *. (float_of_int b -. float_of_int a) /. float_of_int (max 1 a)
  in
  let p50_delta = delta_pct tax_off.tax_p50_us tax_on.tax_p50_us in
  let p99_delta = delta_pct tax_off.tax_p99_us tax_on.tax_p99_us in
  (* A percentage over sub-millisecond medians is scheduler noise, not
     scrubber cost: only flag a regression that is both relatively and
     absolutely real. *)
  let over q_off q_on delta =
    delta > 10.0 && q_on - q_off > 1000
  in
  Fmt.pr
    "tax: read-heavy %.0f req/s — scrub off p50/p99 %d/%d us, on \
     (rate=%d/s) %d/%d us -> p50 %+.1f%%, p99 %+.1f%%%s@."
    tax_rate tax_off.tax_p50_us tax_off.tax_p99_us tax_scrub_rate
    tax_on.tax_p50_us tax_on.tax_p99_us p50_delta p99_delta
    (if
       over tax_off.tax_p99_us tax_on.tax_p99_us p99_delta
       || over tax_off.tax_p50_us tax_on.tax_p50_us p50_delta
     then "  *** ABOVE 10% TARGET ***"
     else "");
  (* Phase 3 — corruption detection.  Shutdown's final checkpoint left
     the journals empty, so land fresh edits and close without sealing;
     then flip one bit in each chosen file across every cold surface. *)
  let svc = create () in
  land_edits svc;
  Bx_server.Service.close svc;
  let seg k = Filename.concat dir (Printf.sprintf "shard-%03d" k) in
  let snap k = Filename.concat (seg k) "snapshot" in
  let file_size p = (Unix.stat p).Unix.st_size in
  let candidates surface =
    List.concat_map
      (fun k ->
        let key name = Printf.sprintf "shard-%03d/%s" k name in
        match surface with
        | `Journal ->
            let p = Filename.concat (seg k) "journal.log" in
            if Sys.file_exists p && file_size p > 0 then
              [ (p, key "journal.log", "journal") ]
            else []
        | `Manifest ->
            let p = Filename.concat (snap k) "MANIFEST" in
            if Sys.file_exists p && file_size p > 0 then
              [ (p, key "MANIFEST", "manifest") ]
            else []
        | `Docs ->
            let p = Filename.concat (snap k) "DOCS.bxdocs" in
            if Sys.file_exists p && file_size p > 0 then
              [ (p, key "DOCS.bxdocs", "docs") ]
            else []
        | `Page ->
            if not (Sys.is_directory (snap k)) then []
            else
              Array.to_list (Sys.readdir (snap k))
              |> List.filter (fun name ->
                     Bx_server.Integrity.Digests.covered name
                     && name <> "DOCS.bxdocs")
              |> List.sort compare
              |> List.map (fun name ->
                     (Filename.concat (snap k) name, key name, "page")))
      (List.init shards (fun k -> k))
  in
  let take n l =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go n l
  in
  let spread n l =
    let arr = Array.of_list l in
    let len = Array.length arr in
    if len <= n then Array.to_list arr
    else List.init n (fun i -> arr.(i * len / n))
  in
  let journals = take 12 (candidates `Journal) in
  let manifests = take 4 (candidates `Manifest) in
  let docs = take 1 (candidates `Docs) in
  let fixed = journals @ manifests @ docs in
  let pages = spread (max 0 (60 - List.length fixed)) (candidates `Page) in
  let chosen = fixed @ pages in
  let rng = Random.State.make [| 0x9e3779b9; entries; shards |] in
  let victims =
    List.map
      (fun (path, key, surface) ->
        let bytes =
          In_channel.with_open_bin path (fun ic ->
              Bytes.of_string (In_channel.input_all ic))
        in
        let len = Bytes.length bytes in
        let byte = Random.State.int rng len in
        let bit = Random.State.int rng 8 in
        Bytes.set bytes byte
          (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl bit)));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc bytes);
        (path, key, surface, len))
      chosen
  in
  let injected = List.length victims in
  (* Boot recovers what it can (dirty journal tails truncate to the
     clean prefix, corrupt snapshot files are skipped and flagged); one
     scrub pass must quarantine everything else.  A flip is detected
     iff its file is quarantined or boot rewrote it. *)
  let svc = create () in
  let _, _ = Bx_server.Service.scrub_once svc in
  let q = Bx_server.Service.quarantine svc in
  let quarantined, repaired =
    List.fold_left
      (fun (quarantined, repaired) (path, key, _surface, pre_len) ->
        let module Q = Bx_server.Integrity.Quarantine in
        if Q.find q (Q.File key) <> None then (quarantined + 1, repaired)
        else if
          (not (Sys.file_exists path)) || file_size path <> pre_len
        then (quarantined, repaired + 1)
        else begin
          Fmt.pr "P13 UNDETECTED: flip of %s (key %s) survived@." path key;
          (quarantined, repaired)
        end)
      (0, 0) victims
  in
  Bx_server.Service.close svc;
  let detected = quarantined + repaired in
  Fmt.pr
    "inject: %d single-bit flips (%d journal, %d manifest, %d docstore, %d \
     pages) — %d detected (%d quarantined, %d repaired at boot)%s@."
    injected (List.length journals) (List.length manifests)
    (List.length docs) (List.length pages) detected quarantined repaired
    (if detected < injected then "  *** CORRUPTION MISSED ***" else "");
  {
    p13_entries = entries;
    p13_shards = shards;
    p13_store_bytes = store_bytes;
    p13_scrub_items = scrub_items;
    p13_scrub_seconds = scrub_seconds;
    p13_items_per_s = items_per_s;
    p13_mb_per_s = mb_per_s;
    p13_false_positives = false_positives;
    p13_injected = injected;
    p13_detected = detected;
    p13_quarantined = quarantined;
    p13_repaired_at_boot = repaired;
    p13_tax_rate = tax_rate;
    p13_tax_scrub_rate = tax_scrub_rate;
    p13_tax_off = tax_off;
    p13_tax_on = tax_on;
    p13_p50_delta_pct = p50_delta;
    p13_p99_delta_pct = p99_delta;
  }

let write_integrity_json path s =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"suite\": \"bx end-to-end integrity\",\n";
  add "%s" (host_meta ~domains_used:1);
  add "  \"entries\": %d,\n" s.p13_entries;
  add "  \"shards\": %d,\n" s.p13_shards;
  add "  \"store_bytes\": %d,\n" s.p13_store_bytes;
  add "  \"scrub\": {\n";
  add "    \"items\": %d,\n" s.p13_scrub_items;
  add "    \"seconds\": %.3f,\n" s.p13_scrub_seconds;
  add "    \"items_per_s\": %.1f,\n" s.p13_items_per_s;
  add "    \"store_mb_per_s\": %.2f,\n" s.p13_mb_per_s;
  add "    \"false_positives\": %d\n" s.p13_false_positives;
  add "  },\n";
  add "  \"detection\": {\n";
  add "    \"injected_bit_flips\": %d,\n" s.p13_injected;
  add "    \"detected\": %d,\n" s.p13_detected;
  add "    \"quarantined\": %d,\n" s.p13_quarantined;
  add "    \"repaired_at_boot\": %d,\n" s.p13_repaired_at_boot;
  add "    \"detection_pct\": %.1f\n"
    (100.
    *. float_of_int s.p13_detected
    /. float_of_int (max 1 s.p13_injected));
  add "  },\n";
  add "  \"scrub_tax\": {\n";
  add "    \"profile\": \"read-heavy\",\n";
  add "    \"offered_rate_per_s\": %.0f,\n" s.p13_tax_rate;
  add "    \"scrub_rate_items_per_s\": %d,\n" s.p13_tax_scrub_rate;
  add "    \"max_delta_pct\": 10.0,\n";
  add "    \"noise_floor_us\": 1000,\n";
  let tax label t =
    add
      "    \"%s\": { \"ok\": %d, \"shed\": %d, \"failed\": %d, \"p50_us\": \
       %d, \"p99_us\": %d },\n"
      label t.tax_ok t.tax_shed t.tax_failed t.tax_p50_us t.tax_p99_us
  in
  tax "scrubber_off" s.p13_tax_off;
  tax "scrubber_on" s.p13_tax_on;
  add "    \"p50_delta_pct\": %.1f,\n" s.p13_p50_delta_pct;
  add "    \"p99_delta_pct\": %.1f\n" s.p13_p99_delta_pct;
  add "  }\n";
  add "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* P14: chaos and degradation (ISSUE 10).  Three claims on one box:
   (a) brownout availability — at 4x overload on a hot page whose
   cache is being invalidated by a background writer (so the fresh
   lane always pays an injected 5 ms render), the degraded lane keeps
   answering from the stale cache where the shed-only baseline answers
   503; (b) deadline promptness — a client that ships a budget in
   X-Bxwiki-Deadline waits at most ~1.5x that budget for an answer,
   even behind a queue of slow renders; (c) the chaos proxy's own tax —
   a toxic-free proxy is measured against the direct socket, and
   latency(20,10) against both.  --json-chaos dumps the summary
   (committed as BENCH_chaos.json). *)

type p14_avail = {
  av_mode : string;  (* "brownout" | "shed-only" *)
  av_offered : int;
  av_fresh : int;
  av_stale : int;
  av_shed : int;
  av_failed : int;
  av_elapsed : float;
}

type p14_deadline = {
  dl_budget_ms : float;
  dl_offered : int;
  dl_fresh : int;
  dl_shed : int;  (* 503/504: the budget was honoured by refusing *)
  dl_failed : int;
  dl_p50_ms : float;
  dl_p99_ms : float;
  dl_max_ms : float;
  dl_tight_refused : int;
  dl_tight_served : int;
  dl_propagated : int;  (* sheds attributed to the shipped header *)
}

type p14_toxic = { tx_mode : string; tx_p50_ms : float; tx_p95_ms : float }

type p14_summary = {
  p14_multiple : float;
  p14_avail : p14_avail list;
  p14_deadline : p14_deadline;
  p14_toxics : p14_toxic list;
}

let p14_contains ~needle hay =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* One whole HTTP conversation, Connection: close; returns the raw
   response bytes ("" on transport failure). *)
let p14_fetch ?(meth = "GET") ?(body = "") port ~headers path =
  let buf = Buffer.create 1024 in
  (try
     let c = connect port in
     (try
        let oc = Unix.out_channel_of_descr c in
        Printf.fprintf oc
          "%s %s HTTP/1.1\r\n%sContent-Length: %d\r\nConnection: \
           close\r\n\r\n%s"
          meth path headers (String.length body) body;
        flush oc;
        let chunk = Bytes.create 4096 in
        let rec go () =
          let n = Unix.read c chunk 0 4096 in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          end
        in
        (try go () with Unix.Unix_error _ | End_of_file -> ());
        Unix.close c
      with e ->
        (try Unix.close c with Unix.Unix_error _ -> ());
        raise e)
   with _ -> ());
  Buffer.contents buf

let p14_status raw =
  match String.index_opt raw ' ' with
  | Some i -> ( try int_of_string (String.sub raw (i + 1) 3) with _ -> 0)
  | None -> 0

(* Replace the first "temperature<k>" marker so each POST is a genuine
   edit: the write bumps the registry generation, which is what keeps
   the hot page's fresh render a cache miss. *)
let p14_bump_rev body i =
  let needle = "temperature" in
  let bl = String.length body and nl = String.length needle in
  let rec find k =
    if k + nl > bl then None
    else if String.sub body k nl = needle then Some k
    else find (k + 1)
  in
  match find 0 with
  | None -> body
  | Some k ->
      let d = ref (k + nl) in
      while !d < bl && body.[!d] >= '0' && body.[!d] <= '9' do
        incr d
      done;
      String.sub body 0 (k + nl)
      ^ string_of_int i
      ^ String.sub body !d (bl - !d)

let p14_wait_port service =
  let rec go n =
    match Bx_server.Service.port service with
    | Some p -> p
    | None ->
        if n > 500 then failwith "chaos service never bound"
        else begin
          Thread.delay 0.01;
          go (n + 1)
        end
  in
  go 0

(* The 4x-overload storm, once with brownout and once shed-only. *)
let p14_storm ~brownout ~offered ~queue_capacity =
  let workers = 2 in
  let config =
    {
      Bx_server.Service.default_config with
      queue_capacity;
      brownout;
      min_concurrency = 4;
    }
  in
  let service =
    match
      Bx_server.Service.create ~config ~seed:Bx_catalogue.Catalogue.seed ()
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let server =
    Thread.create
      (fun () ->
        match
          Bx_server.Service.serve service ~port:0 ~workers ~quiet:true ()
        with
        | Ok () -> ()
        | Error e -> Fmt.epr "chaos service: %s@." e)
      ()
  in
  let port = p14_wait_port service in
  (* Warm the hot page so the degraded lane has a render to serve. *)
  ignore
    (Bx_server.Service.handle service ~meth:"GET" ~path:bench_path ~body:"");
  Bx_fault.Fault.set "service.lock.read" (Bx_fault.Fault.Delay 0.005);
  let stop_editor = Atomic.make false in
  let editor =
    Thread.create
      (fun () ->
        let base =
          (Bx_server.Service.handle service ~meth:"GET"
             ~path:"/examples:celsius.wiki" ~body:"")
            .Bx_repo.Webui.body
        in
        let i = ref 0 in
        while not (Atomic.get stop_editor) do
          incr i;
          ignore
            (Bx_server.Service.handle service ~meth:"POST"
               ~path:"/examples:celsius" ~body:(p14_bump_rev base !i));
          Thread.delay 0.002
        done)
      ()
  in
  let fresh = Atomic.make 0
  and stale = Atomic.make 0
  and shed = Atomic.make 0
  and failed = Atomic.make 0 in
  let per_client _ =
    let raw = p14_fetch port ~headers:"" bench_path in
    match p14_status raw with
    | 200 ->
        if p14_contains ~needle:"X-Bxwiki-Stale:" raw then Atomic.incr stale
        else Atomic.incr fresh
    | 503 -> Atomic.incr shed
    | _ -> Atomic.incr failed
  in
  let elapsed = run_clients offered per_client in
  Atomic.set stop_editor true;
  Thread.join editor;
  Bx_fault.Fault.clear ();
  Bx_server.Service.shutdown service;
  Thread.join server;
  {
    av_mode = (if brownout then "brownout" else "shed-only");
    av_offered = offered;
    av_fresh = Atomic.get fresh;
    av_stale = Atomic.get stale;
    av_shed = Atomic.get shed;
    av_failed = Atomic.get failed;
    av_elapsed = elapsed;
  }

(* Deadline promptness: a burst of cache-missing renders behind two
   workers, every request carrying a budget; nobody waits much past it
   — served or refused.  The service's queue deadline is aligned with
   the budget the clients ship (the deployment story: both come from
   the same SLO), so a connection that queues past its budget is shed
   before a worker wastes a render on it, and a request whose shipped
   budget is exhausted by the time it is read sheds as 504 via the
   propagated header.  A second batch of clients ships an almost-spent
   budget (a retry that burned its allowance elsewhere): those must be
   refused via the header, not rendered. *)
let p14_deadline_storm ~budget_ms ~offered =
  let config =
    {
      Bx_server.Service.default_config with
      queue_capacity = 4 * offered;
      queue_deadline = budget_ms /. 1000.;
      brownout = false;
    }
  in
  let service =
    match
      Bx_server.Service.create ~config ~seed:Bx_catalogue.Catalogue.seed ()
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let server =
    Thread.create
      (fun () ->
        match
          Bx_server.Service.serve service ~port:0 ~workers:2 ~quiet:true ()
        with
        | Ok () -> ()
        | Error e -> Fmt.epr "deadline service: %s@." e)
      ()
  in
  let port = p14_wait_port service in
  Bx_fault.Fault.set "service.lock.read" (Bx_fault.Fault.Delay 0.05);
  let fresh = Atomic.make 0
  and shed = Atomic.make 0
  and failed = Atomic.make 0
  and tight_refused = Atomic.make 0
  and tight_served = Atomic.make 0 in
  let waits = Array.make offered 0. in
  let per_client i =
    let headers = Printf.sprintf "X-Bxwiki-Deadline: %.0f\r\n" budget_ms in
    let started = Bx_obs.Clock.now () in
    let raw =
      p14_fetch port ~headers (Printf.sprintf "%s?i=%d" bench_path i)
    in
    waits.(i) <- (Bx_obs.Clock.now () -. started) *. 1000.;
    match p14_status raw with
    | 200 -> Atomic.incr fresh
    | 503 | 504 -> Atomic.incr shed
    | _ -> Atomic.incr failed
  in
  ignore (run_clients offered per_client);
  (* Phase two, on the now-idle service: writes whose shipped budget is
     gone by the time the slow write path reaches its post-lock
     re-check — these must be refused by the propagated header, never
     applied. *)
  Bx_fault.Fault.set "service.lock.write" (Bx_fault.Fault.Delay 0.03);
  let page_body =
    (Bx_server.Service.handle service ~meth:"GET"
       ~path:"/examples:celsius.wiki" ~body:"")
      .Bx_repo.Webui.body
  in
  let tight = offered / 3 in
  let tight_client i =
    let raw =
      p14_fetch ~meth:"POST"
        ~body:(p14_bump_rev page_body (1000 + i))
        port ~headers:"X-Bxwiki-Deadline: 5\r\n" "/examples:celsius"
    in
    match p14_status raw with
    | 503 | 504 -> Atomic.incr tight_refused
    | 200 -> Atomic.incr tight_served
    | _ -> Atomic.incr failed
  in
  ignore (run_clients tight tight_client);
  let propagated =
    Bx_server.Metrics.shed_by_reason
      (Bx_server.Service.metrics service)
      "deadline_propagated"
  in
  Bx_fault.Fault.clear ();
  Bx_server.Service.shutdown service;
  Thread.join server;
  let sorted = Array.copy waits in
  Array.sort compare sorted;
  {
    dl_budget_ms = budget_ms;
    dl_offered = offered;
    dl_fresh = Atomic.get fresh;
    dl_shed = Atomic.get shed;
    dl_failed = Atomic.get failed;
    dl_p50_ms = percentile sorted 50.;
    dl_p99_ms = percentile sorted 99.;
    dl_max_ms = sorted.(Array.length sorted - 1);
    dl_tight_refused = Atomic.get tight_refused;
    dl_tight_served = Atomic.get tight_served;
    dl_propagated = propagated;
  }

(* The proxy's own price: request latency direct, through a toxic-free
   proxy, and through latency(20,10). *)
let p14_toxic_tax () =
  let service =
    match
      Bx_server.Service.create ~seed:Bx_catalogue.Catalogue.seed ()
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  let server =
    Thread.create
      (fun () ->
        match
          Bx_server.Service.serve service ~port:0 ~workers:2 ~quiet:true ()
        with
        | Ok () -> ()
        | Error e -> Fmt.epr "tax service: %s@." e)
      ()
  in
  let port = p14_wait_port service in
  ignore
    (Bx_server.Service.handle service ~meth:"GET" ~path:bench_path ~body:"");
  let proxy =
    Bx_fault.Netchaos.create ~name:"bench-tax" ~seed:7 ~upstream_port:port ()
  in
  let measure label target =
    let n = 40 in
    let samples =
      Array.init n (fun _ ->
          let started = Bx_obs.Clock.now () in
          let raw = p14_fetch target ~headers:"" bench_path in
          if p14_status raw <> 200 then failwith (label ^ ": request failed");
          (Bx_obs.Clock.now () -. started) *. 1000.)
    in
    Array.sort compare samples;
    {
      tx_mode = label;
      tx_p50_ms = percentile samples 50.;
      tx_p95_ms = percentile samples 95.;
    }
  in
  let direct = measure "direct" port in
  let clean = measure "proxy" (Bx_fault.Netchaos.port proxy) in
  Bx_fault.Netchaos.set_toxics proxy
    [ (Bx_fault.Netchaos.Both, Bx_fault.Netchaos.Latency (20., 10.)) ];
  let stormy = measure "proxy+latency(20,10)" (Bx_fault.Netchaos.port proxy) in
  Bx_fault.Netchaos.close proxy;
  Bx_server.Service.shutdown service;
  Thread.join server;
  [ direct; clean; stormy ]

let p14_chaos () =
  rule "P14: chaos & degradation — brownout, deadlines, proxy tax";
  let queue_capacity = 16 in
  let multiple = 4.0 in
  let offered = int_of_float (multiple *. float_of_int queue_capacity) in
  let storms =
    [
      p14_storm ~brownout:true ~offered ~queue_capacity;
      p14_storm ~brownout:false ~offered ~queue_capacity;
    ]
  in
  Fmt.pr
    "availability at %.0fx overload (hot page, cache busted by a writer, 5 \
     ms render)@."
    multiple;
  Fmt.pr "  mode       offered  fresh  stale   shed  failed  elapsed@.";
  List.iter
    (fun r ->
      Fmt.pr "  %-9s  %7d  %5d  %5d  %5d  %6d  %6.2fs@." r.av_mode
        r.av_offered r.av_fresh r.av_stale r.av_shed r.av_failed r.av_elapsed)
    storms;
  let answered_pct r =
    100. *. float_of_int (r.av_fresh + r.av_stale) /. float_of_int r.av_offered
  in
  (match storms with
  | [ b; s ] ->
      Fmt.pr "brownout answered  %.1f%% (baseline shed %.1f%%)@."
        (answered_pct b)
        (100. *. float_of_int s.av_shed /. float_of_int s.av_offered);
      if answered_pct b < 99. then
        Fmt.pr "*** BROWNOUT ANSWERED < 99%% AT %.0fx OVERLOAD ***@." multiple
  | _ -> ());
  let deadline = p14_deadline_storm ~budget_ms:300. ~offered:48 in
  Fmt.pr
    "@.deadline propagation (budget %.0f ms, 48 cache-missing renders, 2 \
     workers)@."
    deadline.dl_budget_ms;
  Fmt.pr "  served %d, refused-in-time %d, failed %d@." deadline.dl_fresh
    deadline.dl_shed deadline.dl_failed;
  Fmt.pr "  client wait p50 %.0f ms, p99 %.0f ms, max %.0f ms@."
    deadline.dl_p50_ms deadline.dl_p99_ms deadline.dl_max_ms;
  Fmt.pr
    "  almost-spent budgets: %d refused, %d rendered anyway (%d via the \
     propagated header)@."
    deadline.dl_tight_refused deadline.dl_tight_served deadline.dl_propagated;
  if deadline.dl_p99_ms > 1.5 *. deadline.dl_budget_ms then
    Fmt.pr "*** P99 WAIT EXCEEDS 1.5x THE SHIPPED BUDGET ***@."
  else
    Fmt.pr "p99 wait <= 1.5x budget  yes@.";
  let toxics = p14_toxic_tax () in
  Fmt.pr "@.proxy tax (hot cached page, sequential)@.";
  List.iter
    (fun t ->
      Fmt.pr "  %-22s p50 %6.2f ms  p95 %6.2f ms@." t.tx_mode t.tx_p50_ms
        t.tx_p95_ms)
    toxics;
  { p14_multiple = multiple; p14_avail = storms; p14_deadline = deadline;
    p14_toxics = toxics }

let write_chaos_json path s =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"benchmark\": \"P14 chaos and degradation\",\n";
  add "%s" (host_meta ~domains_used:2);
  add "  \"overload_multiple\": %g,\n" s.p14_multiple;
  add "  \"availability\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"mode\": \"%s\", \"offered\": %d, \"fresh\": %d, \"stale\": \
         %d, \"shed\": %d, \"failed\": %d, \"elapsed_s\": %.4f, \
         \"answered_pct\": %.1f}%s\n"
        r.av_mode r.av_offered r.av_fresh r.av_stale r.av_shed r.av_failed
        r.av_elapsed
        (100.
        *. float_of_int (r.av_fresh + r.av_stale)
        /. float_of_int r.av_offered)
        (if i = List.length s.p14_avail - 1 then "" else ","))
    s.p14_avail;
  add "  ],\n";
  let d = s.p14_deadline in
  add "  \"deadline\": {\n";
  add "    \"budget_ms\": %g,\n" d.dl_budget_ms;
  add "    \"offered\": %d,\n" d.dl_offered;
  add "    \"served\": %d,\n" d.dl_fresh;
  add "    \"refused_in_time\": %d,\n" d.dl_shed;
  add "    \"failed\": %d,\n" d.dl_failed;
  add "    \"wait_p50_ms\": %.1f,\n" d.dl_p50_ms;
  add "    \"wait_p99_ms\": %.1f,\n" d.dl_p99_ms;
  add "    \"wait_max_ms\": %.1f,\n" d.dl_max_ms;
  add "    \"p99_budget_ratio\": %.2f,\n" (d.dl_p99_ms /. d.dl_budget_ms);
  add "    \"tight_budget_refused\": %d,\n" d.dl_tight_refused;
  add "    \"tight_budget_served\": %d,\n" d.dl_tight_served;
  add "    \"propagated_sheds\": %d\n" d.dl_propagated;
  add "  },\n";
  add "  \"proxy_tax\": [\n";
  List.iteri
    (fun i t ->
      add "    {\"mode\": \"%s\", \"p50_ms\": %.2f, \"p95_ms\": %.2f}%s\n"
        t.tx_mode t.tx_p50_ms t.tx_p95_ms
        (if i = List.length s.p14_toxics - 1 then "" else ","))
    s.p14_toxics;
  add "  ]\n";
  add "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

let e6 () =
  rule "E6: BenchmarX-style scenarios stay consistent at every step";
  List.iter
    (fun scenario ->
      let out = Bx_catalogue.F2p_scenarios.run scenario in
      Fmt.pr "%-26s restorations=%2d consistent-throughout=%b@."
        scenario.Bx_catalogue.F2p_scenarios.scenario_name
        out.Bx_catalogue.F2p_scenarios.restorations
        out.Bx_catalogue.F2p_scenarios.consistent_after_every_step)
    (Bx_catalogue.F2p_scenarios.all 8)

let () =
  let json_path = ref None in
  let strlens_json_path = ref None in
  let shed_json_path = ref None in
  let repl_json_path = ref None in
  let shard_json_path = ref None in
  let e_only = ref false in
  let p7_only = ref false in
  let p8_only = ref false in
  let p9_only = ref false in
  let p11_only = ref false in
  let p11_sizes = ref [ 10_000; 100_000 ] in
  let p12_only = ref false in
  let p12_sizes = ref [ 100; 1000; 5000 ] in
  let delta_json_path = ref None in
  let p13_only = ref false in
  let chaos_json_path = ref None in
  let p14_only = ref false in
  let p13_entries = ref 100_000 in
  let integrity_json_path = ref None in
  let guard_only = ref false in
  let skip_server = ref false in
  let spec =
    [
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "<path>  dump the P6 summary and every Bechamel estimate as JSON" );
      ( "--json-strlens",
        Arg.String (fun p -> strlens_json_path := Some p),
        "<path>  dump the P7 slice-engine comparison as JSON" );
      ( "--json-shed",
        Arg.String (fun p -> shed_json_path := Some p),
        "<path>  dump the P8 load-shedding curve as JSON" );
      ( "--e-only",
        Arg.Set e_only,
        " run only the E-series artifact checks (CI smoke test)" );
      ( "--p7-only",
        Arg.Set p7_only,
        " run only the P7 slice-engine comparison (CI bench smoke)" );
      ( "--p8-only",
        Arg.Set p8_only,
        " run only the P8 load-shedding curve" );
      ( "--json-repl",
        Arg.String (fun p -> repl_json_path := Some p),
        "<path>  dump the P9 replication summary as JSON" );
      ( "--p9-only",
        Arg.Set p9_only,
        " run only the P9 replication catch-up/lag benchmark" );
      ( "--json-shard",
        Arg.String (fun p -> shard_json_path := Some p),
        "<path>  dump the P11 sharded-registry scaling rows as JSON" );
      ( "--p11-only",
        Arg.Set p11_only,
        " run only the P11 sharded-registry scaling benchmark" );
      ( "--p11-sizes",
        Arg.String
          (fun s ->
            p11_sizes :=
              List.map
                (fun v ->
                  match int_of_string_opt (String.trim v) with
                  | Some n when n > 0 -> n
                  | _ -> raise (Arg.Bad ("bad --p11-sizes entry: " ^ v)))
                (String.split_on_char ',' s)),
        "<n,m,...>  P11 catalogue sizes (default 10000,100000)" );
      ( "--json-delta",
        Arg.String (fun p -> delta_json_path := Some p),
        "<path>  dump the P12 delta-propagation rows as JSON" );
      ( "--p12-only",
        Arg.Set p12_only,
        " run only the P12 delta-propagation benchmark" );
      ( "--p12-sizes",
        Arg.String
          (fun s ->
            p12_sizes :=
              List.map
                (fun v ->
                  match int_of_string_opt (String.trim v) with
                  | Some n when n > 0 -> n
                  | _ -> raise (Arg.Bad ("bad --p12-sizes entry: " ^ v)))
                (String.split_on_char ',' s)),
        "<n,m,...>  P12 document sizes in lines (default 100,1000,5000)" );
      ( "--json-integrity",
        Arg.String (fun p -> integrity_json_path := Some p),
        "<path>  dump the P13 integrity summary as JSON" );
      ( "--p13-only",
        Arg.Set p13_only,
        " run only the P13 integrity benchmark (scrub / detection / tax)" );
      ( "--p13-entries",
        Arg.String
          (fun v ->
            match int_of_string_opt (String.trim v) with
            | Some n when n > 0 -> p13_entries := n
            | _ -> raise (Arg.Bad ("bad --p13-entries: " ^ v))),
        "<n>  P13 corpus size (default 100000)" );
      ( "--json-chaos",
        Arg.String (fun p -> chaos_json_path := Some p),
        "<path>  dump the P14 chaos/degradation summary as JSON" );
      ( "--p14-only",
        Arg.Set p14_only,
        " run only the P14 chaos benchmark (brownout / deadlines / proxy \
         tax)" );
      ( "--fault-guard",
        Arg.Set guard_only,
        " run only the zero-cost check on disabled failpoints (exits 1 on \
         regression)" );
      ( "--skip-server",
        Arg.Set skip_server,
        " skip the wall-clock P5/P8 server benchmarks" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "bench/main.exe [--e-only] [--p7-only] [--p8-only] [--p9-only] \
     [--p11-only] [--p11-sizes n,m] [--p12-only] [--p12-sizes n,m] \
     [--p13-only] [--p13-entries n] [--p14-only] [--fault-guard] \
     [--skip-server] \
     [--json <path>] [--json-strlens <path>] [--json-shed <path>] \
     [--json-repl <path>] [--json-shard <path>] [--json-delta <path>] \
     [--json-integrity <path>] [--json-chaos <path>]";
  if !guard_only then fault_guard ()
  else if !p14_only then begin
    let summary = p14_chaos () in
    match !chaos_json_path with
    | Some path ->
        write_chaos_json path summary;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else if !p13_only then begin
    let summary = p13_integrity ~entries:!p13_entries () in
    match !integrity_json_path with
    | Some path ->
        write_integrity_json path summary;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else if !p12_only then begin
    let rows = p12_delta ~sizes:!p12_sizes () in
    match !delta_json_path with
    | Some path ->
        write_delta_json path rows;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else if !p11_only then begin
    let rows = p11_sharded ~sizes:!p11_sizes () in
    match !shard_json_path with
    | Some path ->
        write_shard_json path rows;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else if !p9_only then begin
    let summary = p9_replication () in
    match !repl_json_path with
    | Some path ->
        write_repl_json path summary;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else if !p8_only then begin
    let meta, rows = p8_load_shedding () in
    match !shed_json_path with
    | Some path ->
        write_shed_json path ~meta rows;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else if !p7_only then begin
    let p7 = p7_strlens () in
    match !strlens_json_path with
    | Some path ->
        write_strlens_json path ~p7;
        Fmt.pr "@.wrote %s@." path
    | None -> ()
  end
  else begin
    e1 ();
    e2 ();
    e3 ();
    e4 ();
    e5 ();
    e6 ();
    if not !e_only then begin
      if not !skip_server then begin
        p5_server_throughput ();
        p5_journal_replay ();
        (let meta, rows = p8_load_shedding () in
         match !shed_json_path with
         | Some path ->
             write_shed_json path ~meta rows;
             Fmt.pr "@.wrote %s@." path
         | None -> ());
        (let summary = p9_replication () in
         match !repl_json_path with
         | Some path ->
             write_repl_json path summary;
             Fmt.pr "@.wrote %s@." path
         | None -> ());
        (let summary = p13_integrity ~entries:!p13_entries () in
         match !integrity_json_path with
         | Some path ->
             write_integrity_json path summary;
             Fmt.pr "@.wrote %s@." path
         | None -> ());
        let summary = p14_chaos () in
        match !chaos_json_path with
        | Some path ->
            write_chaos_json path summary;
            Fmt.pr "@.wrote %s@." path
        | None -> ()
      end;
      let p6 = p6_engine () in
      let p7 = p7_strlens () in
      (let rows = p12_delta ~sizes:!p12_sizes () in
       match !delta_json_path with
       | Some path ->
           write_delta_json path rows;
           Fmt.pr "@.wrote %s@." path
       | None -> ());
      (let rows = p11_sharded ~sizes:!p11_sizes () in
       match !shard_json_path with
       | Some path ->
           write_shard_json path rows;
           Fmt.pr "@.wrote %s@." path
       | None -> ());
      rule "P1-P4, P6: performance series (Bechamel, OLS estimate per run)";
      let tests =
        composers_tests @ strlens_tests @ regex_tests @ registry_tests
        @ alignment_tests @ engine_tests @ scenario_tests @ store_tests
        @ generic_scenario_tests @ tree_edit_tests @ web_tests
      in
      let rows = result_rows (benchmark tests) in
      print_rows rows;
      (match !json_path with
      | Some path ->
          write_json path ~p6 ~series:rows;
          Fmt.pr "@.wrote %s@." path
      | None -> ());
      match !strlens_json_path with
      | Some path ->
          write_strlens_json path ~p7;
          Fmt.pr "@.wrote %s@." path
      | None -> ()
    end
  end
