(* The sharded registry: extensional N-shard ≡ 1-shard equivalence
   (QCheck over random workflow interleavings), index-vs-scan search
   equivalence against a naive oracle, pagination, per-shard response
   cache invalidation, the segmented Shardlog (stamp, refused re-shard,
   per-shard and global checkpoints), and fork-based kill -9 torture at
   the per-shard journal seams — the same acked-prefix invariant as the
   single-segment torture, now across segments sharing one global
   sequence space. *)

open Bx_server
module Fault = Bx_fault.Fault
module Registry = Bx_repo.Registry
module Template = Bx_repo.Template
module Curation = Bx_repo.Curation

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

let isolated f () =
  Fault.clear ();
  Fun.protect ~finally:Fault.clear f

let seed = Bx_catalogue.Catalogue.seed

let service ?(config = Service.default_config) () =
  match Service.create ~config ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config ?(shards = 1) dir =
  {
    Service.default_config with
    journal_dir = Some dir;
    shards;
    compact_every = 0;
  }

let get t path = Service.handle t ~meth:"GET" ~path ~body:""
let post t path body = Service.handle t ~meth:"POST" ~path ~body
let ok_exn what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

(* Every file under [dir] with its bytes, directories as empty rows,
   sorted: two equal trees are byte-identical directories. *)
let rec tree dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let file = Filename.concat dir name in
         if Sys.is_directory file then
           (name ^ "/", "")
           :: List.map (fun (n, c) -> (name ^ "/" ^ n, c)) (tree file)
         else [ (name, In_channel.with_open_bin file In_channel.input_all) ])

(* ------------------------------------------------------------------ *)
(* The extensional view of a registry: everything observable through
   the public API, shard layout excluded.  Two registries that agree
   here are interchangeable behind the service. *)

let observe reg =
  ( Registry.ids reg,
    List.sort compare (Registry.export reg),
    List.map
      (fun id ->
        ( Bx_repo.Identifier.to_string id,
          Registry.versions reg id,
          Registry.endorsements reg id ))
      (Registry.ids reg) )

let member = Curation.account "alice"
let reviewer = Curation.account ~role:Curation.Reviewer "rex"
let curator = Curation.account ~role:Curation.Curator "cora"

let titled i =
  {
    Bx_catalogue.Composers.template with
    Template.title = Printf.sprintf "Shard Prop %02d" i;
    authors =
      [ Bx_repo.Contributor.make ~affiliation:"QCheck"
          (Printf.sprintf "Author %d" (i mod 3)) ];
  }

let ident i =
  match Bx_repo.Identifier.of_title (titled i).Template.title with
  | Ok id -> id
  | Error e -> Alcotest.failf "identifier: %s" e

(* One workflow step, applied identically to both registries.  Results
   (including errors — a rejected op must be rejected in both) are part
   of the equivalence. *)
type op = Submit of int | Revise of int | Endorse of int | Approve of int | Comment of int

let apply_op reg op =
  match op with
  | Submit i -> (
      match Registry.submit reg ~as_:member (titled i) with
      | Ok id -> "submitted " ^ Bx_repo.Identifier.to_string id
      | Error e -> "rejected: " ^ Registry.error_message e)
  | Revise i -> (
      let id = ident i in
      match Registry.latest reg id with
      | Error e -> "no entry: " ^ Registry.error_message e
      | Ok latest -> (
          let edited =
            { latest with Template.discussion = latest.Template.discussion ^ " Revised." }
          in
          match Registry.revise reg ~as_:curator id edited with
          | Ok v -> "revised to " ^ Bx_repo.Version.to_string v
          | Error e -> "rejected: " ^ Registry.error_message e))
  | Endorse i -> (
      match Registry.endorse reg ~as_:reviewer (ident i) with
      | Ok () -> "endorsed"
      | Error e -> "rejected: " ^ Registry.error_message e)
  | Approve i -> (
      match Registry.approve reg ~as_:curator (ident i) with
      | Ok v -> "approved at " ^ Bx_repo.Version.to_string v
      | Error e -> "rejected: " ^ Registry.error_message e)
  | Comment i -> (
      match Registry.comment reg ~as_:member (ident i) ~text:"noted" with
      | Ok () -> "commented"
      | Error e -> "rejected: " ^ Registry.error_message e)

let op_gen =
  QCheck2.Gen.(
    map
      (fun (c, i) ->
        match c with
        | 0 | 1 | 2 -> Submit i
        | 3 -> Revise i
        | 4 -> Endorse i
        | 5 -> Approve i
        | _ -> Comment i)
      (pair (0 -- 6) (0 -- 11)))

let equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"N-shard registry is extensionally a 1-shard registry"
       QCheck2.Gen.(list_size (1 -- 40) op_gen)
       (fun ops ->
         let r1 = Registry.create () in
         let r7 = Registry.create ~shards:7 () in
         List.for_all
           (fun op -> apply_op r1 op = apply_op r7 op)
           ops
         && observe r1 = observe r7))

(* Search through the incremental indexes against a naive oracle that
   re-derives each criterion from the latest template. *)
let naive_search reg q =
  let norm = String.lowercase_ascii in
  List.filter
    (fun id ->
      let t =
        match Registry.latest reg id with
        | Ok t -> t
        | Error e -> Alcotest.failf "latest: %s" (Registry.error_message e)
      in
      (match q.Registry.q_class with
      | None -> true
      | Some c -> List.mem c t.Template.classes)
      && (match q.Registry.q_property with
         | None -> true
         | Some p -> List.mem p t.Template.properties)
      && (match q.Registry.q_author with
         | None -> true
         | Some a ->
             List.exists
               (fun c -> norm c.Bx_repo.Contributor.person_name = norm a)
               t.Template.authors)
      && (match q.Registry.q_tag with
         | None -> true
         | Some tag ->
             List.exists
               (fun (v : Template.variant) -> norm v.variant_name = norm tag)
               t.Template.variants)
      &&
      match q.Registry.q_state with
      | None -> true
      | Some s -> (
          match Registry.versions reg id with
          | Ok versions
            when List.exists
                   (fun v -> not (Bx_repo.Version.is_provisional v))
                   versions ->
              s = Registry.Published
          | _ -> (
              match Registry.endorsements reg id with
              | Ok (_ :: _) -> s = Registry.Endorsed
              | _ -> s = Registry.Provisional)))
    (Registry.ids reg)

let search_query_gen =
  QCheck2.Gen.(
    map
      (fun (cls, author, tag, state) ->
        Registry.query
          ?cls:(if cls then Some Template.Precise else None)
          ?author:(Option.map (Printf.sprintf "Author %d") author)
          ?tag:(Option.map (Printf.sprintf "v%d-keyed") tag)
          ?state:
            (match state with
            | 0 -> Some Registry.Provisional
            | 1 -> Some Registry.Endorsed
            | 2 -> Some Registry.Published
            | _ -> None)
          ())
      (quad bool (opt (0 -- 2)) (opt (0 -- 1)) (0 -- 5)))

let indexed_search_test =
  (* One registry, grown once, probed with random criteria combinations:
     the posting-list intersection must agree with the naive scan. *)
  let reg = Registry.create ~shards:5 () in
  let () =
    List.iter (fun op -> ignore (apply_op reg op))
      (List.concat_map
         (fun i -> [ Submit i; Endorse i ])
         [ 0; 1; 2; 3; 4; 5; 6; 7 ])
  in
  let () =
    ignore (apply_op reg (Approve 2));
    ignore (apply_op reg (Approve 5))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"indexed search agrees with the naive scan" search_query_gen
       (fun q -> Registry.search reg q = naive_search reg q))

(* ------------------------------------------------------------------ *)
(* Registry unit behaviour: shard routing, pagination, export/overlay *)

let registry_tests =
  [
    tc "shard routing is stable and partitions the catalogue" (fun () ->
        let reg = Bx_load.Corpus.seed_registry ~shards:8 ~entries:40 ~seed:3 () in
        check Alcotest.int "shard count" 8 (Registry.shard_count reg);
        let all = Registry.ids reg in
        List.iter
          (fun id ->
            let k = Registry.shard_of_id reg id in
            check Alcotest.bool "in range" true (k >= 0 && k < 8);
            check Alcotest.bool "listed in its shard" true
              (List.mem id (Registry.shard_ids reg k)))
          all;
        let total =
          List.init 8 (fun k -> List.length (Registry.shard_ids reg k))
          |> List.fold_left ( + ) 0
        in
        check Alcotest.int "shards partition the ids" (List.length all) total);
    tc "export is the concatenation of per-shard exports, reordered" (fun () ->
        let reg = Bx_load.Corpus.seed_registry ~shards:6 ~entries:25 ~seed:5 () in
        let whole = List.sort compare (Registry.export reg) in
        let sharded =
          List.concat (List.init 6 (Registry.export_shard reg))
          |> List.sort compare
        in
        check Alcotest.bool "same page multiset" true (whole = sharded));
    tc "import re-shards a dump without changing its meaning" (fun () ->
        let reg = Bx_load.Corpus.seed_registry ~shards:4 ~entries:25 ~seed:5 () in
        let back = ok_exn "import" (Registry.import ~shards:9 (Registry.export reg)) in
        check Alcotest.int "shard count" 9 (Registry.shard_count back);
        check Alcotest.bool "same ids" true (Registry.ids reg = Registry.ids back);
        check Alcotest.bool "same pages" true
          (List.sort compare (Registry.export reg)
          = List.sort compare (Registry.export back)));
    tc "ids_page slices submission order in O(limit) windows" (fun () ->
        let reg = Bx_load.Corpus.seed_registry ~shards:4 ~entries:30 ~seed:2 () in
        let n = Registry.size reg in
        let paged =
          List.concat_map
            (fun page -> Registry.ids_page reg ~offset:(page * 7) ~limit:7)
            (List.init ((n + 6) / 7) Fun.id)
        in
        check Alcotest.int "pages cover everything" n (List.length paged);
        check Alcotest.bool "no duplicates" true
          (List.length (List.sort_uniq compare paged) = n);
        check
          Alcotest.(list string)
          "beyond the end is empty" []
          (List.map Bx_repo.Identifier.to_string
             (Registry.ids_page reg ~offset:(n + 50) ~limit:7)));
    tc "overlay replaces wholesale and appends the rest" (fun () ->
        let reg = seed () in
        let donor = Bx_load.Corpus.seed_registry ~shards:3 ~entries:5 ~seed:9 () in
        ok_exn "overlay" (Registry.overlay reg (Registry.export donor));
        check Alcotest.bool "donor ids present" true
          (List.for_all
             (fun id -> List.mem id (Registry.ids reg))
             (Registry.ids donor));
        check Alcotest.bool "pages agree with the donor's" true
          (List.for_all
             (fun (p, b) -> List.assoc_opt p (Registry.export reg) = Some b)
             (Registry.export donor)));
  ]

(* ------------------------------------------------------------------ *)
(* The service over a sharded registry: pagination and search routes,
   per-shard cache generations, durability across restart, a refused
   re-shard *)

(* Two catalogue entries that live in different shards of a 4-shard
   registry — the cache-invalidation test needs a pair whose writes
   must not interfere. *)
let cross_shard_pair t =
  Service.with_registry t (fun reg ->
      let ids = Registry.ids reg in
      let k0 = Registry.shard_of_id reg (List.hd ids) in
      let other =
        List.find (fun id -> Registry.shard_of_id reg id <> k0) ids
      in
      ( "/" ^ Bx_repo.Identifier.wiki_path (List.hd ids),
        "/" ^ Bx_repo.Identifier.wiki_path other ))

(* Splice probe text into the Overview section: raw text appended to a
   page is discarded by the parser, but the overview paragraph
   round-trips. *)
let inject body probe =
  let needle = "++ Overview\n\n" in
  let spliced =
    Str.replace_first (Str.regexp_string needle) (needle ^ probe ^ " ") body
  in
  if spliced = body then Alcotest.failf "page has no Overview section";
  spliced

let service_tests =
  [
    tc "paginated index serves stable windows at any shard count" (fun () ->
        let sharded =
          service ~config:{ Service.default_config with shards = 4 } ()
        in
        let flat = service () in
        let page n t =
          let r =
            Service.handle_query t
              ~query:(Printf.sprintf "page=%d&per_page=4" n)
              ~meth:"GET" ~path:"/" ~body:""
          in
          check Alcotest.int "page status" 200 r.Bx_repo.Webui.status;
          r.Bx_repo.Webui.body
        in
        check Alcotest.bool "same first page" true (page 1 sharded = page 1 flat);
        check Alcotest.bool "same second page" true (page 2 sharded = page 2 flat);
        check Alcotest.bool "pages differ" true (page 1 sharded <> page 2 sharded);
        check Alcotest.bool "nav present" true
          (contains ~needle:"per_page=4" (page 1 sharded)));
    tc "the search route answers from the indexes and rejects typos" (fun () ->
        let t = service ~config:{ Service.default_config with shards = 4 } () in
        let r =
          Service.handle_query t ~query:"class=precise" ~meth:"GET"
            ~path:"/search" ~body:""
        in
        check Alcotest.int "search 200" 200 r.Bx_repo.Webui.status;
        check Alcotest.bool "finds entries" true
          (contains ~needle:"examples:" r.Bx_repo.Webui.body);
        let bad =
          Service.handle_query t ~query:"class=nonsense" ~meth:"GET"
            ~path:"/search" ~body:""
        in
        check Alcotest.int "unknown class is a 400" 400 bad.Bx_repo.Webui.status);
    tc "a write invalidates only its own shard's cached pages"
      (fun () ->
        let t = service ~config:{ Service.default_config with shards = 4 } () in
        let path_a, path_b = cross_shard_pair t in
        let hits () = fst (Metrics.cache_counts (Service.metrics t)) in
        check Alcotest.int "A renders" 200 (get t path_a).Bx_repo.Webui.status;
        check Alcotest.int "A caches" 200 (get t path_a).Bx_repo.Webui.status;
        let h0 = hits () in
        check Alcotest.int "A hit" 200 (get t path_a).Bx_repo.Webui.status;
        check Alcotest.int "cache served A" (h0 + 1) (hits ());
        (* An edit in B's shard must not evict A. *)
        let page_b = (get t (path_b ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "B edit" 200 (post t path_b page_b).Bx_repo.Webui.status;
        check Alcotest.int "A still cached" 200 (get t path_a).Bx_repo.Webui.status;
        check Alcotest.int "cache served A across B's write" (h0 + 2) (hits ());
        (* An edit in A's own shard must. *)
        let page_a = (get t (path_a ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "A edit" 200 (post t path_a page_a).Bx_repo.Webui.status;
        check Alcotest.int "A re-renders" 200 (get t path_a).Bx_repo.Webui.status;
        check Alcotest.int "A's write evicted A" (h0 + 2) (hits ());
        check Alcotest.int "generation counts all writes" 2 (Service.generation t));
    tc "sharded edits survive close and reopen" (fun () ->
        let dir = fresh_dir "bxshard" in
        let t = service ~config:(journal_config ~shards:3 dir) () in
        let path, _ = cross_shard_pair t in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        let edited = inject page "Shard durability probe." in
        check Alcotest.int "edit" 200 (post t path edited).Bx_repo.Webui.status;
        Service.close t;
        let t' = service ~config:(journal_config ~shards:3 dir) () in
        let applied, failed = Service.replay_stats t' in
        check Alcotest.int "replayed the edit" 1 applied;
        check Alcotest.int "no failures" 0 failed;
        check Alcotest.bool "edit visible" true
          (contains ~needle:"Shard durability probe."
             (get t' (path ^ ".wiki")).Bx_repo.Webui.body);
        Service.close t');
    tc "a 1-shard journal directory opened with --shards 4 is refused and \
        left byte-identical" (fun () ->
        let dir = fresh_dir "bxoneshard" in
        let t = service ~config:(journal_config dir) () in
        let path =
          Service.with_registry t (fun reg ->
              "/" ^ Bx_repo.Identifier.wiki_path (List.hd (Registry.ids reg)))
        in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        let edited = inject page "One-shard edit." in
        check Alcotest.int "edit" 200 (post t path edited).Bx_repo.Webui.status;
        Service.close t;
        check Alcotest.bool "top-level log present" true
          (Sys.file_exists (Filename.concat dir "journal.log"));
        let before = tree dir in
        let refused shards =
          match Service.create ~config:(journal_config ~shards dir) ~seed () with
          | Ok t ->
              Service.close t;
              Alcotest.failf "--shards %d accepted on a 1-shard directory" shards
          | Error e -> e
        in
        let e = refused 4 in
        check Alcotest.bool "error names the directory" true
          (contains ~needle:dir e);
        check Alcotest.bool "error names the remedy" true
          (contains ~needle:"pass --shards 1" e);
        check
          Alcotest.(list (pair string string))
          "directory byte-identical" before (tree dir);
        check Alcotest.bool "no SHARDS stamp" false
          (Sys.file_exists (Filename.concat dir "SHARDS"));
        (* Reopening with the layout's count works; any other count is a
           configuration error, not a silent re-shard. *)
        let t' = service ~config:(journal_config dir) () in
        check Alcotest.bool "reopen with matching count" true
          (contains ~needle:"One-shard edit."
             (get t' (path ^ ".wiki")).Bx_repo.Webui.body);
        Service.close t';
        check Alcotest.bool "--shards 2 names the remedy too" true
          (contains ~needle:"pass --shards 1" (refused 2)));
    tc "checkpoint seals every segment and reopen needs no seed" (fun () ->
        let dir = fresh_dir "bxckall" in
        let t = service ~config:(journal_config ~shards:3 dir) () in
        let path, _ = cross_shard_pair t in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "edit" 200
          (post t path (inject page "Sealed.")).Bx_repo.Webui.status;
        let files = ok_exn "checkpoint" (Service.checkpoint t) in
        check Alcotest.bool "wrote files across segments" true (files > 0);
        List.iter
          (fun k ->
            let seg = Filename.concat dir (Printf.sprintf "shard-%03d" k) in
            check Alcotest.bool
              (Printf.sprintf "segment %d sealed" k)
              true
              (Sys.file_exists (Filename.concat seg "snapshot/MANIFEST")))
          [ 0; 1; 2 ];
        Service.close t;
        let t' = service ~config:(journal_config ~shards:3 dir) () in
        let applied, _ = Service.replay_stats t' in
        check Alcotest.int "nothing to replay after checkpoint" 0 applied;
        check Alcotest.bool "state restored from segment snapshots" true
          (contains ~needle:"Sealed."
             (get t' (path ^ ".wiki")).Bx_repo.Webui.body);
        Service.close t');
    tc "per-shard compaction truncates one segment, not the catalogue"
      (fun () ->
        let dir = fresh_dir "bxcompact" in
        let config =
          { (journal_config ~shards:4 dir) with Service.compact_every = 2 }
        in
        let t = service ~config () in
        let path, other = cross_shard_pair t in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "edit 1" 200 (post t path page).Bx_repo.Webui.status;
        check Alcotest.int "edit 2" 200 (post t path page).Bx_repo.Webui.status;
        let k, k_other =
          Service.with_registry t (fun reg ->
              let of_path p =
                match Bx_repo.Webui.page_identifier p with
                | Some id -> Registry.shard_of_id reg id
                | None -> Alcotest.failf "no identifier in %s" p
              in
              (of_path path, of_path other))
        in
        let seg n = Filename.concat dir (Printf.sprintf "shard-%03d" n) in
        check Alcotest.bool "written shard compacted" true
          (Sys.file_exists (Filename.concat (seg k) "snapshot/MANIFEST"));
        check Alcotest.bool "idle shard untouched" false
          (Sys.file_exists (Filename.concat (seg k_other) "snapshot/MANIFEST"));
        Service.close t);
  ]

(* ------------------------------------------------------------------ *)
(* Torture: kill -9 at the per-shard journal seams.  The invariant is
   inherited from the single-segment suite — every acked edit survives
   recovery, plus at most the one in-flight edit — but the appends now
   land in distinct segments drawing from one global sequence counter,
   and recovery must merge the segments back into the acked order. *)

let shard_page_paths t n =
  (* n catalogue entries spread over at least two shards. *)
  Service.with_registry t (fun reg ->
      Registry.ids reg
      |> List.filteri (fun i _ -> i < n)
      |> List.map (fun id -> "/" ^ Bx_repo.Identifier.wiki_path id))

let torture_child ~dir ~ack_fd ~site ~crash_at =
  try
    let t = service ~config:(journal_config ~shards:3 dir) () in
    let paths = shard_page_paths t 4 in
    let pages =
      List.map (fun p -> (p, (get t (p ^ ".wiki")).Bx_repo.Webui.body)) paths
    in
    for i = 1 to 12 do
      if i = crash_at then Fault.set site Fault.Crash;
      let path, page = List.nth pages (i mod List.length pages) in
      let body = inject page (Printf.sprintf "Torture edit %d." i) in
      let resp = post t path body in
      if resp.Bx_repo.Webui.status = 200 then
        ignore (Unix.write ack_fd (Bytes.make 1 'a') 0 1)
    done;
    Unix._exit 2
  with _ -> Unix._exit 3

let run_torture ~site ~crash_at =
  let dir = fresh_dir "bxshardcrash" in
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      torture_child ~dir ~ack_fd:w ~site ~crash_at
  | pid ->
      Unix.close w;
      let acked = ref 0 in
      let buf = Bytes.create 64 in
      let rec drain () =
        match Unix.read r buf 0 64 with
        | 0 -> ()
        | n ->
            acked := !acked + n;
            drain ()
      in
      drain ();
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      check
        (Alcotest.testable
           (fun ppf -> function
             | Unix.WEXITED n -> Fmt.pf ppf "exit %d" n
             | Unix.WSIGNALED n -> Fmt.pf ppf "signal %d" n
             | Unix.WSTOPPED n -> Fmt.pf ppf "stopped %d" n)
           ( = ))
        "child died via the crash failpoint" (Unix.WEXITED 137) status;
      (dir, !acked)

let seam_case site =
  tc ("crash at " ^ site ^ " across segments loses at most the in-flight edit")
    (isolated (fun () ->
         let dir, acked = run_torture ~site ~crash_at:5 in
         Fault.clear ();
         let t = service ~config:(journal_config ~shards:3 dir) () in
         let applied, failed = Service.replay_stats t in
         check Alcotest.int "no failed replays" 0 failed;
         check Alcotest.bool
           (Printf.sprintf "recovered %d of %d acked (+<=1)" applied acked)
           true
           (applied = acked || applied = acked + 1);
         Service.close t))

let torture_tests =
  List.map seam_case
    [
      "journal.append.pre_write";
      "journal.append.pre_fsync";
      "journal.append.post_fsync";
    ]

let () =
  Alcotest.run "bx shard"
    [
      ("registry shards", registry_tests);
      ("equivalence", [ equivalence_test; indexed_search_test ]);
      ("sharded service", service_tests);
      ("shard torture", torture_tests);
    ]
