(* Extensional equivalence of the in-place wiki markup kernels (Markup,
   Sync's free-text normaliser, Integrity's entry hash) and the copying
   originals kept in Markup_ref, plus the wiki bx's own laws over the
   templates the server actually holds.

   Strings are drawn from a token pool dense in the markup's special
   characters — the inline markers' halves, the link bar, spaces, tabs,
   CR and line breaks, the block keywords and the characters HTML
   escapes — so openers without closers, empty bodies, overlapping
   markers and blank-but-not-empty lines come up in most cases.

   Each property runs [count] cases under [dune runtest] and about
   [long] (10^5 unless stated) with QCHECK_LONG set, as the CI job
   sets it. *)

open Bx_repo
module Ref = Bx_markup_ref.Markup_ref

let prop ?(count = 1000) ?(long = 100_000) name ~print gen f =
  let long_factor = (long + count - 1) / count in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~long_factor ~name ~print gen f)

(* ------------------------------------------------------------------ *)
(* Generators *)

let tokens =
  [| "*"; "/"; "{"; "}"; "["; "]"; "|"; " "; " "; "\t"; "\r"; "\n"; "\n";
     "a"; "b"; "c"; "&"; "<"; ">"; "\""; "\012"; "**"; "//"; "{{"; "}}";
     "[[["; "]]]"; "[[code]]"; "[[/code]]"; "+"; "* "; "+ "; "++ " |]

let dense_of n = QCheck2.Gen.(
  map (String.concat "") (list_size (0 -- n) (map (Array.get tokens) (0 -- (Array.length tokens - 1)))))

let dense = QCheck2.Gen.(oneof [ dense_of 12; dense_of 60 ])

(* One-line text: the line breaks a paragraph would have been split on
   are gone, as they are for every string [parse_inlines] is given. *)
let dense_line =
  QCheck2.Gen.map (String.map (fun c -> if c = '\n' then ' ' else c)) dense

let inline_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Markup.Text s) dense_line;
        map (fun s -> Markup.Bold s) dense_line;
        map (fun s -> Markup.Italic s) dense_line;
        map (fun s -> Markup.Code s) dense_line;
        map2 (fun target label -> Markup.Link { target; label }) dense_line dense_line;
      ])

let block_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun l t -> Markup.Heading (l, t)) (-1 -- 8) dense;
        map (fun is -> Markup.Para is) (list_size (0 -- 5) inline_gen);
        map (fun is -> Markup.Bullets is) (list_size (0 -- 4) dense);
        map (fun ls -> Markup.Code_block ls) (list_size (0 -- 4) dense);
      ])

let doc_gen = QCheck2.Gen.(list_size (0 -- 6) block_gen)

(* A random template from [base] whose every free-text field is dense
   markup. *)
let dense_over base =
  QCheck2.Gen.(
    map2
      (fun (t : Template.t) texts ->
        let text i = List.nth texts (i mod List.length texts) in
        {
          t with
          overview = text 0;
          consistency = text 1;
          discussion = text 2;
          restoration = { rest_forward = text 3; rest_backward = text 4 };
          models =
            List.mapi
              (fun i (m : Template.model_desc) ->
                { m with model_description = text (5 + i) })
              t.models;
          variants =
            List.mapi
              (fun i (v : Template.variant) ->
                { v with variant_description = text (7 + i) })
              t.variants;
        })
      base
      (list_size (1 -- 9) dense))

let dense_template = dense_over Bx_check.Generators.template

(* Reviewed templates (version 1.0 or later, with reviewers, comments and
   artefacts): pages with the Reviewers, Comments and Artefacts sections,
   which [Generators.template] never fills, as it must stay submittable. *)
let reviewed_template =
  QCheck2.Gen.(
    let name = oneofl [ "Alpha"; "Beta"; "Gamma" ] in
    let text = oneofl [ "Looks right."; "See the //second// model."; "A {{put}} case." ] in
    let reviewer =
      map2 (fun n affiliation -> Contributor.make ?affiliation n) name (opt (pure "Somewhere"))
    in
    let comment = map2 (fun author -> Template.comment ~author) name text in
    let artefact =
      map2
        (fun name kind -> Template.artefact ~name ~kind ("examples/" ^ name ^ ".ml"))
        name
        (oneofl Template.[ Code; Diagram; Sample_data; Proof; Other "notebook" ])
    in
    map
      (fun ((t, version), (reviewers, (comments, artefacts))) ->
        { t with Template.version; reviewers; comments; artefacts })
      (pair
         (pair Bx_check.Generators.template (map2 Version.make (1 -- 3) (0 -- 4)))
         (pair (list_size (1 -- 2) reviewer)
            (pair (list_size (1 -- 3) comment) (list_size (1 -- 2) artefact)))))

let dense_reviewed = dense_over reviewed_template

(* Templates the server holds: the load corpus (random seed and index),
   the catalogue's own entries, and the random round-trip templates. *)
let real_template =
  let catalogue = Array.of_list (Bx_catalogue.Catalogue.all ()) in
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun seed i ->
            List.nth (Bx_load.Corpus.generate ~entries:(i + 1) ~seed) i)
          (0 -- 10_000) (0 -- 40);
        map (Array.get catalogue) (0 -- (Array.length catalogue - 1));
        Bx_check.Generators.template;
      ])

(* One-line text without "[[[": each '[' that would close a run of
   three becomes ']'. *)
let plain_line =
  QCheck2.Gen.map
    (fun s ->
      String.mapi
        (fun i c -> if c = '[' && i >= 2 && s.[i - 1] = '[' && s.[i - 2] = '[' then ']' else c)
        s)
    dense_line

let print_string = Printf.sprintf "%S"
let print_doc d = Fmt.str "%a" Markup.pp d
let print_template t = print_string (Ref.wiki_text t)

(* The properties run over more than one generator. *)
let renders_as_oracle t =
  Sync.render_entry t = Ref.render_entry t && Sync.wiki_text t = Ref.wiki_text t

let parses_as_oracle t =
  let text = Ref.wiki_text t in
  let ours = Sync.of_wiki_text ~fallback:t text in
  let theirs = Result.bind (Ref.parse text) (Sync.parse_entry ~fallback:t) in
  match (ours, theirs) with
  | Ok a, Ok b -> Template.equal a b
  | Error a, Error b -> a = b
  | _ -> false

let page_round_trips t =
  let doc = Sync.render_entry t in
  Markup.parse (Markup.render doc) = Ok doc

let get_put t =
  let t = Sync.normalise t in
  let lens = Sync.lens () in
  Template.equal t (lens.Bx.Lens.put (lens.Bx.Lens.get t) t)

let manuscript_law r = Markup.parse (Manuscript.generate r) = Ok (Manuscript.document r)

(* ------------------------------------------------------------------ *)
(* New kernel = oracle *)

let kernel_tests =
  [
    prop "parse_inlines = oracle" ~print:print_string dense_line (fun s ->
        Markup.parse_inlines s = Ref.parse_inlines s);
    prop "parse_inlines = oracle (line breaks kept)" ~print:print_string dense
      (fun s -> Markup.parse_inlines s = Ref.parse_inlines s);
    prop "parse = oracle" ~print:print_string dense (fun s ->
        Markup.parse s = Ref.parse s);
    prop "render = oracle" ~print:print_doc doc_gen (fun d ->
        Markup.render d = Ref.render d);
    prop "render_inlines = oracle" ~print:print_doc doc_gen (fun d ->
        List.for_all
          (function
            | Markup.Para is -> Markup.render_inlines is = Ref.render_inlines is
            | _ -> true)
          d);
    prop "to_html = oracle" ~print:print_doc doc_gen (fun d ->
        Markup.to_html d = Ref.to_html d);
    prop "html_escape = oracle" ~print:print_string dense (fun s ->
        Markup.html_escape s = Ref.html_escape s);
    prop "normalise = oracle's paragraphs" ~print:print_string dense (fun s ->
        let t = { (Sync.blank ~title:"T") with Template.overview = s } in
        (Sync.normalise t).Template.overview = Ref.normalise_text s);
    prop ~count:300 "render_entry and wiki_text = oracle" ~print:print_template
      dense_template renders_as_oracle;
    prop "render_inlines (parse_inlines s) = s without [[[" ~print:print_string
      plain_line (fun s -> Markup.render_inlines (Markup.parse_inlines s) = s);
    prop ~count:300 "wiki_text = oracle over real templates" ~print:print_template
      real_template (fun t -> Sync.wiki_text t = Ref.wiki_text t);
    prop ~count:300 "of_wiki_text = oracle's parse" ~print:print_template
      dense_template parses_as_oracle;
    prop ~count:300 "reviewed: render_entry and wiki_text = oracle"
      ~print:print_template dense_reviewed renders_as_oracle;
    prop ~count:300 "reviewed: of_wiki_text = oracle's parse"
      ~print:print_template dense_reviewed parses_as_oracle;
  ]

(* A line of openers whose closers never come: each failed search for a
   closer is not repeated, so the scan stays linear.  The copying
   original searched again from every opener and took about 30 s on 90
   kB of "{{a". *)
let linear_tests =
  [
    Alcotest.test_case "unclosed openers parse in linear time" `Quick
      (fun () ->
        let line = String.concat "" (List.init 20_000 (fun _ -> "{{a[[[b")) in
        let t0 = Sys.time () in
        let inlines = Markup.parse_inlines line in
        let dt = Sys.time () -. t0 in
        Alcotest.(check bool) "one literal run" true (inlines = [ Markup.Text line ]);
        if dt > 1.0 then Alcotest.failf "took %.2f s on %d bytes" dt (String.length line));
  ]

(* The per-entry hash behind every shard digest: revisions of dense
   templates, submitted to a registry, hash as the copying fold did. *)
let hash_tests =
  let curator = Curation.account ~role:Curation.Curator "Oracle Curator" in
  [
    Alcotest.test_case "entry_hash = oracle over the load corpus" `Quick
      (fun () ->
        let reg = Bx_load.Corpus.seed_registry ~entries:60 ~seed:101 () in
        List.iter
          (fun id ->
            Alcotest.(check int)
              (Identifier.to_string id)
              (Ref.entry_hash reg id)
              (Bx_server.Integrity.entry_hash reg id))
          (Registry.ids reg));
    (* The digest replicas compare: a node printing pages the old way
       and one printing them block by block must agree. *)
    Alcotest.test_case "shard digests = oracle's fold over a 2000-entry corpus" `Quick
      (fun () ->
        let reg = Bx_load.Corpus.seed_registry ~shards:4 ~entries:2000 ~seed:1 () in
        for k = 0 to Registry.shard_count reg - 1 do
          Alcotest.(check int)
            (Printf.sprintf "shard %d" k)
            (List.fold_left
               (fun acc id -> acc lxor Ref.entry_hash reg id)
               0 (Registry.shard_ids reg k))
            (Bx_server.Integrity.shard_digest_of reg k)
        done);
    prop ~count:100 ~long:10_000 "entry_hash = oracle over revised entries"
      ~print:print_template dense_template (fun t ->
        let reg = Bx_catalogue.Catalogue.seed () in
        let id = List.hd (Registry.ids reg) in
        let base = Result.get_ok (Registry.latest reg id) in
        let edited = { t with Template.title = base.Template.title } in
        match Registry.revise reg ~as_:curator id edited with
        | Error _ -> QCheck2.assume_fail ()
        | Ok _ -> Ref.entry_hash reg id = Bx_server.Integrity.entry_hash reg id);
  ]

(* ------------------------------------------------------------------ *)
(* The wiki bx's laws over real templates *)

let law_tests =
  [
    prop ~count:300 "parse (render (render_entry t)) = Ok (render_entry t)"
      ~print:print_template real_template page_round_trips;
    prop ~count:300 "GetPut: put (get t) t = t on normalised templates"
      ~print:print_template real_template get_put;
    prop ~count:300 "reviewed: parse (render (render_entry t)) = Ok (render_entry t)"
      ~print:print_template reviewed_template page_round_trips;
    prop ~count:300 "reviewed: GetPut on normalised templates" ~print:print_template
      reviewed_template get_put;
    (* The wiki serves the manuscript document as HTML without printing
       and re-parsing it; this law is what makes that exact. *)
    Alcotest.test_case "manuscript law, parse (generate r) = Ok (document r): catalogue, corpus, empty"
      `Quick (fun () ->
        List.iter
          (fun (name, r) -> Alcotest.(check bool) name true (manuscript_law r))
          [
            ("catalogue", Bx_catalogue.Catalogue.seed ());
            ("2000-entry corpus", Bx_load.Corpus.seed_registry ~entries:2000 ~seed:1 ());
            ("empty", Registry.create ());
          ]);
    prop ~count:100 ~long:10_000 "manuscript law over reviewed entries"
      ~print:(fun ts -> String.concat "\n" (List.map print_template ts))
      QCheck2.Gen.(list_size (1 -- 5) reviewed_template)
      (fun ts ->
        let pages =
          List.map
            (fun (t : Template.t) ->
              (t.title ^ "/" ^ Version.to_string t.version, Sync.wiki_text t))
            ts
        in
        match Registry.import pages with Error _ -> false | Ok r -> manuscript_law r);
  ]

let () =
  Alcotest.run "bx markup equivalence"
    [
      ("kernels", kernel_tests);
      ("linear", linear_tests);
      ("entry hash", hash_tests);
      ("laws", law_tests);
    ]
