(* Unit and property tests for the repository core (bx_repo). *)

open Bx_repo

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let h = String.lowercase_ascii hay and n = String.lowercase_ascii needle in
  let hl = String.length h and nl = String.length n in
  let rec scan i = i + nl <= hl && (String.sub h i nl = n || scan (i + 1)) in
  nl = 0 || scan 0

let ok_or_fail = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" (Registry.error_message e)

(* ------------------------------------------------------------------ *)
(* Version *)

let version_tests =
  [
    tc "initial is 0.1 and provisional" (fun () ->
        check Alcotest.string "0.1" "0.1" (Version.to_string Version.initial);
        check Alcotest.bool "provisional" true
          (Version.is_provisional Version.initial));
    tc "promote takes 0.x to 1.0 and x.y to (x+1).0" (fun () ->
        check Alcotest.string "1.0" "1.0"
          (Version.to_string (Version.promote (Version.make 0 3)));
        check Alcotest.string "2.0" "2.0"
          (Version.to_string (Version.promote (Version.make 1 4))));
    tc "bump_minor is linear" (fun () ->
        check Alcotest.string "1.3" "1.3"
          (Version.to_string (Version.bump_minor (Version.make 1 2))));
    tc "of_string round-trips" (fun () ->
        List.iter
          (fun s ->
            match Version.of_string s with
            | Ok v -> check Alcotest.string s s (Version.to_string v)
            | Error e -> Alcotest.fail e)
          [ "0.1"; "1.0"; "12.34" ]);
    tc "of_string rejects junk" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.bool s true (Version.of_string s |> Result.is_error))
          [ ""; "1"; "1.2.3"; "a.b"; "-1.0" ]);
    tc "compare orders major then minor" (fun () ->
        check Alcotest.bool "0.9 < 1.0" true
          (Version.compare (Version.make 0 9) (Version.make 1 0) < 0);
        check Alcotest.bool "1.1 < 1.2" true
          (Version.compare (Version.make 1 1) (Version.make 1 2) < 0));
    tc "make rejects negatives" (fun () ->
        check Alcotest.bool "raises" true
          (try ignore (Version.make (-1) 0); false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Contributor / Reference *)

let contributor_tests =
  [
    tc "to_string/of_string with affiliation" (fun () ->
        let c = Contributor.make ~affiliation:"University of Edinburgh" "Perdita Stevens" in
        let s = Contributor.to_string c in
        check Alcotest.string "rendered" "Perdita Stevens (University of Edinburgh)" s;
        check Alcotest.bool "round-trip" true
          (Contributor.equal c (Contributor.of_string s)));
    tc "of_string without affiliation" (fun () ->
        let c = Contributor.of_string "James Cheney" in
        check Alcotest.string "name" "James Cheney" c.Contributor.person_name;
        check Alcotest.bool "no affiliation" true (c.Contributor.affiliation = None));
  ]

let sample_ref =
  Reference.make
    ~authors:[ "Perdita Stevens" ]
    ~title:"A Landscape of Bidirectional Model Transformations"
    ~venue:"GTTSE" ~year:2008 ~doi:"10.1007/978-3-540-88643-3_10" ()

let reference_tests =
  [
    tc "to_line/of_line round-trips with doi" (fun () ->
        match Reference.of_line (Reference.to_line sample_ref) with
        | Ok r -> check Alcotest.bool "equal" true (r = sample_ref)
        | Error e -> Alcotest.fail e);
    tc "to_line/of_line round-trips without doi" (fun () ->
        let r = { sample_ref with Reference.ref_doi = None } in
        match Reference.of_line (Reference.to_line r) with
        | Ok r' -> check Alcotest.bool "equal" true (r = r')
        | Error e -> Alcotest.fail e);
    tc "multiple authors survive" (fun () ->
        let r =
          Reference.make ~authors:[ "A. One"; "B. Two"; "C. Three" ]
            ~title:"T" ~venue:"V" ~year:2014 ()
        in
        match Reference.of_line (Reference.to_line r) with
        | Ok r' ->
            check Alcotest.(list string) "authors"
              [ "A. One"; "B. Two"; "C. Three" ]
              r'.Reference.ref_authors
        | Error e -> Alcotest.fail e);
    tc "of_line rejects junk" (fun () ->
        List.iter
          (fun s ->
            check Alcotest.bool s true (Reference.of_line s |> Result.is_error))
          [ ""; "no brackets"; "[20xx] a | b | c"; "[2014] only-author" ]);
    tc "bibtex contains key fields" (fun () ->
        let b = Reference.to_bibtex ~key:"stevens2008" sample_ref in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true
              (contains ~needle b))
          [ "stevens2008"; "GTTSE"; "2008"; "doi" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Identifier *)

let identifier_tests =
  [
    tc "of_title canonicalises" (fun () ->
        let id = Result.get_ok (Identifier.of_title "Composers") in
        check Alcotest.string "upper" "COMPOSERS" (Identifier.to_string id);
        let id2 = Result.get_ok (Identifier.of_title "UML to RDBMS!") in
        check Alcotest.string "slug" "UML-TO-RDBMS" (Identifier.to_string id2));
    tc "of_title is idempotent through of_string" (fun () ->
        let id = Result.get_ok (Identifier.of_title "Foo  Bar-Baz 3") in
        let id2 = Result.get_ok (Identifier.of_string (Identifier.to_string id)) in
        check Alcotest.bool "stable" true (Identifier.equal id id2));
    tc "titles without content are rejected" (fun () ->
        check Alcotest.bool "error" true
          (Identifier.of_title "!!! ---" |> Result.is_error));
    tc "wiki_path is lower-case under examples:" (fun () ->
        let id = Result.get_ok (Identifier.of_title "Composers") in
        check Alcotest.string "path" "examples:composers"
          (Identifier.wiki_path id));
    tc "no leading or trailing hyphens" (fun () ->
        let id = Result.get_ok (Identifier.of_title "  (Families)  ") in
        check Alcotest.string "trimmed" "FAMILIES" (Identifier.to_string id));
  ]

(* ------------------------------------------------------------------ *)
(* Template *)

let sample_template ?(version = Version.initial) ?(reviewers = []) () =
  Template.make ~title:"COMPOSERS" ~version
    ~classes:[ Template.Precise ]
    ~overview:"Two representations of the same composers."
    ~models:
      [
        Template.model_desc ~name:"M" "A set of composer objects.";
        Template.model_desc ~name:"N" "An ordered list of pairs.";
      ]
    ~consistency:"Same (name, nationality) pairs on both sides."
    ~restoration:
      {
        Template.rest_forward = "Delete unmatched entries; append missing pairs.";
        Template.rest_backward = "Delete unmatched composers; add with unknown dates.";
      }
    ~properties:
      Bx.Properties.
        [ Satisfies Correct; Satisfies Hippocratic; Violates Undoable ]
    ~discussion:"A classic example of why undoability is too strong."
    ~authors:[ Contributor.make "Perdita Stevens" ]
    ~reviewers ()

let template_tests =
  [
    tc "a complete PRECISE entry validates" (fun () ->
        match Template.validate (sample_template ()) with
        | Ok () -> ()
        | Error msgs -> Alcotest.failf "errors: %s" (String.concat "; " msgs));
    tc "PRECISE and SKETCH are mutually exclusive" (fun () ->
        let t =
          { (sample_template ()) with
            Template.classes = [ Template.Precise; Template.Sketch ] }
        in
        check Alcotest.bool "invalid" true (Template.validate t |> Result.is_error));
    tc "PRECISE needs two models and both directions" (fun () ->
        let t = { (sample_template ()) with Template.models = [ Template.model_desc ~name:"M" "only one" ] } in
        check Alcotest.bool "one model" true (Template.validate t |> Result.is_error);
        let t =
          { (sample_template ()) with
            Template.restoration = { Template.rest_forward = "f"; rest_backward = "" } }
        in
        check Alcotest.bool "missing backward" true
          (Template.validate t |> Result.is_error));
    tc "0.x entries cannot list reviewers; >=1.0 must" (fun () ->
        let t = sample_template ~reviewers:[ Contributor.make "R" ] () in
        check Alcotest.bool "0.x with reviewers" true
          (Template.validate t |> Result.is_error);
        let t = sample_template ~version:(Version.make 1 0) () in
        check Alcotest.bool "1.0 without reviewers" true
          (Template.validate t |> Result.is_error);
        let t =
          sample_template ~version:(Version.make 1 0)
            ~reviewers:[ Contributor.make "R" ] ()
        in
        check Alcotest.bool "1.0 with reviewers ok" true
          (Template.validate t = Ok ()));
    tc "required text fields must be present" (fun () ->
        let base = sample_template () in
        List.iter
          (fun t ->
            check Alcotest.bool "invalid" true
              (Template.validate t |> Result.is_error))
          [
            { base with Template.title = " " };
            { base with Template.overview = "" };
            { base with Template.consistency = "" };
            { base with Template.discussion = "" };
            { base with Template.authors = [] };
            { base with Template.classes = [] };
          ]);
    tc "a SKETCH entry may be thin" (fun () ->
        let t =
          Template.make ~title:"SPREADSHEET"
            ~classes:[ Template.Sketch ]
            ~overview:"A sketch."
            ~models:[ Template.model_desc ~name:"S" "Sheets." ]
            ~consistency:"Formulas agree with values."
            ~discussion:"Details not yet worked out."
            ~authors:[ Contributor.make "A" ]
            ()
        in
        check Alcotest.bool "valid" true (Template.validate t = Ok ()));
    tc "lint flags long overviews and missing properties" (fun () ->
        let t =
          { (sample_template ()) with
            Template.overview = "One. Two. Three. Four. Five.";
            Template.properties = [] }
        in
        check Alcotest.bool "two warnings" true (List.length (Template.lint t) >= 2));
    tc "lint is quiet on the sample" (fun () ->
        check Alcotest.(list string) "no advice" [] (Template.lint (sample_template ())));
    tc "class names round-trip" (fun () ->
        List.iter
          (fun c ->
            check Alcotest.bool "round-trip" true
              (Template.class_of_name (Template.class_name c) = Some c))
          [ Template.Precise; Template.Industrial; Template.Sketch; Template.Benchmark ]);
    tc "artefact kind names round-trip" (fun () ->
        List.iter
          (fun k ->
            check Alcotest.bool "round-trip" true
              (Template.artefact_kind_of_name (Template.artefact_kind_name k) = k))
          [ Template.Code; Template.Diagram; Template.Sample_data; Template.Proof;
            Template.Other "vm-image" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Curation *)

let curation_tests =
  [
    tc "roles and capabilities" (fun () ->
        let member = Curation.account "m" in
        let reviewer = Curation.account ~role:Curation.Reviewer "r" in
        let curator = Curation.account ~role:Curation.Curator "c" in
        check Alcotest.bool "member comments" true (Curation.can_comment member);
        check Alcotest.bool "member cannot review" false (Curation.can_review member);
        check Alcotest.bool "reviewer reviews" true (Curation.can_review reviewer);
        check Alcotest.bool "reviewer cannot approve" false (Curation.can_approve reviewer);
        check Alcotest.bool "curator approves" true (Curation.can_approve curator));
    tc "editing is controlled" (fun () ->
        let authors = [ "Alice"; "Bob" ] in
        check Alcotest.bool "author edits" true
          (Curation.can_edit ~author_names:authors (Curation.account "Alice"));
        check Alcotest.bool "stranger cannot" false
          (Curation.can_edit ~author_names:authors (Curation.account "Eve"));
        check Alcotest.bool "curator edits anything" true
          (Curation.can_edit ~author_names:authors
             (Curation.account ~role:Curation.Curator "c")));
    tc "role names round-trip" (fun () ->
        List.iter
          (fun r ->
            check Alcotest.bool "round-trip" true
              (Curation.role_of_name (Curation.role_name r) = Some r))
          [ Curation.Member; Curation.Reviewer; Curation.Curator ]);
  ]

(* ------------------------------------------------------------------ *)
(* Glossary *)

let glossary_tests =
  [
    tc "hippocraticness is in the glossary" (fun () ->
        check Alcotest.bool "found" true (Glossary.lookup "hippocratic" <> None));
    tc "extra terms are present" (fun () ->
        List.iter
          (fun term ->
            check Alcotest.bool term true (Glossary.lookup term <> None))
          [ "bx"; "state-based"; "delta-based"; "dictionary lens";
            "composition problem"; "curated repository"; "resourceful";
            "canonizer"; "quotient lens"; "constant complement";
            "view update"; "span"; "benchmark"; "alignment" ]);
    tc "lookup is case- and separator-insensitive" (fun () ->
        check Alcotest.bool "State Based" true
          (Glossary.lookup "State Based" <> None));
    tc "unknown terms return None" (fun () ->
        check Alcotest.bool "none" true (Glossary.lookup "flux capacitor" = None));
    tc "terms are sorted and nonempty" (fun () ->
        let ts = Glossary.terms () in
        check Alcotest.bool "many" true (List.length ts > 25);
        let names = List.map fst ts in
        check Alcotest.bool "sorted" true
          (List.sort String.compare names = names));
  ]

(* ------------------------------------------------------------------ *)
(* Markup *)

let markup_tests =
  [
    tc "render/parse a mixed document" (fun () ->
        let doc =
          Markup.
            [
              Heading (1, "COMPOSERS");
              Para [ Text "An example with "; Bold "bold"; Text " text." ];
              Bullets [ "first"; "second" ];
              Code_block [ "let x = 1"; "let y = 2" ];
              Heading (2, "Discussion");
              Para [ Text "Plain paragraph." ];
            ]
        in
        match Markup.parse (Markup.render doc) with
        | Ok doc' -> check Alcotest.bool "round-trip" true (Markup.equal doc doc')
        | Error e -> Alcotest.fail e);
    tc "heading levels parse" (fun () ->
        match Markup.parse "+ One\n\n++ Two\n\n+++ Three\n" with
        | Ok [ Markup.Heading (1, "One"); Markup.Heading (2, "Two");
               Markup.Heading (3, "Three") ] -> ()
        | Ok doc -> Alcotest.failf "unexpected: %s" (Fmt.str "%a" Markup.pp doc)
        | Error e -> Alcotest.fail e);
    tc "inline markup parses" (fun () ->
        let inlines = Markup.parse_inlines "a **b** //c// {{d}} [[[t|l]]] e" in
        check Alcotest.string "plain" "a b c d l e" (Markup.plain_text inlines);
        check Alcotest.string "re-render" "a **b** //c// {{d}} [[[t|l]]] e"
          (Markup.render_inlines inlines));
    tc "unbalanced markers are literal" (fun () ->
        let inlines = Markup.parse_inlines "a ** b" in
        check Alcotest.string "literal" "a ** b" (Markup.render_inlines inlines));
    tc "link without label uses target" (fun () ->
        match Markup.parse_inlines "[[[page]]]" with
        | [ Markup.Link { target = "page"; label = "page" } ] -> ()
        | _ -> Alcotest.fail "expected self-labelled link");
    tc "multi-line paragraphs join with spaces" (fun () ->
        match Markup.parse "line one\nline two\n" with
        | Ok [ Markup.Para inlines ] ->
            check Alcotest.string "joined" "line one line two"
              (Markup.plain_text inlines)
        | _ -> Alcotest.fail "expected one paragraph");
    tc "unterminated code block errors" (fun () ->
        check Alcotest.bool "error" true
          (Markup.parse "[[code]]\nno end\n" |> Result.is_error));
    tc "empty document renders to empty string" (fun () ->
        check Alcotest.string "empty" "" (Markup.render []);
        check Alcotest.bool "parses" true (Markup.parse "" = Ok []));
    tc "consecutive bullets group into one block" (fun () ->
        match Markup.parse "* a\n* b\n\n* c\n" with
        | Ok [ Markup.Bullets [ "a"; "b" ]; Markup.Bullets [ "c" ] ] -> ()
        | Ok doc -> Alcotest.failf "unexpected: %s" (Fmt.str "%a" Markup.pp doc)
        | Error e -> Alcotest.fail e);
  ]

(* Property: parse inverts render on canonical generated documents. *)
let markup_prop_tests =
  let text_gen =
    QCheck2.Gen.(
      map
        (fun ws -> String.concat " " ws)
        (list_size (1 -- 5) (string_size ~gen:(char_range 'a' 'z') (1 -- 6))))
  in
  let block_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun t -> Markup.Heading (1, t)) text_gen;
          map (fun t -> Markup.Heading (2, t)) text_gen;
          map (fun t -> Markup.Para [ Markup.Text t ]) text_gen;
          map (fun items -> Markup.Bullets items) (list_size (1 -- 4) text_gen);
          map (fun lines -> Markup.Code_block lines) (list_size (1 -- 3) text_gen);
        ])
  in
  let doc_gen = QCheck2.Gen.(list_size (0 -- 8) block_gen) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"parse inverts render on canonical docs"
         doc_gen
         (fun doc -> Markup.parse (Markup.render doc) = Ok doc));
  ]

(* ------------------------------------------------------------------ *)
(* Sync lens (E5) *)

let sync_tests =
  [
    tc "GetPut: putting the rendered page back changes nothing" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let t' = lens.Bx.Lens.put (lens.Bx.Lens.get t) t in
        check Alcotest.bool "identity" true (Template.equal t t'));
    tc "PutGet: a canonical page survives a round trip" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let doc = lens.Bx.Lens.get t in
        let doc' = lens.Bx.Lens.get (lens.Bx.Lens.put doc (Sync.blank ~title:"X")) in
        check Alcotest.bool "stable" true (Markup.equal doc doc'));
    tc "editing the overview through the wiki propagates" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let doc = lens.Bx.Lens.get t in
        let doc' =
          List.map
            (function
              | Markup.Heading (2, "Overview") -> Markup.Heading (2, "Overview")
              | b -> b)
            doc
        in
        (* Replace the paragraph after the Overview heading. *)
        let rec replace = function
          | Markup.Heading (2, "Overview") :: Markup.Para _ :: rest ->
              Markup.Heading (2, "Overview")
              :: Markup.Para [ Markup.Text "Edited overview." ]
              :: rest
          | b :: rest -> b :: replace rest
          | [] -> []
        in
        let t' = lens.Bx.Lens.put (replace doc') t in
        check Alcotest.string "overview" "Edited overview." t'.Template.overview;
        check Alcotest.string "title untouched" t.Template.title t'.Template.title);
    tc "deleting an optional section deletes the data" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let doc = lens.Bx.Lens.get t in
        let rec drop_properties = function
          | Markup.Heading (2, "Properties") :: Markup.Bullets _ :: rest -> rest
          | b :: rest -> b :: drop_properties rest
          | [] -> []
        in
        let t' = lens.Bx.Lens.put (drop_properties doc) t in
        check Alcotest.bool "properties emptied" true
          (t'.Template.properties = []));
    tc "deleting a required section falls back to the old value" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let doc = lens.Bx.Lens.get t in
        let rec drop_overview = function
          | Markup.Heading (2, "Overview") :: Markup.Para _ :: rest -> rest
          | b :: rest -> b :: drop_overview rest
          | [] -> []
        in
        let t' = lens.Bx.Lens.put (drop_overview doc) t in
        check Alcotest.string "overview kept" t.Template.overview
          t'.Template.overview);
    tc "unknown sections are ignored (complement)" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let doc =
          lens.Bx.Lens.get t
          @ [ Markup.Heading (2, "Trivia"); Markup.Para [ Markup.Text "x" ] ]
        in
        let t' = lens.Bx.Lens.put doc t in
        check Alcotest.bool "fields unchanged" true (Template.equal t t'));
    tc "create builds a template from scratch" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        let lens = Sync.lens () in
        let t' = lens.Bx.Lens.create (lens.Bx.Lens.get t) in
        check Alcotest.string "title" t.Template.title t'.Template.title;
        check Alcotest.bool "same version" true
          (Version.equal t.Template.version t'.Template.version);
        check Alcotest.bool "same models" true
          (t'.Template.models = t.Template.models));
    tc "restoration subsections round-trip" (fun () ->
        let t = Sync.normalise (sample_template ()) in
        match Sync.of_wiki_text (Sync.wiki_text t) with
        | Ok t' ->
            check Alcotest.string "forward"
              t.Template.restoration.Template.rest_forward
              t'.Template.restoration.Template.rest_forward;
            check Alcotest.string "backward"
              t.Template.restoration.Template.rest_backward
              t'.Template.restoration.Template.rest_backward
        | Error e -> Alcotest.fail e);
    tc "references and properties survive the wiki round trip" (fun () ->
        let t =
          Sync.normalise
            { (sample_template ()) with Template.references = [ sample_ref ] }
        in
        match Sync.of_wiki_text (Sync.wiki_text t) with
        | Ok t' ->
            check Alcotest.bool "references" true
              (t'.Template.references = t.Template.references);
            check Alcotest.bool "properties" true
              (t'.Template.properties = t.Template.properties)
        | Error e -> Alcotest.fail e);
    tc "malformed pages are rejected" (fun () ->
        check Alcotest.bool "no title" true
          (Sync.of_wiki_text "just a paragraph\n" |> Result.is_error);
        check Alcotest.bool "bad version" true
          (Sync.of_wiki_text "+ T\n\n++ Version\n\nnot-a-version\n"
          |> Result.is_error));
    tc "normalise is idempotent" (fun () ->
        let t =
          { (sample_template ()) with
            Template.discussion = "para  one\nwith   spaces\n\npara two" }
        in
        let n1 = Sync.normalise t in
        let n2 = Sync.normalise n1 in
        check Alcotest.bool "idempotent" true (Template.equal n1 n2);
        check Alcotest.string "paragraphs kept"
          "para one with spaces\n\npara two" n1.Template.discussion);
  ]

(* ------------------------------------------------------------------ *)
(* Registry (E6) *)

let member = Curation.account "Perdita Stevens"
let other_member = Curation.account "Someone Else"
let reviewer = Curation.account ~role:Curation.Reviewer "A Reviewer"
let author_reviewer = Curation.account ~role:Curation.Reviewer "Perdita Stevens"
let curator = Curation.account ~role:Curation.Curator "James Cheney"

let submit_sample reg =
  ok_or_fail (Registry.submit reg ~as_:member (sample_template ()))

let registry_tests =
  [
    tc "submit assigns the title's identifier" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        check Alcotest.string "id" "COMPOSERS" (Identifier.to_string id);
        check Alcotest.int "size" 1 (Registry.size reg));
    tc "duplicate submission conflicts" (fun () ->
        let reg = Registry.create () in
        let _ = submit_sample reg in
        match Registry.submit reg ~as_:member (sample_template ()) with
        | Error (Registry.Conflict _) -> ()
        | _ -> Alcotest.fail "expected conflict");
    tc "submission must be provisional and valid" (fun () ->
        let reg = Registry.create () in
        let t = sample_template ~version:(Version.make 1 0)
            ~reviewers:[ Contributor.make "R" ] () in
        (match Registry.submit reg ~as_:member t with
        | Error (Registry.Invalid _) -> ()
        | _ -> Alcotest.fail "expected invalid");
        let bad = { (sample_template ()) with Template.overview = "" } in
        match Registry.submit reg ~as_:member bad with
        | Error (Registry.Invalid _) -> ()
        | _ -> Alcotest.fail "expected invalid");
    tc "comments append to the latest version" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        ok_or_fail (Registry.comment reg ~as_:other_member id ~text:"Nice example");
        let t = ok_or_fail (Registry.latest reg id) in
        check Alcotest.int "one comment" 1 (List.length t.Template.comments);
        check Alcotest.string "attributed" "Someone Else"
          (List.hd t.Template.comments).Template.comment_author);
    tc "member cannot endorse; reviewer can; author-reviewer cannot" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        (match Registry.endorse reg ~as_:member id with
        | Error (Registry.Permission_denied _) -> ()
        | _ -> Alcotest.fail "member endorsed");
        ok_or_fail (Registry.endorse reg ~as_:reviewer id);
        (match Registry.endorse reg ~as_:author_reviewer id with
        | Error (Registry.Permission_denied _) -> ()
        | _ -> Alcotest.fail "author endorsed own entry");
        check Alcotest.(list string) "one endorsement" [ "A Reviewer" ]
          (ok_or_fail (Registry.endorsements reg id)));
    tc "double endorsement conflicts" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        ok_or_fail (Registry.endorse reg ~as_:reviewer id);
        match Registry.endorse reg ~as_:reviewer id with
        | Error (Registry.Conflict _) -> ()
        | _ -> Alcotest.fail "expected conflict");
    tc "approval requires curator and an endorsement" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        (match Registry.approve reg ~as_:reviewer id with
        | Error (Registry.Permission_denied _) -> ()
        | _ -> Alcotest.fail "reviewer approved");
        (match Registry.approve reg ~as_:curator id with
        | Error (Registry.Conflict _) -> ()
        | _ -> Alcotest.fail "approved without endorsement");
        ok_or_fail (Registry.endorse reg ~as_:reviewer id);
        let v = ok_or_fail (Registry.approve reg ~as_:curator id) in
        check Alcotest.string "promoted" "1.0" (Version.to_string v);
        let t = ok_or_fail (Registry.latest reg id) in
        check Alcotest.bool "reviewers recorded" true
          (List.exists
             (fun c -> c.Contributor.person_name = "A Reviewer")
             t.Template.reviewers));
    tc "old versions remain available after approval" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        ok_or_fail (Registry.endorse reg ~as_:reviewer id);
        let _ = ok_or_fail (Registry.approve reg ~as_:curator id) in
        let vs = ok_or_fail (Registry.versions reg id) in
        check Alcotest.(list string) "both versions" [ "0.1"; "1.0" ]
          (List.map Version.to_string vs);
        let old = ok_or_fail (Registry.find_version reg id Version.initial) in
        check Alcotest.bool "0.1 retrievable" true
          (Version.is_provisional old.Template.version));
    tc "revise bumps the minor version and respects permissions" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        let edited =
          { (sample_template ()) with Template.discussion = "Updated discussion." }
        in
        (match Registry.revise reg ~as_:other_member id edited with
        | Error (Registry.Permission_denied _) -> ()
        | _ -> Alcotest.fail "stranger revised");
        let v = ok_or_fail (Registry.revise reg ~as_:member id edited) in
        check Alcotest.string "0.2" "0.2" (Version.to_string v);
        let v2 = ok_or_fail (Registry.revise reg ~as_:curator id edited) in
        check Alcotest.string "0.3" "0.3" (Version.to_string v2));
    tc "revise may not change the title" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        let renamed = { (sample_template ()) with Template.title = "OTHER" } in
        match Registry.revise reg ~as_:member id renamed with
        | Error (Registry.Conflict _) -> ()
        | _ -> Alcotest.fail "title changed");
    tc "search by class, property and text" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        let hit q = Registry.search reg q = [ id ] in
        check Alcotest.bool "by class" true
          (hit (Registry.query ~cls:Template.Precise ()));
        check Alcotest.bool "by property" true
          (hit (Registry.query
                  ~property:(Bx.Properties.Violates Bx.Properties.Undoable) ()));
        check Alcotest.bool "by text" true
          (hit (Registry.query ~text:"undoability" ()));
        check Alcotest.bool "miss" true
          (Registry.search reg (Registry.query ~text:"zebra" ()) = []));
    tc "citation mentions title, version and wiki path" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        let c = ok_or_fail (Registry.cite reg id) in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true (contains ~needle c))
          [ "COMPOSERS"; "0.1"; "examples:composers" ]);
    tc "citations pin old versions after revision" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        let _ =
          ok_or_fail
            (Registry.revise reg ~as_:member id
               { (sample_template ()) with Template.discussion = "v2" })
        in
        let c = ok_or_fail (Registry.cite reg ~version:Version.initial id) in
        check Alcotest.bool "cites 0.1" true
          (contains ~needle:"version 0.1" c));
    tc "bibtex citation renders" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        let b = ok_or_fail (Registry.cite_bibtex reg id) in
        check Alcotest.bool "misc" true (contains ~needle:"@misc" b));
    tc "export/import round-trips the store" (fun () ->
        let reg = Registry.create () in
        let id = submit_sample reg in
        ok_or_fail (Registry.endorse reg ~as_:reviewer id);
        let _ = ok_or_fail (Registry.approve reg ~as_:curator id) in
        let pages = Registry.export reg in
        (* one page per version plus the latest alias *)
        check Alcotest.int "three pages" 3 (List.length pages);
        match Registry.import pages with
        | Error e -> Alcotest.fail e
        | Ok reg' ->
            check Alcotest.(list string) "same ids"
              (List.map Identifier.to_string (Registry.ids reg))
              (List.map Identifier.to_string (Registry.ids reg'));
            let vs = ok_or_fail (Registry.versions reg' id) in
            check Alcotest.(list string) "same versions" [ "0.1"; "1.0" ]
              (List.map Version.to_string vs);
            let t = ok_or_fail (Registry.latest reg' id) in
            let t0 = ok_or_fail (Registry.latest reg id) in
            check Alcotest.bool "same latest template" true
              (Template.equal (Sync.normalise t0) (Sync.normalise t)));
    tc "lookups on unknown ids fail cleanly" (fun () ->
        let reg = Registry.create () in
        let ghost = Result.get_ok (Identifier.of_title "GHOST") in
        (match Registry.latest reg ghost with
        | Error (Registry.Not_found _) -> ()
        | _ -> Alcotest.fail "expected not found");
        match Registry.cite reg ghost with
        | Error (Registry.Not_found _) -> ()
        | _ -> Alcotest.fail "expected not found");
    (* The page writes these fields as one bullet item each: a line break
       would end the item early and lose the rest on the way back. *)
    tc "a line break in a one-line bullet field is refused" (fun () ->
        let two_lines = "first line\nsecond line" in
        let base = sample_template () in
        List.iter
          (fun (what, t) ->
            check Alcotest.bool what true (Result.is_error (Template.validate t)))
          [
            ("comment", { base with Template.comments = [ Template.comment ~author:"a" two_lines ] });
            ("author", { base with Template.authors = [ Contributor.make two_lines ] });
            ("model name", { base with Template.models = List.map (fun m -> { m with Template.model_name = two_lines }) base.Template.models });
            ("variant name", { base with Template.variants = [ Template.variant ~name:two_lines "d" ] });
            ("reference", { base with Template.references = [ { sample_ref with Reference.ref_title = two_lines } ] });
            ("artefact", { base with Template.artefacts = [ Template.artefact ~name:"impl" ~kind:Template.Code two_lines ] });
          ];
        let reg = Registry.create () in
        let id = submit_sample reg in
        (match Registry.comment reg ~as_:member id ~text:two_lines with
        | Error (Registry.Invalid _) -> ()
        | _ -> Alcotest.fail "a two-line comment was accepted");
        (* The JSON form carries any string; the revision is refused. *)
        let json =
          Json_codec.to_string
            { base with Template.comments = [ Template.comment ~author:"a" two_lines ] }
        in
        match Json_codec.of_string json with
        | Error e -> Alcotest.fail e
        | Ok t -> (
            match Registry.revise reg ~as_:curator id t with
            | Error (Registry.Invalid _) -> ()
            | _ -> Alcotest.fail "a two-line comment came in through JSON"));
  ]

(* ------------------------------------------------------------------ *)
(* Filesystem store *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bxstore-test-%d" (Unix.getpid ()))
  in
  let rec cleanup path =
    if Sys.file_exists path then begin
      if Sys.is_directory path then begin
        Array.iter (fun n -> cleanup (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    end
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let seeded_registry () =
  let reg = Registry.create () in
  let id = ok_or_fail (Registry.submit reg ~as_:member (sample_template ())) in
  ok_or_fail (Registry.endorse reg ~as_:reviewer id);
  let _ = ok_or_fail (Registry.approve reg ~as_:curator id) in
  (reg, id)

let store_tests =
  [
    tc "save writes one file per page plus the index" (fun () ->
        with_temp_dir (fun dir ->
            let reg, _ = seeded_registry () in
            match Store.save ~dir reg with
            | Error e -> Alcotest.fail e
            | Ok n ->
                (* two versions + latest alias + json sidecar + index *)
                check Alcotest.int "files" 5 n;
                check Alcotest.bool "index exists" true
                  (Sys.file_exists (Filename.concat dir "INDEX.wiki"));
                check Alcotest.bool "json sidecar parses" true
                  (let file = Filename.concat dir "examples_composers.json" in
                   Sys.file_exists file
                   &&
                   let ic = open_in file in
                   let contents =
                     Fun.protect
                       ~finally:(fun () -> close_in ic)
                       (fun () -> really_input_string ic (in_channel_length ic))
                   in
                   Result.is_ok (Json_codec.of_string contents))));
    tc "load round-trips the registry" (fun () ->
        with_temp_dir (fun dir ->
            let reg, id = seeded_registry () in
            (match Store.save ~dir reg with
            | Error e -> Alcotest.fail e
            | Ok _ -> ());
            match Store.load ~dir () with
            | Error e -> Alcotest.fail e
            | Ok reg' ->
                check Alcotest.int "one entry" 1 (Registry.size reg');
                let vs = ok_or_fail (Registry.versions reg' id) in
                check Alcotest.(list string) "versions" [ "0.1"; "1.0" ]
                  (List.map Version.to_string vs);
                let t = ok_or_fail (Registry.latest reg' id) in
                let t0 = ok_or_fail (Registry.latest reg id) in
                check Alcotest.bool "same template" true
                  (Template.equal (Sync.normalise t0) (Sync.normalise t))));
    tc "load ignores the index and latest aliases" (fun () ->
        with_temp_dir (fun dir ->
            let reg, _ = seeded_registry () in
            (match Store.save ~dir reg with Ok _ -> () | Error e -> Alcotest.fail e);
            match Store.load ~dir () with
            | Ok reg' ->
                (* Exactly the two versioned pages, not four entries. *)
                check Alcotest.int "one entry" 1 (Registry.size reg')
            | Error e -> Alcotest.fail e));
    tc "load on a missing directory errors" (fun () ->
        check Alcotest.bool "error" true
          (Result.is_error (Store.load ~dir:"/nonexistent/bx-dir" ())));
    tc "page_filename flattens path separators" (fun () ->
        check Alcotest.string "flattened" "examples_composers_0.1.wiki"
          (Store.page_filename "examples:composers/0.1"));
  ]

(* ------------------------------------------------------------------ *)
(* Manuscript and index (section 5.2) *)

let two_entry_registry () =
  let reg = Registry.create () in
  let _ = ok_or_fail (Registry.submit reg ~as_:member (sample_template ())) in
  let second =
    { (sample_template ()) with
      Template.title = "OTHER";
      Template.authors = [ Contributor.make "Someone Else" ];
      Template.references = [ sample_ref ];
      Template.properties = Bx.Properties.[ Satisfies Correct ] }
  in
  let t =
    { (sample_template ()) with
      Template.references = [ sample_ref ] }
  in
  (* Replace COMPOSERS with a version that shares a reference. *)
  let _ = ok_or_fail (Registry.revise reg ~as_:member
                        (Result.get_ok (Identifier.of_title "COMPOSERS")) t) in
  let _ = ok_or_fail (Registry.submit reg ~as_:other_member second) in
  reg

let manuscript_tests =
  [
    tc "manuscript contains every entry and the credits" (fun () ->
        let reg = two_entry_registry () in
        let text = Manuscript.generate reg in
        List.iter
          (fun needle ->
            check Alcotest.bool needle true (contains ~needle text))
          [ "Collected Examples"; "COMPOSERS"; "OTHER"; "Credits";
            "Perdita Stevens"; "Someone Else"; "Contents" ]);
    tc "manuscript is parseable wiki markup" (fun () ->
        let reg = two_entry_registry () in
        match Markup.parse (Manuscript.generate reg) with
        | Ok doc -> check Alcotest.bool "nonempty" true (List.length doc > 10)
        | Error e -> Alcotest.fail e);
    tc "entry headings are demoted below the manuscript title" (fun () ->
        let reg = two_entry_registry () in
        match Markup.parse (Manuscript.generate reg) with
        | Error e -> Alcotest.fail e
        | Ok doc ->
            let level1 =
              List.filter
                (function Markup.Heading (1, _) -> true | _ -> false)
                doc
            in
            check Alcotest.int "single top heading" 1 (List.length level1));
    tc "contributors maps people to their entries" (fun () ->
        let reg = two_entry_registry () in
        let cs = Manuscript.contributors reg in
        check Alcotest.bool "stevens on composers" true
          (List.assoc_opt "Perdita Stevens" cs = Some [ "COMPOSERS" ]);
        check Alcotest.bool "else on other" true
          (List.assoc_opt "Someone Else" cs = Some [ "OTHER" ]));
    tc "credits list each contributor's entries once, in entry order" (fun () ->
        (* Perdita Stevens authors ENTRY-00..05 (twice over on 01) and
           reviews ENTRY-06..11; Someone Else authors ENTRY-06..11 and
           reviews the even entries below 06, A Reviewer the odd ones. *)
        let reg = Registry.create () in
        let stevens = Contributor.make "Perdita Stevens" in
        let someone = Contributor.make "Someone Else" in
        let someone_reviewer =
          Curation.account ~role:Curation.Reviewer "Someone Else"
        in
        for i = 0 to 11 do
          let authors =
            if i = 1 then [ stevens; stevens ]
            else if i < 6 then [ stevens ]
            else [ someone ]
          in
          let t =
            { (sample_template ()) with
              Template.title = Printf.sprintf "ENTRY-%02d" i; authors }
          in
          let as_ = if i < 6 then member else other_member in
          let id = ok_or_fail (Registry.submit reg ~as_ t) in
          let endorser =
            if i >= 6 then author_reviewer
            else if i mod 2 = 0 then someone_reviewer
            else reviewer
          in
          ok_or_fail (Registry.endorse reg ~as_:endorser id);
          ignore (ok_or_fail (Registry.approve reg ~as_:curator id))
        done;
        let entries is =
          String.concat ", " (List.map (Printf.sprintf "ENTRY-%02d") is)
        in
        let expected =
          [
            "A Reviewer: " ^ entries [ 1; 3; 5 ];
            "Perdita Stevens: " ^ entries (List.init 12 Fun.id);
            "Someone Else: " ^ entries [ 0; 2; 4; 6; 7; 8; 9; 10; 11 ];
          ]
        in
        match Markup.parse (Manuscript.generate reg) with
        | Error e -> Alcotest.fail e
        | Ok doc -> (
            match List.rev doc with
            | Markup.Bullets credits :: Markup.Heading (2, "Credits") :: _ ->
                check Alcotest.(list string) "credits" expected credits
            | _ -> Alcotest.fail "the manuscript does not end with its credits"));
    tc "bibliography has one record per entry plus the repository" (fun () ->
        let reg = two_entry_registry () in
        let bib = Manuscript.bibliography reg in
        check Alcotest.bool "composers" true (contains ~needle:"composers-0.2" bib);
        check Alcotest.bool "other" true (contains ~needle:"other-0.1" bib);
        check Alcotest.bool "repository" true
          (contains ~needle:"bx-examples-repository" bib));
  ]

let index_tests =
  [
    tc "by_class groups and sorts" (fun () ->
        let reg = two_entry_registry () in
        let groups = Catalogue_index.by_class reg in
        check Alcotest.bool "precise group" true
          (match List.assoc_opt Template.Precise groups with
           | Some ids ->
               List.map Identifier.to_string ids = [ "COMPOSERS"; "OTHER" ]
           | None -> false));
    tc "by_property includes negative claims" (fun () ->
        let reg = two_entry_registry () in
        let groups = Catalogue_index.by_property reg in
        check Alcotest.bool "not undoable -> composers" true
          (List.exists
             (fun (claim, ids) ->
               Bx.Properties.claim_name claim = "not undoable"
               && List.map Identifier.to_string ids = [ "COMPOSERS" ])
             groups));
    tc "by_author and by_reference trace provenance" (fun () ->
        let reg = two_entry_registry () in
        check Alcotest.bool "stevens authors composers" true
          (List.assoc_opt "Perdita Stevens" (Catalogue_index.by_author reg)
           |> Option.map (List.map Identifier.to_string)
           = Some [ "COMPOSERS" ]);
        check Alcotest.bool "shared source indexes both" true
          (List.assoc_opt sample_ref.Reference.ref_title
             (Catalogue_index.by_reference reg)
           |> Option.map (List.map Identifier.to_string)
           = Some [ "COMPOSERS"; "OTHER" ]));
    tc "related finds entries sharing a source" (fun () ->
        let reg = two_entry_registry () in
        let composers = Result.get_ok (Identifier.of_title "COMPOSERS") in
        check Alcotest.(list string) "other is related" [ "OTHER" ]
          (List.map Identifier.to_string (Catalogue_index.related reg composers)));
    tc "render produces a parseable page" (fun () ->
        let reg = two_entry_registry () in
        let text = Markup.render (Catalogue_index.render reg) in
        check Alcotest.bool "parses" true (Result.is_ok (Markup.parse text)));
  ]

(* ------------------------------------------------------------------ *)
(* Robustness: junk in, errors (not crashes) out *)

let robustness_tests =
  [
    tc "markup parse never raises on arbitrary text" (fun () ->
        let inputs =
          [ "+"; "++"; "*"; "* "; "[[code]]"; "[[code]]\nx\n[[/code]]";
            "+++++++ deep"; "a\n\n\n\nb"; "** unbalanced"; "{{"; "[[[";
            String.make 1000 '*'; "\n\n\n" ]
        in
        List.iter
          (fun s ->
            match Markup.parse s with
            | Ok _ | Error _ -> ())
          inputs);
    tc "sync rejects pages whose sections are malformed" (fun () ->
        List.iter
          (fun page ->
            check Alcotest.bool "rejected" true
              (Result.is_error (Sync.of_wiki_text page)))
          [
            "+ T\n\n++ Version\n\nbogus\n";
            "+ T\n\n++ Type\n\nNOT-A-CLASS\n";
            "+ T\n\n++ Properties\n\n* not-a-property\n";
            "+ T\n\n++ Models\n\n* malformed bullet without colon\n";
            "+ T\n\n++ References\n\n* not a reference line\n";
          ]);
    tc "registry import surfaces the offending page" (fun () ->
        let pages = [ ("examples:x/0.1", "not even a heading\n") ] in
        match Registry.import pages with
        | Error msg ->
            check Alcotest.bool "mentions the page" true
              (contains ~needle:"examples:x" msg)
        | Ok _ -> Alcotest.fail "expected failure");
    tc "registry import rejects bad version segments" (fun () ->
        let pages = [ ("examples:x/banana", "+ X\n") ] in
        check Alcotest.bool "error" true (Result.is_error (Registry.import pages)));
    tc "store load skips files without version suffixes" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "bx-junk-%d" (Unix.getpid ()))
        in
        let cleanup () =
          if Sys.file_exists dir then begin
            Array.iter
              (fun n -> Sys.remove (Filename.concat dir n))
              (Sys.readdir dir);
            Sys.rmdir dir
          end
        in
        cleanup ();
        Sys.mkdir dir 0o755;
        Fun.protect ~finally:cleanup (fun () ->
            let oc = open_out (Filename.concat dir "README.wiki") in
            output_string oc "not an entry";
            close_out oc;
            let oc = open_out (Filename.concat dir "notes.txt") in
            output_string oc "junk";
            close_out oc;
            match Store.load ~dir () with
            | Ok reg -> check Alcotest.int "empty registry" 0 (Registry.size reg)
            | Error e -> Alcotest.fail e));
    tc "version parsing is total on junk" (fun () ->
        List.iter
          (fun s -> ignore (Version.of_string s))
          [ "\xff\xfe"; "...."; "-"; "9999999999999999999999.0" ]);
    tc "identifier canonicalisation is total" (fun () ->
        List.iter
          (fun s -> ignore (Identifier.of_title s))
          [ ""; "\x00\x01"; String.make 500 '-'; "ünïcode-ish" ]);
  ]

let markup_fuzz_tests =
  let gen =
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ '+'; '*'; ' '; 'a'; '\n'; '['; ']'; '{'; '}'; '/' ])
        (0 -- 60))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"markup parse is total on marker soup"
         gen
         (fun s ->
           match Markup.parse s with Ok _ | Error _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"render of whatever parses re-parses (idempotent fixpoint)"
         gen
         (fun s ->
           match Markup.parse s with
           | Error _ -> true
           | Ok doc -> (
               match Markup.parse (Markup.render doc) with
               | Ok doc2 -> Markup.render doc2 = Markup.render doc
               | Error _ -> false)));
  ]

(* ------------------------------------------------------------------ *)
(* Version diffs and Markdown export *)

let diff_tests =
  [
    tc "identical templates have no changes" (fun () ->
        check Alcotest.bool "empty" true
          (Diff.templates (sample_template ()) (sample_template ()) = []));
    tc "changed fields are reported with before and after" (fun () ->
        let t1 = sample_template () in
        let t2 = { t1 with Template.overview = "New overview." } in
        match Diff.templates t1 t2 with
        | [ c ] ->
            check Alcotest.string "field" "overview" c.Diff.field;
            check Alcotest.string "before" t1.Template.overview c.Diff.before;
            check Alcotest.string "after" "New overview." c.Diff.after
        | cs -> Alcotest.failf "expected one change, got %d" (List.length cs));
    tc "list fields diff too" (fun () ->
        let t1 = sample_template () in
        let t2 =
          { t1 with
            Template.properties = Bx.Properties.[ Satisfies Correct ] }
        in
        check Alcotest.bool "properties changed" true
          (List.exists (fun c -> c.Diff.field = "properties")
             (Diff.templates t1 t2)));
    tc "the version field is never reported" (fun () ->
        let t1 = sample_template () in
        let t2 = { t1 with Template.version = Version.make 0 2 } in
        check Alcotest.bool "no change rows" true (Diff.templates t1 t2 = []));
    tc "pp renders a +/- block" (fun () ->
        let t1 = sample_template () in
        let t2 = { t1 with Template.discussion = "changed" } in
        let text = Fmt.str "%a" Diff.pp (Diff.templates t1 t2) in
        check Alcotest.bool "minus line" true (contains ~needle:"- " text);
        check Alcotest.bool "plus line" true (contains ~needle:"+ changed" text));
  ]

let markdown_tests =
  [
    tc "blocks render to their markdown forms" (fun () ->
        let doc =
          Markup.
            [
              Heading (1, "Title");
              Heading (3, "Sub");
              Para [ Text "plain "; Bold "bold"; Italic "it"; Code "c";
                     Link { target = "t"; label = "l" } ];
              Bullets [ "one"; "two" ];
              Code_block [ "let x = 1" ];
            ]
        in
        let md = Markup.to_markdown doc in
        List.iter
          (fun needle -> check Alcotest.bool needle true (contains ~needle md))
          [ "# Title"; "### Sub"; "**bold**"; "*it*"; "`c`"; "[l](t)";
            "- one"; "```" ]);
    tc "empty document renders empty" (fun () ->
        check Alcotest.string "empty" "" (Markup.to_markdown []));
    tc "a full entry renders to markdown" (fun () ->
        let md =
          Markup.to_markdown (Sync.render_entry (Sync.normalise (sample_template ())))
        in
        check Alcotest.bool "has title" true (contains ~needle:"# COMPOSERS" md);
        check Alcotest.bool "has sections" true (contains ~needle:"## Overview" md));
  ]

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let json_codec_tests =
  [
    tc "decode inverts encode on the sample" (fun () ->
        let t = sample_template () in
        match Json_codec.decode (Json_codec.encode t) with
        | Ok t' -> check Alcotest.bool "equal" true (Template.equal t t')
        | Error e -> Alcotest.fail e);
    tc "string round trip, compact and pretty" (fun () ->
        let t = sample_template () in
        (match Json_codec.of_string (Json_codec.to_string t) with
        | Ok t' -> check Alcotest.bool "compact" true (Template.equal t t')
        | Error e -> Alcotest.fail e);
        match Json_codec.of_string (Json_codec.to_string ~indent:2 t) with
        | Ok t' -> check Alcotest.bool "pretty" true (Template.equal t t')
        | Error e -> Alcotest.fail e);
    tc "all optional structure survives" (fun () ->
        let t =
          { (sample_template ()) with
            Template.references = [ sample_ref ];
            Template.variants = [ Template.variant ~name:"v" "desc" ];
            Template.comments = [ Template.comment ~author:"a" "text" ];
            Template.artefacts =
              [ Template.artefact ~name:"impl" ~kind:Template.Code "here.ml" ];
            Template.models =
              [
                Template.model_desc ~name:"M" ~meta_model:"(a)*" "with meta";
                Template.model_desc ~name:"N" "plain";
              ] }
        in
        match Json_codec.decode (Json_codec.encode t) with
        | Ok t' -> check Alcotest.bool "equal" true (Template.equal t t')
        | Error e -> Alcotest.fail e);
    tc "decode rejects broken documents" (fun () ->
        List.iter
          (fun json ->
            check Alcotest.bool json true
              (Result.is_error (Json_codec.of_string json)))
          [
            "{}";
            "{\"title\": \"X\"}";
            "{\"title\": \"X\", \"version\": \"zero\", \"overview\": \"o\", \"consistency\": \"c\", \"discussion\": \"d\"}";
          ]);
    tc "unknown property claims are rejected" (fun () ->
        let t = sample_template () in
        let json = Json_codec.encode t in
        let broken =
          match json with
          | Bx_models.Json.Obj fields ->
              Bx_models.Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "properties" then
                       (k, Bx_models.Json.List [ Bx_models.Json.String "sparkly" ])
                     else (k, v))
                   fields)
          | _ -> Alcotest.fail "expected object"
        in
        check Alcotest.bool "rejected" true
          (Result.is_error (Json_codec.decode broken)));
    tc "every catalogue entry round-trips through JSON" (fun () ->
        List.iter
          (fun t ->
            match Json_codec.decode (Json_codec.encode t) with
            | Ok t' ->
                check Alcotest.bool t.Template.title true (Template.equal t t')
            | Error e -> Alcotest.failf "%s: %s" t.Template.title e)
          (Bx_catalogue.Catalogue.all ()));
  ]

(* ------------------------------------------------------------------ *)
(* Round-trip properties over random templates *)

let random_template_tests =
  let gen = Bx_check.Generators.template in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"sync GetPut: put (render t) t = t on random templates" gen
         (fun t ->
           let t = Sync.normalise t in
           let lens = Sync.lens () in
           Template.equal t (lens.Bx.Lens.put (lens.Bx.Lens.get t) t)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"sync PutGet: rendered pages survive a round trip" gen
         (fun t ->
           let t = Sync.normalise t in
           let lens = Sync.lens () in
           let doc = lens.Bx.Lens.get t in
           Markup.equal doc (lens.Bx.Lens.get (lens.Bx.Lens.create doc))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"wiki text parses back to the same template" gen
         (fun t ->
           let t = Sync.normalise t in
           match Sync.of_wiki_text (Sync.wiki_text t) with
           | Ok t' -> Template.equal t t'
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"JSON decode inverts encode on random templates" gen
         (fun t ->
           match Json_codec.of_string (Json_codec.to_string t) with
           | Ok t' -> Template.equal t t'
           | Error _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"markdown export is total on random templates" gen
         (fun t ->
           String.length (Markup.to_markdown (Sync.render_entry t)) > 0));
  ]

(* ------------------------------------------------------------------ *)
(* The wiki's request handler (bxwiki, minus the sockets) *)

let webui_tests =
  let fresh () = Bx_catalogue.Catalogue.seed () in
  let get reg path =
    Webui.handle reg ~meth:"GET" ~path ~body:""
  in
  [
    tc "index lists the entries" (fun () ->
        let r = get (fresh ()) "/" in
        check Alcotest.int "200" 200 r.Webui.status;
        check Alcotest.bool "mentions composers" true
          (contains ~needle:"COMPOSERS" r.Webui.body);
        check Alcotest.bool "html" true
          (contains ~needle:"text/html" r.Webui.content_type));
    tc "entry pages render in three formats" (fun () ->
        let reg = fresh () in
        let html = get reg "/examples:lines" in
        check Alcotest.int "html 200" 200 html.Webui.status;
        check Alcotest.bool "has heading" true
          (contains ~needle:"<h1>LINES</h1>" html.Webui.body);
        let wiki = get reg "/examples:lines.wiki" in
        check Alcotest.bool "wiki text" true
          (contains ~needle:"+ LINES" wiki.Webui.body);
        check Alcotest.bool "plain" true
          (contains ~needle:"text/plain" wiki.Webui.content_type);
        let json = get reg "/examples:lines.json" in
        check Alcotest.bool "json" true
          (contains ~needle:"\"title\": \"LINES\"" json.Webui.body));
    tc "unknown pages 404; unknown methods 405" (fun () ->
        let reg = fresh () in
        check Alcotest.int "404" 404 (get reg "/examples:ghost").Webui.status;
        check Alcotest.int "405" 405
          (Webui.handle reg ~meth:"PUT" ~path:"/" ~body:"").Webui.status);
    tc "an empty or relative path is a 400, not an exception" (fun () ->
        let reg = fresh () in
        List.iter
          (fun (meth, path) ->
            let r = Webui.handle reg ~meth ~path ~body:"+ X\n" in
            check Alcotest.int (meth ^ " " ^ path) 400 r.Webui.status)
          [ ("POST", ""); ("GET", ""); ("PUT", ""); ("POST", "examples:lines");
            ("GET", "examples:lines.wiki"); ("POST", "?x") ]);
    tc "extra pages mount on GET routes" (fun () ->
        let reg = fresh () in
        let r =
          Webui.handle
            ~pages:[ ("/checks", fun () -> ("Checks", "<p>stub</p>")) ]
            reg ~meth:"GET" ~path:"/checks" ~body:""
        in
        check Alcotest.int "200" 200 r.Webui.status;
        check Alcotest.bool "body" true (contains ~needle:"stub" r.Webui.body));
    tc "the glossary is served" (fun () ->
        let r = get (fresh ()) "/glossary" in
        check Alcotest.int "200" 200 r.Webui.status;
        check Alcotest.bool "hippocratic defined" true
          (contains ~needle:"hippocratic" r.Webui.body));
    tc "the manuscript is served" (fun () ->
        let r = get (fresh ()) "/manuscript" in
        check Alcotest.int "200" 200 r.Webui.status;
        check Alcotest.bool "collected" true
          (contains ~needle:"Collected Examples" r.Webui.body));
    tc "POST edits a page through the Sync lens and bumps the version" (fun () ->
        let reg = fresh () in
        let before = get reg "/examples:lines.wiki" in
        let edited =
          Str.global_replace (Str.regexp_string "0.1") "0.1" before.Webui.body
          |> fun s ->
          (* Change the overview paragraph. *)
          Str.replace_first (Str.regexp "A newline-terminated text document")
            "EDITED: a newline-terminated text document" s
        in
        let saved =
          Webui.handle reg ~meth:"POST" ~path:"/examples:lines" ~body:edited
        in
        check Alcotest.int "200" 200 saved.Webui.status;
        check Alcotest.bool "version 0.2" true
          (contains ~needle:"version 0.2" saved.Webui.body);
        let after = get reg "/examples:lines.wiki" in
        check Alcotest.bool "edit visible" true
          (contains ~needle:"EDITED:" after.Webui.body);
        check Alcotest.bool "history kept" true
          (match Registry.versions reg
                   (Result.get_ok (Identifier.of_title "LINES")) with
           | Ok vs -> List.map Version.to_string vs = [ "0.1"; "0.2" ]
           | Error _ -> false));
    tc "malformed POST bodies are a 400, not a crash" (fun () ->
        let reg = fresh () in
        let r =
          Webui.handle reg ~meth:"POST" ~path:"/examples:lines"
            ~body:"+ LINES\n\n++ Version\n\nnot-a-version\n"
        in
        check Alcotest.int "400" 400 r.Webui.status);
    tc "POST to a retitled page is rejected (identifier stability)" (fun () ->
        let reg = fresh () in
        let page = (get reg "/examples:lines.wiki").Webui.body in
        let renamed =
          Str.replace_first (Str.regexp_string "+ LINES") "+ RENAMED" page
        in
        let r =
          Webui.handle reg ~meth:"POST" ~path:"/examples:lines" ~body:renamed
        in
        check Alcotest.int "400" 400 r.Webui.status);
    tc "a member editor without authorship is refused (403)" (fun () ->
        let reg = fresh () in
        let page = (get reg "/examples:lines.wiki").Webui.body in
        let r =
          Webui.handle ~editor:(Curation.account "Random Visitor") reg
            ~meth:"POST" ~path:"/examples:lines" ~body:page
        in
        check Alcotest.int "403" 403 r.Webui.status);
  ]

let () =
  Alcotest.run "bx-repo"
    [
      ("version", version_tests);
      ("contributor", contributor_tests);
      ("reference", reference_tests);
      ("identifier", identifier_tests);
      ("template", template_tests);
      ("curation", curation_tests);
      ("glossary", glossary_tests);
      ("markup", markup_tests);
      ("markup-properties", markup_prop_tests);
      ("sync", sync_tests);
      ("registry", registry_tests);
      ("store", store_tests);
      ("manuscript", manuscript_tests);
      ("index", index_tests);
      ("robustness", robustness_tests);
      ("markup-fuzz", markup_fuzz_tests);
      ("diff", diff_tests);
      ("markdown", markdown_tests);
      ("json-codec", json_codec_tests);
      ("random-template-properties", random_template_tests);
      ("webui", webui_tests);
    ]
