open Bx_repo

(* Each family fixes the model pair and consistency story; the generator
   varies class, emphasis, prose length and authorship per entry.  The
   text is assembled from fixed word pools through the seeded PRNG, so
   the corpus is a pure function of (entries, seed) — the property
   {!wiki_paths} and the loadgen's write targets rely on. *)

type family = {
  fam_title : string; (* title prefix; also the uniqueness namespace *)
  fam_models : (string * string * string option) * (string * string * string option);
  fam_consistency : string;
  fam_forward : string;
  fam_backward : string;
}

let families =
  [|
    {
      fam_title = "Composers Load";
      fam_models =
        ( ("M", "Lists of composer records (name, dates, nationality).", None),
          ("V", "Name/nationality projections of the same list.", None) );
      fam_consistency =
        "Every view line is the projection of the source record aligned \
         with it, and the lists have equal length.";
      fam_forward = "Project each source record to its view line, in order.";
      fam_backward =
        "Align view lines to source records and restore the projected \
         fields, defaulting dates for created records.";
    };
    {
      fam_title = "Bookstore Load";
      fam_models =
        ( ("DB", "A bookstore inventory database of titles and prices.", None),
          ("R", "A price-list report over a subset of the inventory.", None) );
      fam_consistency =
        "Each report row agrees with the inventory row of the same title \
         on every shared field.";
      fam_forward = "Regenerate the report rows from the inventory.";
      fam_backward =
        "Push edited report fields back into the matching inventory rows, \
         leaving unreported stock untouched.";
    };
    {
      fam_title = "Uml2Rdbms Load";
      fam_models =
        ( ("UML", "A class diagram: classes, attributes, inheritance.",
           Some "MOF class models"),
          ("RDBMS", "A relational schema: tables, columns, keys.",
           Some "SQL DDL") );
      fam_consistency =
        "Every persistent class corresponds to a table whose columns \
         cover the class attributes.";
      fam_forward = "Derive tables and columns from persistent classes.";
      fam_backward =
        "Reflect table and column edits back as class and attribute \
         edits where a correspondence exists.";
    };
  |]

let aspects =
  [| "insertion"; "deletion"; "reordering"; "renaming"; "duplication";
     "field edits"; "batch edits"; "concurrent edits" |]

let flavours =
  [| "keyed"; "positional"; "diff-based"; "span-aligned"; "journaled";
     "cached"; "sharded"; "replicated" |]

let authors =
  [|
    Contributor.make ~affiliation:"Load Corpus" "Ada Driver";
    Contributor.make ~affiliation:"Load Corpus" "Basil Meter";
    Contributor.make ~affiliation:"Load Corpus" "Chidi Gauge";
    Contributor.make ~affiliation:"Load Corpus" "Dana Probe";
  |]

(* Rotate property claims so searches by claimed property hit every
   bucket; kept to combinations the validator accepts. *)
let property_claims =
  Bx.Properties.
    [|
      [ Satisfies Correct ];
      [ Satisfies Correct; Satisfies Hippocratic ];
      [ Satisfies Well_behaved ];
      [ Satisfies Undoable; Violates Least_change ];
      [ Violates Oblivious ];
      [];
    |]

let pick prng arr = arr.(Prng.int prng (Array.length arr))

let sentences prng n mk =
  String.concat " " (List.init n (fun i -> mk i (pick prng aspects) (pick prng flavours)))

let template prng i =
  let fam = families.(i mod Array.length families) in
  let (m1n, m1d, m1m), (m2n, m2d, m2m) = fam.fam_models in
  let title = Printf.sprintf "%s %04d" fam.fam_title i in
  (* PRECISE and SKETCH are mutually exclusive; rotate through the legal
     combinations so searches by class hit every bucket. *)
  let classes =
    match Prng.int prng 4 with
    | 0 -> [ Template.Precise ]
    | 1 -> [ Template.Sketch ]
    | 2 -> [ Template.Precise; Template.Benchmark ]
    | _ -> [ Template.Sketch; Template.Benchmark ]
  in
  let overview =
    sentences prng (1 + Prng.int prng 2) (fun _ aspect flavour ->
        Printf.sprintf
          "A %s variant of the %s example stressing %s under load." flavour
          (String.lowercase_ascii fam.fam_title) aspect)
  in
  let discussion =
    sentences prng (1 + Prng.int prng 3) (fun _ aspect flavour ->
        Printf.sprintf
          "Generated corpus entry %04d: the %s strategy is exercised \
           against %s by the open-loop driver." i flavour aspect)
  in
  let variants =
    List.init (Prng.int prng 3) (fun v ->
        Template.variant
          ~name:(Printf.sprintf "v%d-%s" v (pick prng flavours))
          (Printf.sprintf "Alternative handling of %s." (pick prng aspects)))
  in
  Template.make ~title ~classes ~overview
    ~properties:(pick prng property_claims)
    ~models:
      [
        Template.model_desc ?meta_model:m1m ~name:m1n m1d;
        Template.model_desc ?meta_model:m2m ~name:m2n m2d;
      ]
    ~consistency:fam.fam_consistency
    ~restoration:
      { rest_forward = fam.fam_forward; rest_backward = fam.fam_backward }
    ~variants ~discussion
    ~authors:[ pick prng authors ]
    ()

(* The corpus unchecked: [seed_registry] leaves the check to
   [Registry.submit], which runs the same [Template.validate]. *)
let templates ~entries ~seed =
  let prng = Prng.of_int seed in
  List.init (max 0 entries) (template prng)

let generate ~entries ~seed =
  List.map
    (fun t ->
      match Template.validate t with
      | Ok () -> t
      | Error es ->
          failwith
            (Printf.sprintf "Corpus.generate: invalid %S: %s"
               t.Template.title (String.concat "; " es)))
    (templates ~entries ~seed)

let wiki_paths ~entries ~seed =
  generate ~entries ~seed
  |> List.map (fun t ->
         match Identifier.of_title t.Template.title with
         | Ok id -> "/" ^ Identifier.wiki_path id
         | Error e -> failwith ("Corpus.wiki_paths: " ^ e))
  |> Array.of_list

let seed_registry ?shards ~entries ~seed () =
  let registry = Bx_catalogue.Catalogue.seed ?shards () in
  List.iter
    (fun t ->
      let submitter =
        match t.Template.authors with
        | a :: _ -> Curation.account a.Contributor.person_name
        | [] -> Curation.account "corpus"
      in
      match Registry.submit registry ~as_:submitter t with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Printf.sprintf "Corpus.seed_registry: %S rejected: %s"
               t.Template.title
               (Registry.error_message e)))
    (templates ~entries ~seed);
  registry
