open Bx_regex
open Bx_strlens

let word =
  (* Names and nationalities: letters, possibly several words; also '?'
     so that created records (unknown data) stay inside the type. *)
  let letter =
    Cset.union (Cset.range 'A' 'Z') (Cset.union (Cset.range 'a' 'z')
                                       (Cset.singleton '?'))
  in
  Regex.(seq (plus (cset letter))
           (star (seq (chr ' ') (plus (cset letter)))))

let dates =
  let digit_or_q = Cset.union (Cset.range '0' '9') (Cset.singleton '?') in
  Regex.(
    concat_list
      [ repeat 4 (cset digit_or_q); chr '-'; repeat 4 (cset digit_or_q) ])

let comma = Regex.str ", "

(* Rebuilt from scratch on every call (all typing checks rerun) so tests
   and benchmarks can measure construction; the regexes are interned and
   the DFAs cached, so repeated construction compiles nothing twice. *)
let make_line () =
  Slens.concat_list
    [
      Slens.copy word;
      Slens.copy comma;
      Slens.del (Regex.seq dates comma) ~default:"????-????, ";
      Slens.copy word;
      Slens.copy (Regex.chr '\n');
    ]

let build_lens () = Slens.star_key ~key:Fun.id (make_line ())
let line = make_line ()
let lens = build_lens ()

let name_of_view_line line =
  match String.index_opt line ',' with
  | Some i -> String.sub line 0 i
  | None -> line

let name_keyed_lens = Slens.star_key ~key:name_of_view_line line
let diff_lens = Slens.star_diff ~key:Fun.id line
let positional_lens = Slens.star line

(* ------------------------------------------------------------------ *)
(* Deterministic synthetic documents, shared by benchmarks and tests.
   [token i] is a letters-only word (the lens's types demand letters). *)

let token i =
  let letters = "abcdefghij" in
  let rec go i acc =
    let acc = String.make 1 letters.[i mod 10] ^ acc in
    if i < 10 then acc else go (i / 10) acc
  in
  "c" ^ go i ""

let synthetic_source k =
  String.concat ""
    (List.init k (fun i ->
         Printf.sprintf "%s, 1900-1999, %s\n" (token i) (token (i mod 7))))

let synthetic_view k =
  (* Reversed order so dictionary alignment really searches. *)
  String.concat ""
    (List.init k (fun i ->
         let i = k - 1 - i in
         Printf.sprintf "%s, %s\n" (token i) (token (i mod 7))))

let source_of_composers m =
  Composers.canon_m m
  |> List.map (fun (c : Composers.composer) ->
         Printf.sprintf "%s, %s, %s\n" c.name c.dates c.nationality)
  |> String.concat ""

let template =
  let open Bx_repo in
  Template.make ~title:"COMPOSERS-BOOMERANG"
    ~classes:[ Template.Precise ]
    ~overview:
      "The original, asymmetric form of the Composers example: a \
       resourceful string lens from a CSV of name, dates, nationality \
       records to a view listing only name and nationality."
    ~models:
      [
        Template.model_desc ~name:"S"
          "Newline-terminated records 'name, dddd-dddd, nationality'."
          ~meta_model:"(word ', ' dates ', ' word '\\n')*";
        Template.model_desc ~name:"V"
          "Newline-terminated records 'name, nationality'."
          ~meta_model:"(word ', ' word '\\n')*";
      ]
    ~consistency:
      "The view is exactly the source with each record's dates field \
       deleted; records correspond one to one, in order."
    ~restoration:
      {
        Template.rest_forward =
          "get: delete the dates field of every record.";
        Template.rest_backward =
          "put: align view records to source records by their (name, \
           nationality) content, as dictionary lenses do; matched records \
           keep their dates, unmatched records are created with dates \
           ????-????.";
      }
    ~properties:
      Bx.Properties.
        [
          Satisfies Correct;
          Satisfies Hippocratic;
          Satisfies Well_behaved;
        ]
    ~variants:
      [
        Template.variant ~name:"positional-alignment"
          "Replace the dictionary star by the plain star: dates then stay \
           at their list positions instead of following their composers \
           under reordering.";
      ]
    ~discussion:
      "The dictionary (resourceful) iteration is what lets hidden data \
       survive view edits that reorder records: the POPL 2008 paper \
       introduced chunks and keys for exactly this example. Deleting a \
       record and putting it back within a single put preserves its \
       dates; across two puts the complement is gone, matching the \
       state-based variant's undoability failure."
    ~references:
      [
        Reference.make
          ~authors:
            [
              "Aaron Bohannon"; "J. Nathan Foster"; "Benjamin C. Pierce";
              "Alexandre Pilkiewicz"; "Alan Schmitt";
            ]
          ~title:"Boomerang: Resourceful Lenses for String Data"
          ~venue:"POPL" ~year:2008 ~doi:"10.1145/1328438.1328487" ();
      ]
    ~authors:
      [
        Contributor.make ~affiliation:"University of Edinburgh" "James Cheney";
      ]
    ~artefacts:
      [
        Template.artefact ~name:"ocaml-implementation" ~kind:Template.Code
          "lib/catalogue/composers_string.ml";
      ]
    ()
