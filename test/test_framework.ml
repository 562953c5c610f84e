(* Unit and property tests for the bx framework library. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let law_holds l x =
  match l.Bx.Law.check x with
  | Bx.Law.Holds -> true
  | Bx.Law.Violated _ -> false

let expect_holds msg l x = check Alcotest.bool msg true (law_holds l x)
let expect_violated msg l x = check Alcotest.bool msg false (law_holds l x)

(* ------------------------------------------------------------------ *)
(* Model spaces *)

let model_tests =
  [
    tc "pair equality componentwise" (fun () ->
        let space = Bx.Model.(pair int string) in
        check Alcotest.bool "equal" true (space.equal (1, "a") (1, "a"));
        check Alcotest.bool "fst differs" false (space.equal (1, "a") (2, "a"));
        check Alcotest.bool "snd differs" false (space.equal (1, "a") (1, "b")));
    tc "list equality is length-sensitive" (fun () ->
        let space = Bx.Model.(list int) in
        check Alcotest.bool "equal" true (space.equal [ 1; 2 ] [ 1; 2 ]);
        check Alcotest.bool "shorter" false (space.equal [ 1 ] [ 1; 2 ]);
        check Alcotest.bool "longer" false (space.equal [ 1; 2 ] [ 1 ]));
    tc "show uses the space printer" (fun () ->
        check Alcotest.string "int" "42" (Bx.Model.show Bx.Model.int 42));
    tc "names compose" (fun () ->
        let space = Bx.Model.(list (pair int string)) in
        check Alcotest.string "name" "(int * string) list" space.name);
  ]

(* ------------------------------------------------------------------ *)
(* Laws *)

let law_tests =
  [
    tc "require true holds" (fun () ->
        match Bx.Law.require true "nope" with
        | Bx.Law.Holds -> ()
        | Bx.Law.Violated m -> Alcotest.failf "unexpected violation: %s" m);
    tc "require false carries the message" (fun () ->
        match Bx.Law.require false "x=%d" 7 with
        | Bx.Law.Holds -> Alcotest.fail "expected violation"
        | Bx.Law.Violated m -> check Alcotest.string "msg" "x=7" m);
    tc "conj reports the first violating law by name" (fun () ->
        let pos =
          Bx.Law.make ~name:"pos" ~description:"x > 0" (fun x ->
              Bx.Law.require (x > 0) "not positive")
        in
        let even =
          Bx.Law.make ~name:"even" ~description:"x even" (fun x ->
              Bx.Law.require (x mod 2 = 0) "odd")
        in
        let both =
          Bx.Law.conj ~name:"pos-even" ~description:"both" [ pos; even ]
        in
        (match both.check 3 with
        | Bx.Law.Violated m ->
            check Alcotest.bool "names even" true
              (String.length m >= 6 && String.sub m 0 6 = "[even]")
        | Bx.Law.Holds -> Alcotest.fail "expected violation");
        expect_holds "4 passes" both 4;
        expect_violated "-2 fails on pos" both (-2));
    tc "check_all collects violations with indices" (fun () ->
        let pos =
          Bx.Law.make ~name:"pos" ~description:"x > 0" (fun x ->
              Bx.Law.require (x > 0) "not positive")
        in
        let violations = Bx.Law.check_all pos [ 1; -1; 2; -3 ] in
        check Alcotest.(list int) "indices" [ 1; 3 ]
          (List.map (fun (i, _, _) -> i) violations));
    tc "contramap adapts the input" (fun () ->
        let pos =
          Bx.Law.make ~name:"pos" ~description:"x > 0" (fun x ->
              Bx.Law.require (x > 0) "not positive")
        in
        let on_pair = Bx.Law.contramap fst pos in
        expect_holds "fst positive" on_pair (3, -5);
        expect_violated "fst negative" on_pair (-3, 5));
  ]

(* ------------------------------------------------------------------ *)
(* Isos *)

let double = Bx.Iso.make ~name:"double" ~fwd:(fun x -> 2 * x) ~bwd:(fun x -> x / 2)

let bogus_iso =
  (* Deliberately not an isomorphism: fwd loses information. *)
  Bx.Iso.make ~name:"bogus" ~fwd:(fun x -> x / 2) ~bwd:(fun x -> 2 * x)

let iso_tests =
  [
    tc "compose applies left to right" (fun () ->
        let inc = Bx.Iso.make ~name:"inc" ~fwd:succ ~bwd:pred in
        let both = Bx.Iso.compose double inc in
        check Alcotest.int "fwd" 7 (both.fwd 3);
        check Alcotest.int "bwd" 3 (both.bwd 7));
    tc "inverse swaps directions" (fun () ->
        let inv = Bx.Iso.inverse double in
        check Alcotest.int "fwd" 3 (inv.fwd 6);
        check Alcotest.int "bwd" 6 (inv.bwd 3));
    tc "pair acts componentwise" (fun () ->
        let inc = Bx.Iso.make ~name:"inc" ~fwd:succ ~bwd:pred in
        let p = Bx.Iso.pair double inc in
        check Alcotest.(pair int int) "fwd" (4, 4) (p.fwd (2, 3)));
    tc "list_map maps both ways" (fun () ->
        let m = Bx.Iso.list_map double in
        check Alcotest.(list int) "fwd" [ 2; 4 ] (m.fwd [ 1; 2 ]);
        check Alcotest.(list int) "bwd" [ 1; 2 ] (m.bwd [ 2; 4 ]));
    tc "swap is an involution" (fun () ->
        let s = Bx.Iso.swap () in
        check Alcotest.(pair int string) "fwd" (1, "a") (s.fwd ("a", 1)));
    tc "inverse laws hold for a genuine iso" (fun () ->
        let l = Bx.Iso.fwd_bwd_law Bx.Model.int double in
        List.iter (expect_holds "fwd_bwd" l) [ 0; 1; -5; 100 ]);
    tc "inverse laws catch a lossy map" (fun () ->
        let l = Bx.Iso.fwd_bwd_law Bx.Model.int bogus_iso in
        expect_violated "odd input loses a bit" l 3);
  ]

(* ------------------------------------------------------------------ *)
(* Lenses *)

let int_model = Bx.Model.int
let pair_model = Bx.Model.(pair int string)

let lens_tests =
  [
    tc "id round-trips" (fun () ->
        expect_holds "GetPut" (Bx.Lens.get_put_law int_model Bx.Lens.id) 5;
        expect_holds "PutGet" (Bx.Lens.put_get_law int_model Bx.Lens.id) (5, 9));
    tc "first projects and restores" (fun () ->
        let l = Bx.Lens.first ~default:"d" in
        check Alcotest.int "get" 1 (l.get (1, "x"));
        check Alcotest.(pair int string) "put keeps complement" (2, "x")
          (l.put 2 (1, "x"));
        check Alcotest.(pair int string) "create uses default" (3, "d")
          (l.create 3));
    tc "second projects and restores" (fun () ->
        let l = Bx.Lens.second ~default:0 in
        check Alcotest.string "get" "x" (l.get (1, "x"));
        check Alcotest.(pair int string) "put" (1, "y") (l.put "y" (1, "x")));
    tc "first satisfies all four laws" (fun () ->
        let l = Bx.Lens.first ~default:"d" in
        expect_holds "GetPut" (Bx.Lens.get_put_law pair_model l) (1, "x");
        expect_holds "PutGet" (Bx.Lens.put_get_law int_model l) ((1, "x"), 2);
        expect_holds "CreateGet" (Bx.Lens.create_get_law int_model l) 7;
        expect_holds "PutPut" (Bx.Lens.put_put_law pair_model l)
          ((1, "x"), 2, 3));
    tc "compose threads the middle view" (fun () ->
        let outer = Bx.Lens.first ~default:false in
        let inner = Bx.Lens.first ~default:0 in
        let l = Bx.Lens.compose outer inner in
        check Alcotest.string "get" "a" (l.get (("a", 1), true));
        let s' = l.put "b" (("a", 1), true) in
        check Alcotest.bool "complement intact" true
          (s' = (("b", 1), true)));
    tc "const accepts only its constant on put" (fun () ->
        let l =
          Bx.Lens.const ~view:"k" ~view_equal:String.equal ~default:42
        in
        check Alcotest.string "get" "k" (l.get 7);
        check Alcotest.int "put same" 7 (l.put "k" 7);
        check Alcotest.bool "put other raises" true
          (try
             ignore (l.put "other" 7);
             false
           with Bx.Lens.Error _ -> true));
    tc "pair lens acts componentwise" (fun () ->
        let l = Bx.Lens.pair (Bx.Lens.first ~default:0) Bx.Lens.id in
        let s = ((1, 2), "x") in
        check Alcotest.(pair int string) "get" (1, "x") (l.get s));
    tc "list_map puts positionally, creates surplus" (fun () ->
        let elem = Bx.Lens.first ~default:"new" in
        let l = Bx.Lens.list_map elem in
        check Alcotest.(list int) "get" [ 1; 2 ]
          (l.get [ (1, "a"); (2, "b") ]);
        let s' = l.put [ 9; 8; 7 ] [ (1, "a"); (2, "b") ] in
        check Alcotest.bool "reuse + create" true
          (s' = [ (9, "a"); (8, "b"); (7, "new") ]));
    tc "list_map drops surplus sources" (fun () ->
        let l = Bx.Lens.list_map (Bx.Lens.first ~default:"new") in
        let s' = l.put [ 9 ] [ (1, "a"); (2, "b") ] in
        check Alcotest.bool "truncated" true (s' = [ (9, "a") ]));
    tc "list_key_map preserves hidden data under reordering" (fun () ->
        let elem = Bx.Lens.first ~default:"new" in
        let l =
          Bx.Lens.list_key_map ~source_key:fst ~view_key:Fun.id elem
        in
        let src = [ (1, "one"); (2, "two"); (3, "three") ] in
        (* Reorder the view and drop the middle element. *)
        let s' = l.put [ 3; 1 ] src in
        check Alcotest.bool "complements follow their keys" true
          (s' = [ (3, "three"); (1, "one") ]));
    tc "list_key_map creates for unknown keys" (fun () ->
        let elem = Bx.Lens.first ~default:"new" in
        let l =
          Bx.Lens.list_key_map ~source_key:fst ~view_key:Fun.id elem
        in
        let s' = l.put [ 5 ] [ (1, "one") ] in
        check Alcotest.bool "created" true (s' = [ (5, "new") ]));
    tc "list_key_map consumes duplicate keys one at a time" (fun () ->
        let elem = Bx.Lens.first ~default:"new" in
        let l =
          Bx.Lens.list_key_map ~source_key:fst ~view_key:Fun.id elem
        in
        let src = [ (1, "a"); (1, "b") ] in
        let s' = l.put [ 1; 1 ] src in
        check Alcotest.bool "both reused in order" true
          (s' = [ (1, "a"); (1, "b") ]));
    tc "filter hides and restores around hidden elements" (fun () ->
        let l = Bx.Lens.filter ~keep:(fun x -> x mod 2 = 0) ~default:0 in
        check Alcotest.(list int) "get" [ 2; 4 ] (l.get [ 1; 2; 3; 4 ]);
        check Alcotest.(list int) "put in place" [ 1; 20; 3; 40 ]
          (l.put [ 20; 40 ] [ 1; 2; 3; 4 ]);
        check Alcotest.(list int) "surplus views appended" [ 1; 20; 3; 40; 60 ]
          (l.put [ 20; 40; 60 ] [ 1; 2; 3; 4 ]);
        check Alcotest.(list int) "fewer views drop kept sources"
          [ 1; 20; 3 ]
          (l.put [ 20 ] [ 1; 2; 3; 4 ]));
    tc "filter rejects views that violate the predicate" (fun () ->
        let l = Bx.Lens.filter ~keep:(fun x -> x mod 2 = 0) ~default:0 in
        check Alcotest.bool "raises" true
          (try
             ignore (l.put [ 3 ] [ 2 ]);
             false
           with Bx.Lens.Error _ -> true));
    tc "PutPut fails for list_map when lengths shrink then grow" (fun () ->
        (* list_map with positional alignment is well-behaved but not very
           well-behaved: shrinking the view discards complements that a
           second put cannot recover. *)
        let elem = Bx.Lens.first ~default:"new" in
        let l = Bx.Lens.list_map elem in
        let model = Bx.Model.(list (pair int string)) in
        let law = Bx.Lens.put_put_law model l in
        expect_violated "shrink-then-grow" law
          ([ (1, "a"); (2, "b") ], [ 9 ], [ 9; 8 ]));
  ]

(* QCheck property tests over lens combinators. *)
let lens_prop_tests =
  let pair_gen = QCheck2.Gen.(pair small_int (small_string ~gen:printable)) in
  let wb_first =
    QCheck2.Test.make ~count:200 ~name:"first: GetPut/PutGet on random pairs"
      QCheck2.Gen.(pair pair_gen small_int)
      (fun (s, v) ->
        let l = Bx.Lens.first ~default:"d" in
        law_holds (Bx.Lens.get_put_law pair_model l) s
        && law_holds (Bx.Lens.put_get_law int_model l) (s, v))
  in
  let wb_filter =
    QCheck2.Test.make ~count:200 ~name:"filter: GetPut on random int lists"
      QCheck2.Gen.(list small_int)
      (fun s ->
        let l = Bx.Lens.filter ~keep:(fun x -> x mod 2 = 0) ~default:0 in
        law_holds (Bx.Lens.get_put_law (Bx.Model.list Bx.Model.int) l) s)
  in
  let putget_filter =
    QCheck2.Test.make ~count:200 ~name:"filter: PutGet on even views"
      QCheck2.Gen.(pair (list small_int) (list (map (fun x -> 2 * x) small_int)))
      (fun (s, v) ->
        let l = Bx.Lens.filter ~keep:(fun x -> x mod 2 = 0) ~default:0 in
        law_holds (Bx.Lens.put_get_law (Bx.Model.list Bx.Model.int) l) (s, v))
  in
  let keymap_wb =
    QCheck2.Test.make ~count:200
      ~name:"list_key_map: GetPut on key-unique sources"
      QCheck2.Gen.(list (pair small_int (small_string ~gen:printable)))
      (fun s ->
        (* Deduplicate keys so the source is a legal dictionary. *)
        let s =
          List.fold_left
            (fun acc (k, v) ->
              if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
            [] s
        in
        let l =
          Bx.Lens.list_key_map ~source_key:fst ~view_key:Fun.id
            (Bx.Lens.first ~default:"new")
        in
        law_holds
          (Bx.Lens.get_put_law Bx.Model.(list (pair int string)) l)
          s)
  in
  List.map QCheck_alcotest.to_alcotest
    [ wb_first; wb_filter; putget_filter; keymap_wb ]

(* ------------------------------------------------------------------ *)
(* Symmetric bx *)

let sym_of_first =
  Bx.Symmetric.of_lens ~view_equal:Int.equal (Bx.Lens.first ~default:"d")

let symmetric_tests =
  [
    tc "of_lens: consistency is get-equality" (fun () ->
        check Alcotest.bool "consistent" true
          (sym_of_first.consistent (1, "x") 1);
        check Alcotest.bool "inconsistent" false
          (sym_of_first.consistent (1, "x") 2));
    tc "of_lens: correct and hippocratic" (fun () ->
        expect_holds "correct" (Bx.Symmetric.correct_law sym_of_first)
          ((1, "x"), 2);
        expect_holds "hippocratic"
          (Bx.Symmetric.hippocratic_law pair_model int_model sym_of_first)
          ((1, "x"), 1));
    tc "invert swaps fwd and bwd" (fun () ->
        let inv = Bx.Symmetric.invert sym_of_first in
        check Alcotest.bool "consistency flipped" true
          (inv.consistent 1 (1, "x"));
        check Alcotest.int "fwd of invert is bwd" 1
          (fst (inv.fwd 2 (1, "x")) |> fun _ -> 1));
    tc "product pairs two bx" (fun () ->
        let p = Bx.Symmetric.product sym_of_first sym_of_first in
        check Alcotest.bool "consistent" true
          (p.consistent ((1, "a"), (2, "b")) (1, 2)));
    tc "identity bx is correct, hippocratic, undoable" (fun () ->
        let bx = Bx.Symmetric.identity in
        expect_holds "correct" (Bx.Symmetric.correct_law bx) (1, 2);
        expect_holds "hippocratic"
          (Bx.Symmetric.hippocratic_law int_model int_model bx) (1, 1);
        expect_holds "undoable-fwd"
          (Bx.Symmetric.undoable_fwd_law int_model bx) (1, 9, 1));
    tc "hippocratic law is vacuous on inconsistent inputs" (fun () ->
        let broken =
          Bx.Symmetric.make ~name:"broken"
            ~consistent:(fun m n -> m = n)
            ~fwd:(fun _ n -> n + 1) (* violates hippocraticness *)
            ~bwd:(fun m _ -> m)
        in
        let law = Bx.Symmetric.hippocratic_fwd_law int_model broken in
        expect_holds "vacuous" law (1, 2);
        expect_violated "caught" law (1, 1));
    tc "undoable law catches information loss" (fun () ->
        (* A bx that forgets: N = int, M = int * string; fwd projects,
           bwd overwrites the string with "". *)
        let lossy =
          Bx.Symmetric.make ~name:"lossy"
            ~consistent:(fun (a, _) n -> a = n)
            ~fwd:(fun (a, _) _ -> a)
            ~bwd:(fun (_, _) n -> (n, ""))
        in
        let law = Bx.Symmetric.undoable_bwd_law pair_model lossy in
        expect_violated "dates-style loss" law ((1, "hidden"), 1, 2));
    tc "history ignorance holds for oblivious bx" (fun () ->
        let law =
          Bx.Symmetric.history_ignorant_fwd_law int_model sym_of_first
        in
        expect_holds "oblivious fwd" law ((1, "x"), (2, "y"), 5));
  ]

(* ------------------------------------------------------------------ *)
(* Edit lenses *)

let elens_tests =
  let ( >>= ) o f = match o with None -> None | Some x -> f x in
  [
    tc "apply_list_op insert/delete/update" (fun () ->
        check Alcotest.(option (list int)) "insert front" (Some [ 9; 1; 2 ])
          (Bx.Elens.apply_list_op (Bx.Elens.Insert_at (0, 9)) [ 1; 2 ]);
        check Alcotest.(option (list int)) "insert end" (Some [ 1; 2; 9 ])
          (Bx.Elens.apply_list_op (Bx.Elens.Insert_at (2, 9)) [ 1; 2 ]);
        check Alcotest.(option (list int)) "insert out of range" None
          (Bx.Elens.apply_list_op (Bx.Elens.Insert_at (3, 9)) [ 1; 2 ]);
        check Alcotest.(option (list int)) "delete" (Some [ 1 ])
          (Bx.Elens.apply_list_op (Bx.Elens.Delete_at 1) [ 1; 2 ]);
        check Alcotest.(option (list int)) "delete out of range" None
          (Bx.Elens.apply_list_op (Bx.Elens.Delete_at 2) [ 1; 2 ]);
        check Alcotest.(option (list int)) "update" (Some [ 1; 9 ])
          (Bx.Elens.apply_list_op (Bx.Elens.Update_at (1, 9)) [ 1; 2 ]));
    tc "edit module composes left to right" (fun () ->
        let m = Bx.Elens.list_edit_module () in
        let e =
          m.compose [ Bx.Elens.Insert_at (0, 1) ] [ Bx.Elens.Update_at (0, 2) ]
        in
        check Alcotest.(option (list int)) "composite" (Some [ 2 ])
          (m.apply e []));
    tc "identity edit is neutral" (fun () ->
        let m = Bx.Elens.list_edit_module () in
        check Alcotest.(option (list int)) "apply id" (Some [ 1; 2 ])
          (m.apply m.identity [ 1; 2 ]));
    tc "list_map_iso translates edits through the iso" (fun () ->
        let lens = Bx.Elens.list_map_iso double in
        let eb, () = lens.fwd [ Bx.Elens.Insert_at (0, 3) ] () in
        check Alcotest.bool "doubled payload" true
          (eb = [ Bx.Elens.Insert_at (0, 6) ]));
    tc "stable law holds for list_map_iso" (fun () ->
        let lens = Bx.Elens.list_map_iso double in
        let law =
          Bx.Elens.stable_law ~eq_ea:( = ) ~eq_eb:( = ) lens ~ea_id:[]
            ~eb_id:[]
        in
        expect_holds "stable" law ());
    tc "round-trip law: consistency propagates through the iso" (fun () ->
        let lens = Bx.Elens.list_map_iso double in
        let ma = Bx.Elens.list_edit_module () in
        let mb = Bx.Elens.list_edit_module () in
        let consistent m n = List.map double.Bx.Iso.fwd m = n in
        let law = Bx.Elens.round_trip_law ~ma ~mb ~consistent lens in
        expect_holds "insert propagates" law
          ([ 1; 2 ], [ 2; 4 ], (), [ Bx.Elens.Insert_at (1, 5) ]);
        expect_holds "vacuous on inconsistent" law
          ([ 1 ], [ 999 ], (), [ Bx.Elens.Delete_at 0 ]);
        ignore ( >>= ));
  ]

(* ------------------------------------------------------------------ *)
(* Properties vocabulary *)

let properties_tests =
  [
    tc "name/of_name round-trips over all properties" (fun () ->
        List.iter
          (fun p ->
            match Bx.Properties.(of_name (name p)) with
            | Some p' -> check Alcotest.bool "round-trip" true (p = p')
            | None -> Alcotest.failf "no parse for %s" (Bx.Properties.name p))
          Bx.Properties.all);
    tc "of_name is case- and separator-insensitive" (fun () ->
        check Alcotest.bool "History Ignorant" true
          (Bx.Properties.of_name "History Ignorant"
          = Some Bx.Properties.History_ignorant);
        check Alcotest.bool "VERY_WELL_BEHAVED" true
          (Bx.Properties.of_name "VERY_WELL_BEHAVED"
          = Some Bx.Properties.Very_well_behaved));
    tc "claims parse with a 'not' prefix" (fun () ->
        check Alcotest.bool "not undoable" true
          (Bx.Properties.claim_of_name "not undoable"
          = Some (Bx.Properties.Violates Bx.Properties.Undoable));
        check Alcotest.bool "correct" true
          (Bx.Properties.claim_of_name "correct"
          = Some (Bx.Properties.Satisfies Bx.Properties.Correct)));
    tc "claim_name inverts claim_of_name" (fun () ->
        let claims =
          List.concat_map
            (fun p -> Bx.Properties.[ Satisfies p; Violates p ])
            Bx.Properties.all
        in
        List.iter
          (fun c ->
            check Alcotest.bool "round-trip" true
              (Bx.Properties.claim_of_name (Bx.Properties.claim_name c)
              = Some c))
          claims);
    tc "every property has a nonempty glossary entry" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.bool "described" true
              (String.length (Bx.Properties.describe p) > 20))
          Bx.Properties.all);
    tc "machine-checkable classification" (fun () ->
        check Alcotest.bool "correct checkable" true
          (Bx.Properties.machine_checkable Bx.Properties.Correct);
        check Alcotest.bool "simply-matching not" false
          (Bx.Properties.machine_checkable Bx.Properties.Simply_matching));
    tc "unknown names do not parse" (fun () ->
        check Alcotest.bool "nonsense" true
          (Bx.Properties.of_name "frobnicating" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Constant-complement lenses *)

let clens_tests =
  [
    tc "pair_first splits and merges" (fun () ->
        let l = Bx.Clens.pair_first () in
        check Alcotest.(pair int string) "split" (1, "c") (l.split (1, "c"));
        check Alcotest.(pair int string) "merge" (2, "c") (l.merge (2, "c")));
    tc "view and complement projections" (fun () ->
        let l = Bx.Clens.pair_first () in
        check Alcotest.int "view" 1 (Bx.Clens.view l (1, "c"));
        check Alcotest.string "complement" "c" (Bx.Clens.complement l (1, "c")));
    tc "of_iso has a trivial complement" (fun () ->
        let double = Bx.Iso.make ~name:"double" ~fwd:(fun x -> 2 * x)
            ~bwd:(fun x -> x / 2) in
        let l = Bx.Clens.of_iso double in
        check Alcotest.int "view" 6 (Bx.Clens.view l 3));
    tc "compose pairs complements" (fun () ->
        let outer = Bx.Clens.pair_first () in
        let inner = Bx.Clens.pair_first () in
        let l = Bx.Clens.compose outer inner in
        (* source ((a, b), c): view a, complement (c, b). *)
        let v, (c1, c2) = l.split ((1, "b"), true) in
        check Alcotest.int "view" 1 v;
        check Alcotest.bool "complements" true (c1 = true && c2 = "b");
        check Alcotest.bool "merge back" true
          (l.merge (9, (c1, c2)) = ((9, "b"), true)));
    tc "bijection laws hold for pair_first" (fun () ->
        let l = Bx.Clens.pair_first () in
        let space = Bx.Model.(pair int string) in
        expect_holds "split-merge" (Bx.Clens.split_merge_law space l) (1, "x");
        expect_holds "merge-split"
          (Bx.Clens.merge_split_law Bx.Model.int ~c_equal:String.equal l)
          (5, "y"));
    tc "the induced lens is very well-behaved (the classical theorem)" (fun () ->
        let l = Bx.Clens.pair_first () in
        let space = Bx.Model.(pair int string) in
        let law = Bx.Clens.induced_put_put_law space ~default:"d" l in
        List.iter (expect_holds "PutPut" law)
          [ ((1, "x"), 2, 3); ((0, ""), 5, 5); ((9, "z"), 1, 0) ]);
    tc "the induced symmetric bx is undoable" (fun () ->
        let l = Bx.Clens.pair_first () in
        let sym = Bx.Clens.to_symmetric ~view_equal:Int.equal ~default:"d" l in
        let space = Bx.Model.(pair int string) in
        expect_holds "undoable-bwd"
          (Bx.Symmetric.undoable_bwd_law space sym)
          ((1, "x"), 1, 42));
  ]

let clens_prop_tests =
  let gen = QCheck2.Gen.(pair small_int (small_string ~gen:printable)) in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"constant complement implies PutPut on random inputs"
         QCheck2.Gen.(pair gen (pair small_int small_int))
         (fun (s, (v, v')) ->
           let l = Bx.Clens.pair_first () in
           let space =
             Bx.Model.make ~name:"s" ~equal:( = )
               ~pp:(fun ppf _ -> Fmt.string ppf "_")
           in
           law_holds (Bx.Clens.induced_put_put_law space ~default:"d" l)
             (s, v, v')));
  ]

(* ------------------------------------------------------------------ *)
(* Multiary bx *)

let span_bx =
  (* Shared source (int * string * bool) as nested pairs, two views. *)
  let first_lens =
    Bx.Lens.make ~name:"fst3"
      ~get:(fun (a, (_, _)) -> a)
      ~put:(fun a (_, rest) -> (a, rest))
      ~create:(fun a -> (a, ("", false)))
  in
  let second_lens =
    Bx.Lens.make ~name:"snd3"
      ~get:(fun (_, (b, _)) -> b)
      ~put:(fun b (a, (_, c)) -> (a, (b, c)))
      ~create:(fun b -> (0, (b, false)))
  in
  Bx.Multi.of_two_lenses ~view_equal_b:Int.equal ~view_equal_c:String.equal
    first_lens second_lens

let multi_tests =
  [
    tc "span consistency requires both views to agree" (fun () ->
        let a = (1, ("x", true)) in
        check Alcotest.bool "consistent" true (span_bx.consistent3 a 1 "x");
        check Alcotest.bool "b off" false (span_bx.consistent3 a 2 "x");
        check Alcotest.bool "c off" false (span_bx.consistent3 a 1 "y"));
    tc "restore_from_a regenerates both views" (fun () ->
        let b, c = span_bx.restore_from_a (1, ("x", true)) 9 "z" in
        check Alcotest.int "b" 1 b;
        check Alcotest.string "c" "x" c);
    tc "restore_from_b updates the source and the other view" (fun () ->
        let a, c = span_bx.restore_from_b (1, ("x", true)) 5 "ignored" in
        check Alcotest.bool "source updated, hidden kept" true
          (a = (5, ("x", true)));
        check Alcotest.string "other view regenerated" "x" c);
    tc "correct3 law holds for the span" (fun () ->
        let law = Bx.Multi.correct3_law span_bx in
        List.iter (expect_holds "correct3" law)
          [
            ((1, ("x", true)), 2, "y");
            ((0, ("", false)), 0, "");
            ((7, ("q", false)), 7, "q");
          ]);
    tc "hippocratic3 law holds for the span" (fun () ->
        let aspace =
          Bx.Model.make ~name:"a" ~equal:( = )
            ~pp:(fun ppf _ -> Fmt.string ppf "_")
        in
        let law =
          Bx.Multi.hippocratic3_law aspace Bx.Model.int Bx.Model.string span_bx
        in
        expect_holds "consistent triple untouched" law ((1, ("x", true)), 1, "x");
        expect_holds "vacuous on inconsistent" law ((1, ("x", true)), 2, "x"));
    tc "a broken ternary bx is caught" (fun () ->
        let broken =
          Bx.Multi.make ~name:"broken"
            ~consistent3:(fun a b c -> a = b && b = c)
            ~restore_from_a:(fun a _ _ -> (a, a + 1))
            ~restore_from_b:(fun _ b _ -> (b, b))
            ~restore_from_c:(fun _ _ c -> (c, c))
        in
        expect_violated "correct3 catches it"
          (Bx.Multi.correct3_law broken) (1, 2, 3));
  ]

(* ------------------------------------------------------------------ *)
(* Diff-aligned list lens *)

let diff_map_tests =
  let elem = Bx.Lens.first ~default:"new" in
  let l =
    Bx.Lens.list_diff_map ~source_key:fst ~view_key:Fun.id elem
  in
  [
    tc "middle insertion keeps surrounding complements" (fun () ->
        let src = [ (1, "one"); (3, "three") ] in
        check Alcotest.bool "inserted" true
          (l.put [ 1; 2; 3 ] src = [ (1, "one"); (2, "new"); (3, "three") ]));
    tc "middle deletion keeps the rest" (fun () ->
        let src = [ (1, "one"); (2, "two"); (3, "three") ] in
        check Alcotest.bool "deleted" true
          (l.put [ 1; 3 ] src = [ (1, "one"); (3, "three") ]));
    tc "duplicate keys: order-respecting, unlike greedy" (fun () ->
        let greedy =
          Bx.Lens.list_key_map ~source_key:fst ~view_key:Fun.id elem
        in
        let src = [ (1, "first"); (1, "second") ] in
        (* Replace the first 1 by 9: LCS matches the remaining 1 to the
           SECOND source; greedy grabs the first. *)
        check Alcotest.bool "diff" true
          (l.put [ 9; 1 ] src = [ (9, "new"); (1, "second") ]);
        check Alcotest.bool "greedy" true
          (greedy.put [ 9; 1 ] src = [ (9, "new"); (1, "first") ]));
    tc "GetPut and PutGet hold" (fun () ->
        let space = Bx.Model.(list (pair int string)) in
        expect_holds "GetPut" (Bx.Lens.get_put_law space l)
          [ (1, "a"); (2, "b") ];
        expect_holds "PutGet"
          (Bx.Lens.put_get_law Bx.Model.(list int) l)
          ([ (1, "a") ], [ 2; 1 ]));
  ]

let diff_map_prop_tests =
  let elem = Bx.Lens.first ~default:"new" in
  let l = Bx.Lens.list_diff_map ~source_key:fst ~view_key:Fun.id elem in
  let gen =
    QCheck2.Gen.(
      list_size (0 -- 15) (pair small_int (small_string ~gen:printable)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"list_diff_map: GetPut on random lists"
         gen
         (fun s ->
           law_holds
             (Bx.Lens.get_put_law Bx.Model.(list (pair int string)) l)
             s));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"list_diff_map: PutGet on random pairs"
         QCheck2.Gen.(pair gen (list_size (0 -- 15) small_int))
         (fun (s, v) ->
           law_holds (Bx.Lens.put_get_law Bx.Model.(list int) l) (s, v)));
    (* The one LCS table behind list_diff_map, Tree_edit.diff and
       Slens.star_diff, against a brute force over every subsequence of
       the first input. *)
    QCheck_alcotest.to_alcotest
      (let word = QCheck2.Gen.(array_size (0 -- 8) (oneofl [ 'a'; 'b'; 'c' ])) in
       QCheck2.Test.make ~count:1000
         ~name:"lcs_pairs: increasing, equal, and as long as brute force"
         QCheck2.Gen.(pair word word)
         (fun (a, b) ->
           let n = Array.length a and m = Array.length b in
           let pairs = Bx.Lens.lcs_pairs ~eq:(fun i j -> a.(i) = b.(j)) n m in
           let rec increasing = function
             | (i, j) :: ((i', j') :: _ as rest) ->
                 i < i' && j < j' && increasing rest
             | _ -> true
           in
           (* Greedy: whether [cs] is a subsequence of b[j..]. *)
           let rec subsequence_of j = function
             | [] -> true
             | c :: rest as cs ->
                 j < m && subsequence_of (j + 1) (if b.(j) = c then rest else cs)
           in
           let brute =
             List.fold_left max 0
               (List.init (1 lsl n) (fun mask ->
                    let sub =
                      List.filter_map
                        (fun i ->
                          if mask land (1 lsl i) <> 0 then Some a.(i) else None)
                        (List.init n Fun.id)
                    in
                    if subsequence_of 0 sub then List.length sub else 0))
           in
           increasing pairs
           && List.for_all
                (fun (i, j) -> i >= 0 && i < n && j >= 0 && j < m && a.(i) = b.(j))
                pairs
           && List.length pairs = brute));
  ]

(* ------------------------------------------------------------------ *)
(* Generic benchmark scenarios *)

let scenario_tests =
  [
    tc "a scenario over the identity bx logs every step" (fun () ->
        let scenario =
          Bx.Scenario.make ~name:"identity-walk" ~initial_left:0
            ~initial_right:0
            [
              Bx.Scenario.Edit_left ("incr", (fun x -> x + 1));
              Bx.Scenario.Edit_right ("double", (fun x -> 2 * x));
              Bx.Scenario.Edit_left ("reset", (fun _ -> 0));
            ]
        in
        let out = Bx.Scenario.run Bx.Symmetric.identity scenario in
        check Alcotest.int "final left" 0 out.Bx.Scenario.final_left;
        check Alcotest.int "final right" 0 out.Bx.Scenario.final_right;
        check Alcotest.int "restorations" 4 out.Bx.Scenario.restorations;
        check Alcotest.bool "throughout" true
          out.Bx.Scenario.consistent_throughout;
        check Alcotest.(list (pair string bool)) "log"
          [ ("incr", true); ("double", true); ("reset", true) ]
          out.Bx.Scenario.step_log);
    tc "a broken bx shows up as inconsistent steps" (fun () ->
        let broken =
          Bx.Symmetric.make ~name:"broken"
            ~consistent:(fun m n -> m = n)
            ~fwd:(fun m _ -> m + 1)
            ~bwd:(fun _ n -> n)
        in
        let scenario =
          Bx.Scenario.make ~name:"broken-walk" ~initial_left:0 ~initial_right:0
            [ Bx.Scenario.Edit_left ("touch", Fun.id) ]
        in
        let out = Bx.Scenario.run broken scenario in
        check Alcotest.bool "caught" false
          out.Bx.Scenario.consistent_throughout);
    tc "pp_outcome renders the log" (fun () ->
        let out =
          Bx.Scenario.run Bx.Symmetric.identity
            (Bx.Scenario.make ~name:"x" ~initial_left:1 ~initial_right:1
               [ Bx.Scenario.Edit_left ("step-one", Fun.id) ])
        in
        let text = Fmt.str "%a" Bx.Scenario.pp_outcome out in
        check Alcotest.bool "mentions step" true
          (let needle = "step-one" in
           let h = text and n = needle in
           let hl = String.length h and nl = String.length n in
           let rec scan i = i + nl <= hl && (String.sub h i nl = n || scan (i + 1)) in
           scan 0));
  ]

(* ------------------------------------------------------------------ *)
(* Edit-lens composition *)

let elens_compose_tests =
  [
    tc "edits flow through the middle language" (fun () ->
        let inc = Bx.Iso.make ~name:"inc" ~fwd:succ ~bwd:pred in
        let l = Bx.Elens.compose (Bx.Elens.list_map_iso double)
            (Bx.Elens.list_map_iso inc) in
        let ec, _ = l.Bx.Elens.fwd [ Bx.Elens.Insert_at (0, 3) ] l.Bx.Elens.init in
        check Alcotest.bool "2*3+1" true (ec = [ Bx.Elens.Insert_at (0, 7) ]);
        let ea, _ = l.Bx.Elens.bwd [ Bx.Elens.Update_at (0, 7) ] l.Bx.Elens.init in
        check Alcotest.bool "backwards" true (ea = [ Bx.Elens.Update_at (0, 3) ]));
    tc "composition is stable" (fun () ->
        let inc = Bx.Iso.make ~name:"inc" ~fwd:succ ~bwd:pred in
        let l = Bx.Elens.compose (Bx.Elens.list_map_iso double)
            (Bx.Elens.list_map_iso inc) in
        let law =
          Bx.Elens.stable_law ~eq_ea:( = ) ~eq_eb:( = ) l ~ea_id:[] ~eb_id:[]
        in
        expect_holds "stable" law l.Bx.Elens.init);
    tc "composed round trip preserves consistency" (fun () ->
        let inc = Bx.Iso.make ~name:"inc" ~fwd:succ ~bwd:pred in
        let l = Bx.Elens.compose (Bx.Elens.list_map_iso double)
            (Bx.Elens.list_map_iso inc) in
        let m = Bx.Elens.list_edit_module () in
        let consistent a c = List.map (fun x -> (2 * x) + 1) a = c in
        let law = Bx.Elens.round_trip_law ~ma:m ~mb:m ~consistent l in
        expect_holds "propagates" law
          ([ 1; 2 ], [ 3; 5 ], l.Bx.Elens.init, [ Bx.Elens.Insert_at (0, 9) ]));
  ]

(* ------------------------------------------------------------------ *)
(* Least change *)

let least_change_tests =
  [
    tc "list edit distance is the textbook Levenshtein" (fun () ->
        let d = Bx.Least_change.list_edit_distance ~equal:Char.equal in
        let chars s = List.init (String.length s) (String.get s) in
        check Alcotest.int "kitten/sitting" 3 (d (chars "kitten") (chars "sitting"));
        check Alcotest.int "same" 0 (d (chars "abc") (chars "abc"));
        check Alcotest.int "to empty" 3 (d (chars "abc") []));
    tc "set distance counts the symmetric difference" (fun () ->
        let d = Bx.Least_change.set_distance ~compare:Int.compare in
        check Alcotest.int "disjoint" 4 (d [ 1; 2 ] [ 3; 4 ]);
        check Alcotest.int "overlap" 2 (d [ 1; 2 ] [ 2; 3 ]);
        check Alcotest.int "duplicates collapse" 0 (d [ 1; 1 ] [ 1 ]));
    tc "identity bx is least-change against any candidates" (fun () ->
        let law =
          Bx.Least_change.fwd_law
            ~candidates:(fun m _ -> [ m; m + 1; m - 1 ])
            ~distance:(fun a b -> abs (a - b))
            Bx.Symmetric.identity
        in
        List.iter (expect_holds "minimal" law) [ (3, 3); (3, 9); (0, -5) ]);
    tc "a gratuitous repair is caught" (fun () ->
        (* consistency: n >= m.  fwd jumps to m + 10 even when m itself
           would do. *)
        let wasteful =
          Bx.Symmetric.make ~name:"wasteful"
            ~consistent:(fun m n -> n >= m)
            ~fwd:(fun m _ -> m + 10)
            ~bwd:(fun m _ -> m)
        in
        let law =
          Bx.Least_change.fwd_law
            ~candidates:(fun m n -> [ m; n; m + 10 ])
            ~distance:(fun a b -> abs (a - b))
            wasteful
        in
        (* n = 2, m = 1: n itself is consistent (2 >= 1) at distance 0,
           but fwd answers 11 at distance 9. *)
        expect_violated "wasteful" law (1, 2));
    tc "inconsistent candidates are ignored" (fun () ->
        let law =
          Bx.Least_change.fwd_law
            ~candidates:(fun _ n -> [ n - 100 (* closer but inconsistent *) ])
            ~distance:(fun a b -> abs (a - b))
            Bx.Symmetric.identity
        in
        expect_holds "over-proposal tolerated" law (5, 7));
    tc "bwd_law is the dual" (fun () ->
        let law =
          Bx.Least_change.bwd_law
            ~candidates:(fun m _ -> [ m; m + 1 ])
            ~distance:(fun a b -> abs (a - b))
            Bx.Symmetric.identity
        in
        expect_holds "minimal" law (4, 9));
  ]

(* ------------------------------------------------------------------ *)
(* State-based symmetric lenses *)

let symlens_tests =
  let fst_lens = Bx.Lens.first ~default:"d" in
  let sl = Bx.Symlens.of_lens ~default:(0, "d") fst_lens in
  [
    tc "of_lens round-trips through the complement" (fun () ->
        let v, c = sl.putr (1, "x") sl.init in
        check Alcotest.int "view" 1 v;
        let s, _ = sl.putl 2 c in
        check Alcotest.bool "hidden data kept" true (s = (2, "x")));
    tc "PutRL and PutLR hold for of_lens" (fun () ->
        let space = Bx.Model.(pair int string) in
        expect_holds "PutRL"
          (Bx.Symlens.put_rl_law space ~c_equal:( = ) sl)
          ((1, "x"), (9, "old"));
        expect_holds "PutLR"
          (Bx.Symlens.put_lr_law Bx.Model.int ~c_equal:( = ) sl)
          (5, (9, "old")));
    tc "of_iso needs no complement" (fun () ->
        let sl = Bx.Symlens.of_iso double in
        check Alcotest.int "putr" 6 (fst (sl.putr 3 ()));
        check Alcotest.int "putl" 3 (fst (sl.putl 6 ())));
    tc "compose pairs complements and threads the middle" (fun () ->
        let sl2 = Bx.Symlens.of_iso double in
        let both = Bx.Symlens.compose sl sl2 in
        let d, c = both.putr (3, "x") both.init in
        check Alcotest.int "doubled view" 6 d;
        let s, _ = both.putl 8 c in
        check Alcotest.bool "back through both" true (s = (4, "x")));
    tc "invert swaps directions" (fun () ->
        let inv = Bx.Symlens.invert sl in
        let s, _ = inv.putl (7, "y") inv.init in
        check Alcotest.int "putl is old putr" 7 s);
    tc "tensor acts componentwise" (fun () ->
        let both = Bx.Symlens.tensor sl (Bx.Symlens.of_iso double) in
        let (v1, v2), _ = both.putr ((1, "x"), 3) both.init in
        check Alcotest.bool "pair" true (v1 = 1 && v2 = 6));
    tc "to_symmetric runs against a complement cell" (fun () ->
        let cell = ref sl.init in
        let bx = Bx.Symlens.to_symmetric sl ~complement:cell in
        let v = bx.Bx.Symmetric.fwd (1, "x") 0 in
        check Alcotest.int "fwd" 1 v;
        let s = bx.Bx.Symmetric.bwd (0, "ignored") 9 in
        check Alcotest.bool "bwd uses the remembered source" true
          (s = (9, "x")));
    tc "a drifting complement is caught by PutRL" (fun () ->
        let leaky =
          Bx.Symlens.make ~name:"leaky" ~init:0
            ~putr:(fun a c -> (a, c + 1)) (* complement drifts *)
            ~putl:(fun b c -> (b, c + 1))
          in
        expect_violated "drift"
          (Bx.Symlens.put_rl_law Bx.Model.int ~c_equal:( = ) leaky)
          (1, 0));
  ]

let () =
  Alcotest.run "bx-framework"
    [
      ("model", model_tests);
      ("law", law_tests);
      ("iso", iso_tests);
      ("lens", lens_tests);
      ("lens-properties", lens_prop_tests);
      ("symmetric", symmetric_tests);
      ("elens", elens_tests);
      ("properties", properties_tests);
      ("clens", clens_tests);
      ("clens-properties", clens_prop_tests);
      ("multi", multi_tests);
      ("diff-map", diff_map_tests);
      ("diff-map-properties", diff_map_prop_tests);
      ("scenario", scenario_tests);
      ("elens-compose", elens_compose_tests);
      ("least-change", least_change_tests);
      ("symlens", symlens_tests);
    ]
