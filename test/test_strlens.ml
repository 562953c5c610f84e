(* Unit and property tests for the Boomerang-style string lenses. *)

open Bx_regex
open Bx_strlens

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let letters = Regex.cset (Cset.range 'a' 'z')
let word = Regex.plus letters
let digits = Regex.plus (Regex.cset (Cset.range '0' '9'))

(* ------------------------------------------------------------------ *)
(* Split machinery *)

let split_tests =
  [
    tc "rev_string" (fun () ->
        check Alcotest.string "abc" "cba" (Split.rev_string "abc");
        check Alcotest.string "empty" "" (Split.rev_string ""));
    tc "concat splitter finds the unique point" (fun () ->
        let split = Split.make_concat_splitter word digits in
        check Alcotest.(pair string string) "ab12" ("ab", "12")
          (split "ab12"));
    tc "concat splitter with boundary marker" (fun () ->
        let split =
          Split.make_concat_splitter
            (Regex.seq word (Regex.chr ','))
            word
        in
        check Alcotest.(pair string string) "a,b" ("a,", "b") (split "a,b"));
    tc "concat splitter raises on non-members" (fun () ->
        let split = Split.make_concat_splitter word digits in
        check Alcotest.bool "raises" true
          (try
             ignore (split "123abc");
             false
           with Split.Split_error _ -> true));
    tc "star splitter chunks lines" (fun () ->
        let line = Regex.(seq (star letters) (chr '\n')) in
        let split = Split.make_star_splitter line in
        check Alcotest.(list string) "chunks" [ "ab\n"; "\n"; "c\n" ]
          (split "ab\n\nc\n"));
    tc "star splitter on empty string yields no chunks" (fun () ->
        let split = Split.make_star_splitter word in
        check Alcotest.(list string) "empty" [] (split ""));
    tc "star splitter rejects nullable bodies" (fun () ->
        check Alcotest.bool "invalid" true
          (try
             let (_ : Split.star_splitter) =
               Split.make_star_splitter (Regex.star letters)
             in
             false
           with Invalid_argument _ -> true));
    tc "star splitter raises on stray suffix" (fun () ->
        let line = Regex.(seq (plus letters) (chr ';')) in
        let split = Split.make_star_splitter line in
        check Alcotest.bool "raises" true
          (try
             ignore (split "ab;cd");
             false
           with Split.Split_error _ -> true));
    tc "two domains share one star splitter on a non-prefix-free body" (fun () ->
        (* ",ab" is a prefix of ",abc", so every call runs the suffix
           pass; each call must use scratch of its own. *)
        let split = Split.make_star_splitter (Regex.seq (Regex.chr ',') word) in
        let doc seed n =
          String.concat "" (List.init n (fun i -> "," ^ String.make (1 + ((seed + i) mod 7)) 'a'))
        in
        let docs = Array.init 8 (fun d -> doc d (200 + (d * 37))) in
        let expected = Array.map split docs in
        let run d () =
          let ok = ref true in
          for r = 1 to 300 do
            let i = (d + r) mod Array.length docs in
            match split docs.(i) with
            | chunks -> if chunks <> expected.(i) then ok := false
            | exception _ -> ok := false
          done;
          !ok
        in
        let others = Domain.spawn (run 1) in
        let mine = run 0 () in
        check Alcotest.bool "first domain agrees" true mine;
        check Alcotest.bool "second domain agrees" true (Domain.join others));
  ]

(* ------------------------------------------------------------------ *)
(* Primitives *)

let prim_tests =
  [
    tc "copy is the identity on its language" (fun () ->
        let l = Slens.copy word in
        check Alcotest.string "get" "abc" (l.get "abc");
        check Alcotest.string "put" "xyz" (l.put "xyz" "abc"));
    tc "const projects away and restores" (fun () ->
        let l = Slens.const ~stype:digits ~view:"N" ~default:"0" in
        check Alcotest.string "get" "N" (l.get "123");
        check Alcotest.string "put restores source" "123" (l.put "N" "123");
        check Alcotest.string "create uses default" "0" (l.create "N"));
    tc "const rejects a default outside the source type" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore (Slens.const ~stype:digits ~view:"N" ~default:"x");
             false
           with Slens.Type_error _ -> true));
    tc "const rejects foreign views on put" (fun () ->
        let l = Slens.const ~stype:digits ~view:"N" ~default:"0" in
        check Alcotest.bool "raises" true
          (try
             ignore (l.put "M" "123");
             false
           with Slens.Type_error _ -> true));
    tc "del erases, put brings the source back" (fun () ->
        let l = Slens.del digits ~default:"0" in
        check Alcotest.string "get" "" (l.get "42");
        check Alcotest.string "put" "42" (l.put "" "42"));
    tc "ins adds view-only text" (fun () ->
        let l = Slens.ins "hi " in
        check Alcotest.string "get" "hi " (l.get "");
        check Alcotest.string "put" "" (l.put "hi " ""));
  ]

(* ------------------------------------------------------------------ *)
(* Combinators *)

let comb_tests =
  [
    tc "concat maps both halves" (fun () ->
        let l = Slens.concat (Slens.copy word)
            (Slens.del digits ~default:"0") in
        check Alcotest.string "get" "ab" (l.get "ab12");
        check Alcotest.string "put keeps hidden digits" "xy12"
          (l.put "xy" "ab12");
        check Alcotest.string "create uses default" "xy0" (l.create "xy"));
    tc "concat rejects ambiguous source types" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore (Slens.concat (Slens.copy (Regex.star letters))
                       (Slens.copy (Regex.star letters)));
             false
           with Slens.Type_error _ -> true));
    tc "concat_list chains several pieces" (fun () ->
        let l =
          Slens.concat_list
            [
              Slens.copy word;
              Slens.const ~stype:(Regex.chr ',') ~view:" - " ~default:",";
              Slens.copy digits;
            ]
        in
        check Alcotest.string "get" "ab - 12" (l.get "ab,12");
        check Alcotest.string "put" "cd,34" (l.put "cd - 34" "ab,12"));
    tc "union dispatches on source type" (fun () ->
        let l = Slens.union (Slens.copy word) (Slens.copy digits) in
        check Alcotest.string "letters" "ab" (l.get "ab");
        check Alcotest.string "digits" "12" (l.get "12"));
    tc "union put prefers the branch of the old source" (fun () ->
        (* Both branches have the same view type; put must route through
           the branch matching the old source. *)
        let b1 =
          Slens.concat (Slens.copy word) (Slens.del (Regex.chr '!') ~default:"!")
        in
        let b2 =
          Slens.concat (Slens.copy word) (Slens.del (Regex.chr '?') ~default:"?")
        in
        let l = Slens.union b1 b2 in
        check Alcotest.string "! source keeps !" "xy!" (l.put "xy" "ab!");
        check Alcotest.string "? source keeps ?" "xy?" (l.put "xy" "ab?"));
    tc "union rejects overlapping source types" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore (Slens.union (Slens.copy word) (Slens.copy (Regex.str "ab")));
             false
           with Slens.Type_error _ -> true));
    tc "union create picks the first matching view type" (fun () ->
        let l = Slens.union (Slens.copy word) (Slens.copy digits) in
        check Alcotest.string "create digits" "12" (l.create "12"));
    tc "star maps chunks and aligns positionally" (fun () ->
        let item =
          Slens.concat (Slens.copy word)
            (Slens.concat
               (Slens.del (Regex.chr ':') ~default:":")
               (Slens.concat (Slens.del digits ~default:"0")
                  (Slens.copy (Regex.chr ';'))))
        in
        let l = Slens.star item in
        check Alcotest.string "get" "ab;cd;" (l.get "ab:1;cd:2;");
        (* Positional: first view chunk reuses first source chunk. *)
        check Alcotest.string "put same length" "xy:1;zw:2;"
          (l.put "xy;zw;" "ab:1;cd:2;");
        check Alcotest.string "put shorter drops" "xy:1;"
          (l.put "xy;" "ab:1;cd:2;");
        check Alcotest.string "put longer creates" "xy:1;zw:2;uv:0;"
          (l.put "xy;zw;uv;" "ab:1;cd:2;"));
    tc "star_key aligns by key, preserving hidden data" (fun () ->
        let item =
          Slens.concat (Slens.copy word)
            (Slens.concat
               (Slens.del (Regex.chr ':') ~default:":")
               (Slens.concat (Slens.del digits ~default:"0")
                  (Slens.copy (Regex.chr ';'))))
        in
        let l = Slens.star_key ~key:Fun.id item in
        (* Reorder the view: hidden numbers follow their words. *)
        check Alcotest.string "reorder" "cd:2;ab:1;"
          (l.put "cd;ab;" "ab:1;cd:2;");
        (* Delete + re-add: data of the re-added key survives within one
           put, because the old source still has it. *)
        check Alcotest.string "drop one" "cd:2;" (l.put "cd;" "ab:1;cd:2;"));
    tc "separated handles empty and non-empty lists" (fun () ->
        let l = Slens.separated ~sep:(Slens.copy (Regex.chr ',')) (Slens.copy word) in
        check Alcotest.string "empty" "" (l.get "");
        check Alcotest.string "single" "ab" (l.get "ab");
        check Alcotest.string "many" "ab,cd" (l.get "ab,cd"));
    tc "compose pipes two lenses" (fun () ->
        (* First lens rewrites ',' to ' '; second deletes digits after the
           space.  Composition requires equal intermediate types. *)
        let l1 =
          Slens.concat_list
            [
              Slens.copy word;
              Slens.const ~stype:(Regex.chr ',') ~view:" " ~default:",";
              Slens.copy digits;
            ]
        in
        let l2 =
          Slens.concat_list
            [
              Slens.copy word;
              Slens.copy (Regex.chr ' ');
              Slens.copy digits;
            ]
        in
        let l = Slens.compose l1 l2 in
        check Alcotest.string "get" "ab 12" (l.get "ab,12");
        check Alcotest.string "put" "cd,34" (l.put "cd 34" "ab,12"));
    tc "compose rejects mismatched intermediate types" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore (Slens.compose (Slens.copy word) (Slens.copy digits));
             false
           with Slens.Type_error _ -> true));
    tc "swap exchanges the two halves in the view" (fun () ->
        let l =
          Slens.swap (Slens.copy word)
            (Slens.copy digits)
        in
        check Alcotest.string "get" "12ab" (l.get "ab12");
        check Alcotest.string "put" "cd34" (l.put "34cd" "ab12"));
  ]

(* ------------------------------------------------------------------ *)
(* Law properties with random well-typed inputs *)

let gen_word = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 8))
let gen_digits = QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (1 -- 5))

let law_holds l x =
  match l.Bx.Law.check x with Bx.Law.Holds -> true | Bx.Law.Violated _ -> false

let entry_gen =
  (* Well-typed sources of the form word:digits; *)
  QCheck2.Gen.(
    map
      (fun pairs ->
        String.concat ""
          (List.map (fun (w, d) -> w ^ ":" ^ d ^ ";") pairs))
      (list_size (0 -- 6) (pair gen_word gen_digits)))

let item =
  Slens.concat (Slens.copy word)
    (Slens.concat
       (Slens.del (Regex.chr ':') ~default:":")
       (Slens.concat (Slens.del digits ~default:"0")
          (Slens.copy (Regex.chr ';'))))

let view_gen =
  QCheck2.Gen.(
    map
      (fun ws -> String.concat "" (List.map (fun w -> w ^ ";") ws))
      (list_size (0 -- 6) gen_word))

let law_tests =
  let mk name gen prop = QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name gen prop) in
  [
    mk "star: GetPut on random well-typed sources" entry_gen (fun s ->
        law_holds (Slens.get_put_law (Slens.star item)) s);
    mk "star: PutGet on random source/view pairs"
      QCheck2.Gen.(pair entry_gen view_gen)
      (fun (s, v) -> law_holds (Slens.put_get_law (Slens.star item)) (s, v));
    mk "star_key: GetPut on random well-typed sources" entry_gen (fun s ->
        law_holds (Slens.get_put_law (Slens.star_key ~key:Fun.id item)) s);
    mk "star_key: PutGet needs key-distinct views"
      QCheck2.Gen.(pair entry_gen view_gen)
      (fun (s, v) ->
        (* Dictionary alignment can merge duplicate keys; restrict to views
           with distinct chunks, which is the documented precondition. *)
        let chunks = String.split_on_char ';' v in
        let distinct = List.sort_uniq compare chunks in
        if List.length distinct <> List.length chunks then true
        else
          law_holds (Slens.put_get_law (Slens.star_key ~key:Fun.id item)) (s, v));
    mk "concat: round-trip through to_lens" QCheck2.Gen.(pair gen_word gen_digits)
      (fun (w, d) ->
        let l =
          Slens.concat (Slens.copy word) (Slens.del digits ~default:"0")
        in
        let fl = Slens.to_lens l in
        let s = w ^ d in
        String.equal (fl.Bx.Lens.put (fl.Bx.Lens.get s) s) s);
  ]

(* ------------------------------------------------------------------ *)
(* The POPL'08 flavour: a composers CSV projection *)

let composers_lens () =
  (* source line:  name, dates, nationality\n
     view line:    name, nationality\n *)
  let name = Regex.plus (Regex.cset (Cset.union (Cset.range 'A' 'Z') (Cset.range 'a' 'z'))) in
  let dates =
    Regex.concat_list
      Regex.[ repeat 4 (cset (Cset.range '0' '9')); chr '-';
              repeat 4 (cset (Cset.range '0' '9')) ]
  in
  let nationality = name in
  let line =
    Slens.concat_list
      [
        Slens.copy name;
        Slens.copy (Regex.str ", ");
        Slens.del (Regex.seq dates (Regex.str ", ")) ~default:"0000-0000, ";
        Slens.copy nationality;
        Slens.copy (Regex.chr '\n');
      ]
  in
  Slens.star_key ~key:Fun.id line

let composers_tests =
  [
    tc "get projects away the dates" (fun () ->
        let l = composers_lens () in
        check Alcotest.string "projection"
          "Jean, French\nAlexandre, French\n"
          (l.get
             "Jean, 1925-2016, French\nAlexandre, 1813-1888, French\n"));
    tc "put preserves dates under reordering" (fun () ->
        let l = composers_lens () in
        check Alcotest.string "reordered"
          "Alexandre, 1813-1888, French\nJean, 1925-2016, French\n"
          (l.put "Alexandre, French\nJean, French\n"
             "Jean, 1925-2016, French\nAlexandre, 1813-1888, French\n"));
    tc "put creates unknown composers with default dates" (fun () ->
        let l = composers_lens () in
        check Alcotest.string "created"
          "Benjamin, 0000-0000, English\n"
          (l.put "Benjamin, English\n" ""));
    tc "deleting from the view deletes from the source" (fun () ->
        let l = composers_lens () in
        check Alcotest.string "deleted" "Jean, 1925-2016, French\n"
          (l.put "Jean, French\n"
             "Jean, 1925-2016, French\nAlexandre, 1813-1888, French\n"));
    tc "construction compiles each distinct regex's DFA exactly once"
      (fun () ->
        (* Warm: every regex of the catalogue Composers lens is compiled. *)
        ignore (Bx_catalogue.Composers_string.build_lens ());
        let h0, m0 = Dfa.cache_stats () in
        (* Rebuilding the whole lens (all type checks, ambiguity analyses
           and splitters rerun) must not build a single DFA. *)
        ignore (Bx_catalogue.Composers_string.build_lens ());
        let h1, m1 = Dfa.cache_stats () in
        check Alcotest.int "re-construction builds no DFA" m0 m1;
        check Alcotest.bool "re-construction is served by the cache" true
          (h1 > h0));
  ]

(* ------------------------------------------------------------------ *)
(* Canonizers / quotient lenses *)

let canonizer_tests =
  [
    tc "identity canonizer is trivial" (fun () ->
        let cz = Canonizer.identity word in
        check Alcotest.string "canonize" "abc" (cz.Canonizer.canonize "abc"));
    tc "make rejects canonical forms outside the concrete type" (fun () ->
        check Alcotest.bool "raises" true
          (try
             let (_ : Canonizer.t) =
               Canonizer.make ~ctype:word ~atype:digits ~canonize:Fun.id
             in
             false
           with Slens.Type_error _ -> true));
    tc "final_newline accepts and repairs unterminated documents" (fun () ->
        let line = Regex.(seq (plus letters) (chr '\n')) in
        let doc = Regex.star line in
        let cz = Canonizer.final_newline doc in
        check Alcotest.string "already terminated" "ab\ncd\n"
          (cz.Canonizer.canonize "ab\ncd\n");
        check Alcotest.string "repaired" "ab\ncd\n"
          (cz.Canonizer.canonize "ab\ncd");
        check Alcotest.bool "ctype accepts unterminated" true
          (Regex.matches cz.Canonizer.ctype "ab\ncd");
        check Alcotest.bool "atype is the terminated form" true
          (Regex.matches cz.Canonizer.atype "ab\ncd\n"));
    tc "canonized_law holds for final_newline" (fun () ->
        let line = Regex.(seq (plus letters) (chr '\n')) in
        let cz = Canonizer.final_newline (Regex.star line) in
        let law = Canonizer.canonized_law cz in
        List.iter
          (fun s ->
            match law.Bx.Law.check s with
            | Bx.Law.Holds -> ()
            | Bx.Law.Violated m -> Alcotest.failf "%S: %s" s m)
          [ "ab\n"; "ab"; ""; "ab\ncd" ]);
    tc "left_quot lets a lens accept sloppy sources" (fun () ->
        let line =
          Slens.concat (Slens.copy word)
            (Slens.copy (Regex.chr '\n'))
        in
        let doc_lens = Slens.star line in
        let cz = Canonizer.final_newline doc_lens.Slens.stype in
        let l = Canonizer.left_quot cz doc_lens in
        check Alcotest.string "unterminated source accepted" "ab\ncd\n"
          (l.Slens.get "ab\ncd");
        check Alcotest.string "put produces the canonical form" "xy\n"
          (l.Slens.put "xy\n" "ab"));
    tc "right_quot canonizes the edited view before put" (fun () ->
        let line =
          Slens.concat (Slens.copy word) (Slens.copy (Regex.chr '\n'))
        in
        let doc_lens = Slens.star line in
        let cz = Canonizer.final_newline doc_lens.Slens.vtype in
        let l = Canonizer.right_quot doc_lens cz in
        check Alcotest.string "sloppy view accepted" "xy\n"
          (l.Slens.put "xy" "ab\n"));
    tc "left_quot rejects mismatched types" (fun () ->
        check Alcotest.bool "raises" true
          (try
             let (_ : Slens.t) =
               Canonizer.left_quot (Canonizer.identity digits)
                 (Slens.copy word)
             in
             false
           with Slens.Type_error _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Diff-aligned star *)

let diff_item =
  Slens.concat (Slens.copy word)
    (Slens.concat
       (Slens.del (Regex.chr ':') ~default:":")
       (Slens.concat (Slens.del digits ~default:"0")
          (Slens.copy (Regex.chr ';'))))

let star_diff_tests =
  [
    tc "middle insertion keeps surrounding hidden data" (fun () ->
        let l = Slens.star_diff ~key:Fun.id diff_item in
        check Alcotest.string "inserted" "aa:1;xx:0;bb:2;"
          (l.Slens.put "aa;xx;bb;" "aa:1;bb:2;"));
    tc "middle deletion keeps the rest" (fun () ->
        let l = Slens.star_diff ~key:Fun.id diff_item in
        check Alcotest.string "deleted" "aa:1;cc:3;"
          (l.Slens.put "aa;cc;" "aa:1;bb:2;cc:3;"));
    tc "duplicate keys align in order (greedy star_key also ok here)" (fun () ->
        let l = Slens.star_diff ~key:Fun.id diff_item in
        check Alcotest.string "both kept" "aa:1;aa:2;"
          (l.Slens.put "aa;aa;" "aa:1;aa:2;"));
    tc "diff vs greedy on duplicate keys with a prefix edit" (fun () ->
        (* Source: aa:1; aa:2;  View: replace the first aa by xx.  LCS
           matches the surviving view "aa" with the LATER source chunk
           (order-respecting: something before it disappeared), while
           greedy key matching grabs the FIRST source chunk. *)
        let src = "aa:1;aa:2;" in
        let view = "xx;aa;" in
        let diff = Slens.star_diff ~key:Fun.id diff_item in
        let greedy = Slens.star_key ~key:Fun.id diff_item in
        check Alcotest.string "diff: order-respecting match"
          "xx:0;aa:2;" (diff.Slens.put view src);
        check Alcotest.string "greedy: first match wins"
          "xx:0;aa:1;" (greedy.Slens.put view src));
    tc "get and create agree with plain star" (fun () ->
        let plain = Slens.star diff_item in
        let diff = Slens.star_diff ~key:Fun.id diff_item in
        check Alcotest.string "get" (plain.Slens.get "aa:1;bb:2;")
          (diff.Slens.get "aa:1;bb:2;");
        check Alcotest.string "create" (plain.Slens.create "aa;bb;")
          (diff.Slens.create "aa;bb;"));
    tc "GetPut holds for star_diff" (fun () ->
        let l = Slens.star_diff ~key:Fun.id diff_item in
        let law = Slens.get_put_law l in
        List.iter
          (fun s ->
            match law.Bx.Law.check s with
            | Bx.Law.Holds -> ()
            | Bx.Law.Violated m -> Alcotest.failf "%S: %s" s m)
          [ ""; "aa:1;"; "aa:1;bb:2;cc:3;"; "aa:1;aa:2;" ]);
  ]

let star_diff_prop_tests =
  let mk name gen prop = QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name gen prop) in
  [
    mk "star_diff: GetPut on random well-typed sources" entry_gen (fun s ->
        law_holds (Slens.get_put_law (Slens.star_diff ~key:Fun.id item)) s);
    mk "star_diff: PutGet on random source/view pairs"
      QCheck2.Gen.(pair entry_gen view_gen)
      (fun (s, v) ->
        law_holds (Slens.put_get_law (Slens.star_diff ~key:Fun.id item)) (s, v));
  ]

(* ------------------------------------------------------------------ *)
(* Permute *)

let permute_tests =
  [
    tc "permute reorders three fields" (fun () ->
        (* source: word,digits,word! ; view: word!word,digits (order [2;0;1]) *)
        let pieces =
          [
            Slens.concat (Slens.copy word) (Slens.del (Regex.chr ',') ~default:",");
            Slens.concat (Slens.copy digits) (Slens.del (Regex.chr ',') ~default:",");
            Slens.copy (Regex.seq word (Regex.chr '!'));
          ]
        in
        let l = Slens.permute ~order:[ 2; 0; 1 ] pieces in
        check Alcotest.string "get" "hi!ab12" (l.Slens.get "ab,12,hi!");
        check Alcotest.string "put" "yo,99,zz!" (l.Slens.put "zz!yo99" "ab,12,hi!"));
    tc "permute with the identity order is concat_list" (fun () ->
        let pieces = [ Slens.copy word; Slens.copy (Regex.chr ';'); Slens.copy digits ] in
        let l = Slens.permute ~order:[ 0; 1; 2 ] pieces in
        let c = Slens.concat_list pieces in
        check Alcotest.string "same get" (c.Slens.get "ab;12") (l.Slens.get "ab;12"));
    tc "swap coincides with permute [1;0]" (fun () ->
        let l1 = Slens.copy word and l2 = Slens.copy digits in
        let s = Slens.swap l1 l2 in
        let p = Slens.permute ~order:[ 1; 0 ] [ l1; l2 ] in
        check Alcotest.string "get" (s.Slens.get "ab12") (p.Slens.get "ab12");
        check Alcotest.string "put" (s.Slens.put "34cd" "ab12")
          (p.Slens.put "34cd" "ab12"));
    tc "permute preserves hidden data per field" (fun () ->
        let field = Slens.concat (Slens.copy word)
            (Slens.concat (Slens.del (Regex.chr ':') ~default:":")
               (Slens.del digits ~default:"0")) in
        let semi = Slens.copy (Regex.chr ';') in
        let l =
          Slens.permute ~order:[ 2; 1; 0 ]
            [ field; semi; Slens.copy digits ]
        in
        (* source: ab:7;12  view: 12;ab *)
        check Alcotest.string "get" "12;ab" (l.Slens.get "ab:7;12");
        check Alcotest.string "put keeps :7" "xy:7;99"
          (l.Slens.put "99;xy" "ab:7;12"));
    tc "permute rejects non-permutations" (fun () ->
        List.iter
          (fun order ->
            check Alcotest.bool "raises" true
              (try
                 let (_ : Slens.t) =
                   Slens.permute ~order [ Slens.copy word; Slens.copy digits ]
                 in
                 false
               with Slens.Type_error _ -> true))
          [ [ 0; 0 ]; [ 1 ]; [ 0; 1; 2 ]; [ 2; 0 ] ]);
    tc "permute rejects ambiguous chains" (fun () ->
        check Alcotest.bool "raises" true
          (try
             let (_ : Slens.t) =
               Slens.permute ~order:[ 0; 1 ] [ Slens.copy word; Slens.copy word ]
             in
             false
           with Slens.Type_error _ -> true));
    tc "GetPut/PutGet hold for a permuted lens" (fun () ->
        let l =
          Slens.permute ~order:[ 1; 0 ]
            [ Slens.copy word; Slens.copy digits ]
        in
        let gp = Slens.get_put_law l and pg = Slens.put_get_law l in
        (match gp.Bx.Law.check "ab12" with
        | Bx.Law.Holds -> ()
        | Bx.Law.Violated m -> Alcotest.fail m);
        match pg.Bx.Law.check ("ab12", "34cd") with
        | Bx.Law.Holds -> ()
        | Bx.Law.Violated m -> Alcotest.fail m);
  ]

(* ------------------------------------------------------------------ *)
(* The execution engine: allocation discipline, batching, counters *)

(* Promoted and direct-major words of one [f ()] on this domain,
   bracketed by minor collections.  The runtime folds direct-major
   allocations into its counters a slice at a time, so a sample can
   carry words allocated before it; the least of three runs does not. *)
let major_words f =
  ignore (Sys.opaque_identity (f ()));
  let once () =
    Gc.minor ();
    let a = Gc.quick_stat () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor ();
    let b = Gc.quick_stat () in
    let promoted = b.Gc.promoted_words -. a.Gc.promoted_words in
    (promoted, b.Gc.major_words -. a.Gc.major_words -. promoted)
  in
  List.fold_left
    (fun (p, d) (p', d') -> (Float.min p p', Float.min d d'))
    (infinity, infinity)
    (List.init 3 (fun _ -> once ()))

let engine_tests =
  let module CS = Bx_catalogue.Composers_string in
  [
    tc "end-to-end get allocates output, not intermediates" (fun () ->
        (* The copying engine allocates hundreds of minor words per line
           (every split materialises both halves); the slice engine only
           allocates the output buffer, the result string and the bounds
           arrays.  A budget of 35 words/line (measured: ~17) fails if
           anyone reintroduces per-split substrings. *)
        let k = 500 in
        let src = CS.synthetic_source k in
        ignore (CS.lens.Slens.get src);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (CS.lens.Slens.get src));
        let per_line = (Gc.minor_words () -. before) /. float_of_int k in
        if per_line > 35. then
          Alcotest.failf "get allocates %.1f minor words/line (budget 35)"
            per_line);
    tc "end-to-end put stays within its allocation budget" (fun () ->
        (* Keyed put additionally builds the chunk-key table and captures
           chunk views; measured ~100 words/line, budget 200. *)
        let k = 500 in
        let src = CS.synthetic_source k in
        let view = CS.synthetic_view k in
        ignore (CS.lens.Slens.put view src);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (CS.lens.Slens.put view src));
        let per_line = (Gc.minor_words () -. before) /. float_of_int k in
        if per_line > 200. then
          Alcotest.failf "put allocates %.1f minor words/line (budget 200)"
            per_line);
    tc "get_all matches get document-wise" (fun () ->
        let docs = List.init 5 (fun i -> CS.synthetic_source (10 + i)) in
        check
          Alcotest.(list string)
          "batch = map" (List.map CS.lens.Slens.get docs)
          (Slens.get_all CS.lens docs));
    tc "get_all with several workers agrees with one" (fun () ->
        let docs = List.init 12 (fun i -> CS.synthetic_source (5 + i)) in
        check
          Alcotest.(list string)
          "workers irrelevant to results"
          (Slens.get_all ~workers:1 CS.lens docs)
          (Slens.get_all ~workers:4 CS.lens docs));
    tc "put_all matches put pair-wise" (fun () ->
        let pairs =
          List.init 6 (fun i ->
              (CS.synthetic_view (4 + i), CS.synthetic_source (4 + i)))
        in
        check
          Alcotest.(list string)
          "batch = map"
          (List.map (fun (v, s) -> CS.lens.Slens.put v s) pairs)
          (Slens.put_all ~workers:3 CS.lens pairs));
    tc "create_all matches create" (fun () ->
        let views = List.init 4 (fun i -> CS.synthetic_view (3 + i)) in
        check
          Alcotest.(list string)
          "batch = map"
          (List.map CS.lens.Slens.create views)
          (Slens.create_all ~workers:2 CS.lens views));
    tc "stats count bytes and splits" (fun () ->
        Slens.reset_stats ();
        let src = CS.synthetic_source 20 in
        ignore (CS.lens.Slens.get src);
        let st = Slens.stats () in
        check Alcotest.bool "bytes counted" true
          (st.Slens.bytes >= String.length src);
        (* 20 records, each split into 5 parts: at least 20 chunk
           decisions and 20 * 4 field boundaries. *)
        check Alcotest.bool "splits counted" true (st.Slens.splits >= 100);
        ignore (CS.lens.Slens.get src);
        let st2 = Slens.stats () in
        check Alcotest.bool "counters are cumulative" true
          (st2.Slens.bytes > st.Slens.bytes);
        check Alcotest.bool "contexts are reused" true
          (st2.Slens.ctx_reuse > 0));
    tc "four domains first-use one freshly built lens" (fun () ->
        (* The type DFAs are compiled on first use; every domain racing
           on that first use must get its answer, none an exception. *)
        let src = "Jean Sibelius, 1865-1957, Finnish\n" in
        for _ = 1 to 50 do
          let l = CS.build_lens () in
          let ready = Atomic.make 0 in
          let go () =
            Atomic.incr ready;
            while Atomic.get ready < 4 do Domain.cpu_relax () done;
            l.Slens.get src
          in
          List.init 4 (fun _ -> Domain.spawn go)
          |> List.iter (fun d ->
                 check Alcotest.string "view" "Jean Sibelius, Finnish\n"
                   (Domain.join d))
        done);
    tc "a star over a non-exact body never splices" (fun () ->
        (* A quotient body restores its source only up to canonization
           (squeezing repeated spaces), so an unchanged chunk must still
           run the body's put, and the output is canonical. *)
        let canon_line = Regex.(seq (seq word (star (seq (chr ' ') word))) (chr '\n')) in
        let loose_line =
          Regex.(seq (seq word (star (seq (plus (chr ' ')) word))) (chr '\n'))
        in
        let squeeze s =
          let b = Buffer.create (String.length s) in
          String.iteri
            (fun i c -> if not (c = ' ' && i > 0 && s.[i - 1] = ' ') then Buffer.add_char b c)
            s;
          Buffer.contents b
        in
        let cz = Canonizer.make ~ctype:loose_line ~atype:canon_line ~canonize:squeeze in
        let quot = Slens.star_key ~key:Fun.id (Canonizer.left_quot cz (Slens.copy canon_line)) in
        let exact = Slens.star_key ~key:Fun.id (Slens.copy loose_line) in
        let src = "ab  cd\nef   gh\n" in
        let spliced f =
          let before = (Slens.stats ()).Slens.chunks_spliced in
          let r = f () in
          (r, (Slens.stats ()).Slens.chunks_spliced - before)
        in
        let out, n = spliced (fun () -> quot.Slens.put (quot.Slens.get src) src) in
        check Alcotest.string "canonical output" "ab cd\nef gh\n" out;
        check Alcotest.int "nothing spliced" 0 n;
        let out, n = spliced (fun () -> exact.Slens.put (exact.Slens.get src) src) in
        check Alcotest.string "exact body restores the source" src out;
        check Alcotest.int "exact body splices both chunks" 2 n);
    tc "composers put of 1000 records stays under 50k minor words" (fun () ->
        (* Unchanged chunks are spliced, not re-put: measured 20,038
           words (100,012 before the splice).  Minor-word counts repeat
           exactly, so the bound is a tight guard. *)
        let src = CS.synthetic_source 1000 and view = CS.synthetic_view 1000 in
        ignore (CS.lens.Slens.put view src);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (CS.lens.Slens.put view src));
        let words = Gc.minor_words () -. before in
        if words > 50_000. then
          Alcotest.failf "put allocates %.0f minor words (budget 50000)" words);
    tc "ill-typed inputs raise the membership type error" (fun () ->
        (* The message names the public function, the offending string
           and the type it fails; when both sides of a put are ill
           typed it names the view.  No split error escapes. *)
        let lead =
          Slens.star
            (Slens.concat_list
               [ Slens.copy (Regex.chr ','); Slens.copy word; Slens.del digits ~default:"0" ])
        in
        let expect (l : Slens.t) what x r f =
          match f () with
          | _ -> Alcotest.failf "%s accepted ill-typed %S" what x
          | exception Slens.Type_error m ->
              check Alcotest.string what
                (Format.asprintf "%s: %S does not belong to %a" what x Regex.pp
                   (if r = `Source then l.Slens.stype else l.Slens.vtype))
                m
          | exception Split.Split_error m -> Alcotest.failf "split error escaped: %s" m
        in
        let cases =
          [
            ( CS.lens,
              CS.synthetic_source 3,
              CS.synthetic_view 3,
              [ CS.synthetic_source 3 ^ "Jean"; "Jean, 1865-1957\n"; "x" ],
              [ CS.synthetic_view 3 ^ "Jean"; "Jean, Finnish"; "Jean,Finnish\n" ] );
            (lead, ",ab12,cd3", ",ab,cd", [ ",ab12,cd3~"; "ab12,cd3"; ",ab,cd" ], [ ",ab,cd~"; "ab,cd"; ",ab1" ]);
          ]
        in
        List.iter
          (fun (l, s, v, bad_s, bad_v) ->
            List.iter
              (fun bs ->
                expect l "get" bs `Source (fun () -> l.Slens.get bs);
                expect l "put" bs `Source (fun () -> l.Slens.put v bs))
              bad_s;
            List.iter
              (fun bv ->
                expect l "create" bv `View (fun () -> l.Slens.create bv);
                expect l "put" bv `View (fun () -> l.Slens.put bv s);
                List.iter (fun bs -> expect l "put" bv `View (fun () -> l.Slens.put bv bs)) bad_s)
              bad_v)
          cases);
    tc "composers put of 1000 records keeps its keys out of the major heap" (fun () ->
        (* Measured 5,927 promoted and 17,627 direct-major words while
           the chunk keys were strings in arrays; 28 and 7,568 with them
           packed in the per-domain scratch. *)
        let src = CS.synthetic_source 1000 and view = CS.synthetic_view 1000 in
        let promoted, direct = major_words (fun () -> CS.lens.Slens.put view src) in
        if promoted >= 500. then
          Alcotest.failf "put promotes %.0f words (budget 500)" promoted;
        if direct >= 12_000. then
          Alcotest.failf "put allocates %.0f words in the major heap (budget 12000)" direct);
    tc "a put_batch of 8 composers documents stays under 100k direct-major words"
      (fun () ->
        (* Measured 219,772 words while the route split and concatenated
           copies of its documents; 60,532 over slices. *)
        let t =
          match
            Bx_server.Service.create ~lenses:[ ("composers", CS.lens) ]
              ~seed:Bx_catalogue.Catalogue.seed ()
          with
          | Ok t -> t
          | Error e -> Alcotest.fail e
        in
        let record = CS.synthetic_view 1000 ^ "\x1f" ^ CS.synthetic_source 1000 in
        let body = String.concat "\x1e" (List.init 8 (fun _ -> record)) in
        let post () =
          Bx_server.Service.handle t ~meth:"POST" ~path:"/slens/composers/put_batch" ~body
        in
        check Alcotest.int "put_batch" 200 (post ()).Bx_repo.Webui.status;
        let _, direct = major_words post in
        if direct >= 100_000. then
          Alcotest.failf "put_batch allocates %.0f words in the major heap (budget 100000)"
            direct);
  ]

let () =
  Alcotest.run "bx-strlens"
    [
      ("split", split_tests);
      ("primitives", prim_tests);
      ("combinators", comb_tests);
      ("laws", law_tests);
      ("composers-csv", composers_tests);
      ("canonizer", canonizer_tests);
      ("star-diff", star_diff_tests);
      ("star-diff-properties", star_diff_prop_tests);
      ("permute", permute_tests);
      ("engine", engine_tests);
    ]
