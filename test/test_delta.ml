(* Delta propagation: Sdiff the differ, and Slens_delta's put_delta /
   get_delta against full put / get on both engines.

   The lens generator is the well-typed-by-construction description
   tree of test_strlens_equiv; here sources are generated and views
   derived by get (put_delta's precondition is view = get source), and
   edits are produced by diffing the current view against a freshly
   generated member of the view language — so diff, apply and the
   delta tiers are all exercised on the same inputs.  Roots vary over
   every combinator, which forces the fallback tier (opaque roots),
   the slow tier (duplicate star_key keys) and the fast tier (star
   roots with benign edits) without any steering. *)

open Bx_regex
open Bx_strlens
module S = Slens
module R = Slens_ref
module D = Slens_delta

(* ------------------------------------------------------------------ *)
(* Sdiff unit tests *)

let edit_testable =
  Alcotest.testable
    (fun fmt e ->
      List.iter
        (fun { Sdiff.at; drop; insert } ->
          Format.fprintf fmt "@%d -%d +%S " at drop insert)
        e)
    ( = )

let check_diff_apply old new_ () =
  let e = Sdiff.diff old new_ in
  Alcotest.(check string) "apply reproduces target" new_ (Sdiff.apply old e);
  let decoded =
    match Sdiff.decode (Sdiff.encode e) with
    | Ok e -> e
    | Error m -> Alcotest.failf "decode: %s" m
  in
  Alcotest.(check edit_testable) "encode/decode roundtrip" e decoded

let sdiff_unit_tests =
  [
    Alcotest.test_case "identical documents diff to empty" `Quick (fun () ->
        Alcotest.(check edit_testable) "empty" [] (Sdiff.diff "a\nb\n" "a\nb\n"));
    Alcotest.test_case "single line replace" `Quick (fun () ->
        let e = Sdiff.diff "a\nb\nc\n" "a\nX\nc\n" in
        Alcotest.(check edit_testable)
          "one hunk" [ { Sdiff.at = 2; drop = 2; insert = "X\n" } ] e;
        check_diff_apply "a\nb\nc\n" "a\nX\nc\n" ());
    Alcotest.test_case "insert / delete / prepend / append" `Quick (fun () ->
        check_diff_apply "a\nb\n" "a\nX\nb\n" ();
        check_diff_apply "a\nb\nc\n" "a\nc\n" ();
        check_diff_apply "b\n" "a\nb\n" ();
        check_diff_apply "a\n" "a\nb\n" ();
        check_diff_apply "" "a\nb\n" ();
        check_diff_apply "a\nb\n" "" ();
        check_diff_apply "no newline" "no newline at all" ());
    Alcotest.test_case "hull spans the changed bytes" `Quick (fun () ->
        let old = "aa\nbb\ncc\ndd\n" in
        let e = Sdiff.diff old "aa\nXX\nYY\ndd\n" in
        let doc, (a, b_old, b_new) = Sdiff.apply_with_span old e in
        Alcotest.(check string) "apply" "aa\nXX\nYY\ndd\n" doc;
        Alcotest.(check bool) "prefix intact" true (a >= 3 && b_old <= 9);
        Alcotest.(check int) "shift" (b_new - b_old)
          (String.length doc - String.length old + (b_old - b_old)));
    Alcotest.test_case "malformed edits are rejected" `Quick (fun () ->
        let bad () =
          Sdiff.apply "abc" [ { Sdiff.at = 2; drop = 5; insert = "" } ]
        in
        (match bad () with
        | exception Sdiff.Bad_edit _ -> ()
        | _ -> Alcotest.fail "out-of-bounds edit accepted");
        let overlapping =
          [
            { Sdiff.at = 0; drop = 2; insert = "" };
            { Sdiff.at = 1; drop = 1; insert = "" };
          ]
        in
        (match Sdiff.apply "abc" overlapping with
        | exception Sdiff.Bad_edit _ -> ()
        | _ -> Alcotest.fail "overlapping edit accepted");
        match Sdiff.decode "bxedit1\n3 1 1\nx0 1 0\n" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage frame decoded");
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: Sdiff over random line documents *)

open QCheck2

let gen_line = Gen.(string_size ~gen:(char_range 'a' 'e') (0 -- 4))

let gen_doc =
  Gen.(
    map
      (fun ls -> String.concat "" (List.map (fun l -> l ^ "\n") ls))
      (list_size (0 -- 12) gen_line))

let count = 1000

let prop name gen print f =
  QCheck_alcotest.to_alcotest (Test.make ~count ~name ~print gen f)

let sdiff_prop_tests =
  [
    prop "apply (diff a b) = b"
      Gen.(pair gen_doc gen_doc)
      (fun (a, b) -> Printf.sprintf "%S -> %S" a b)
      (fun (a, b) -> String.equal (Sdiff.apply a (Sdiff.diff a b)) b);
    prop "decode (encode e) = e"
      Gen.(pair gen_doc gen_doc)
      (fun (a, b) -> Printf.sprintf "%S -> %S" a b)
      (fun (a, b) ->
        let e = Sdiff.diff a b in
        match Sdiff.decode (Sdiff.encode e) with
        | Ok e' -> e = e'
        | Error _ -> false);
    prop "documents agree outside the hull"
      Gen.(pair gen_doc gen_doc)
      (fun (a, b) -> Printf.sprintf "%S -> %S" a b)
      (fun (a, b) ->
        let e = Sdiff.diff a b in
        let doc, (h0, h1_old, h1_new) = Sdiff.apply_with_span a e in
        String.equal doc b
        && String.sub a 0 h0 = String.sub doc 0 h0
        && String.sub a h1_old (String.length a - h1_old)
           = String.sub doc h1_new (String.length doc - h1_new));
  ]

(* ------------------------------------------------------------------ *)
(* Lens description trees (the test_strlens_equiv generator, with
   sources only — views are derived by get). *)

type desc =
  | Dword
  | Ddigits
  | Ddel
  | Dconst
  | Dins
  | Dseq of int * desc * desc
  | Dalt of desc * desc
  | Drep of int * desc
  | Drepkey of int * desc
  | Drepdiff of int * desc
  | Dperm of int * desc * desc

let sep_ch = [| ','; ';'; '|' |]
let sep_str n = String.make 1 sep_ch.(n - 1)
let sep_re n = Regex.chr sep_ch.(n - 1)
let letters = Regex.cset (Cset.range 'a' 'z')
let word = Regex.plus letters
let digits = Regex.plus (Regex.cset (Cset.range '0' '9'))

let rec pp_desc fmt = function
  | Dword -> Format.fprintf fmt "word"
  | Ddigits -> Format.fprintf fmt "digits"
  | Ddel -> Format.fprintf fmt "del"
  | Dconst -> Format.fprintf fmt "const"
  | Dins -> Format.fprintf fmt "ins"
  | Dseq (n, a, b) -> Format.fprintf fmt "seq%d(%a,%a)" n pp_desc a pp_desc b
  | Dalt (a, b) -> Format.fprintf fmt "alt(%a,%a)" pp_desc a pp_desc b
  | Drep (n, d) -> Format.fprintf fmt "rep%d(%a)" n pp_desc d
  | Drepkey (n, d) -> Format.fprintf fmt "repkey%d(%a)" n pp_desc d
  | Drepdiff (n, d) -> Format.fprintf fmt "repdiff%d(%a)" n pp_desc d
  | Dperm (n, a, b) -> Format.fprintf fmt "perm%d(%a,%a)" n pp_desc a pp_desc b

let rec build_s : desc -> S.t = function
  | Dword -> S.copy word
  | Ddigits -> S.copy digits
  | Ddel -> S.del word ~default:"x"
  | Dconst -> S.const ~stype:digits ~view:"#" ~default:"0"
  | Dins -> S.ins "!"
  | Dseq (n, a, b) ->
      S.concat_list [ build_s a; S.copy (sep_re n); build_s b ]
  | Dalt (a, b) ->
      S.union
        (S.concat (S.copy (Regex.chr 'A')) (build_s a))
        (S.concat (S.copy (Regex.chr 'B')) (build_s b))
  | Drep (n, d) -> S.star (S.concat (build_s d) (S.copy (sep_re n)))
  | Drepkey (n, d) ->
      S.star_key ~key:Fun.id (S.concat (build_s d) (S.copy (sep_re n)))
  | Drepdiff (n, d) ->
      S.star_diff ~key:Fun.id (S.concat (build_s d) (S.copy (sep_re n)))
  | Dperm (n, a, b) ->
      S.permute ~order:[ 1; 0 ]
        [
          S.concat (build_s a) (S.copy (sep_re n));
          S.concat (build_s b) (S.copy (sep_re n));
        ]

let rec build_r : desc -> R.t = function
  | Dword -> R.copy word
  | Ddigits -> R.copy digits
  | Ddel -> R.del word ~default:"x"
  | Dconst -> R.const ~stype:digits ~view:"#" ~default:"0"
  | Dins -> R.ins "!"
  | Dseq (n, a, b) ->
      R.concat_list [ build_r a; R.copy (sep_re n); build_r b ]
  | Dalt (a, b) ->
      R.union
        (R.concat (R.copy (Regex.chr 'A')) (build_r a))
        (R.concat (R.copy (Regex.chr 'B')) (build_r b))
  | Drep (n, d) -> R.star (R.concat (build_r d) (R.copy (sep_re n)))
  | Drepkey (n, d) ->
      R.star_key ~key:Fun.id (R.concat (build_r d) (R.copy (sep_re n)))
  | Drepdiff (n, d) ->
      R.star_diff ~key:Fun.id (R.concat (build_r d) (R.copy (sep_re n)))
  | Dperm (n, a, b) ->
      R.permute ~order:[ 1; 0 ]
        [
          R.concat (build_r a) (R.copy (sep_re n));
          R.concat (build_r b) (R.copy (sep_re n));
        ]

let gen_word = Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 5))
let gen_digits = Gen.(string_size ~gen:(char_range '0' '9') (1 -- 4))

let desc_gen =
  let open Gen in
  let leaf = oneofl [ Dword; Ddigits; Ddel; Dconst; Dins ] in
  let rec go n =
    if n = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (2, map2 (fun a b -> Dseq (n, a, b)) (go (n - 1)) (go (n - 1)));
          (1, map2 (fun a b -> Dalt (a, b)) (go (n - 1)) (go (n - 1)));
          (3, map (fun d -> Drep (n, d)) (go (n - 1)));
          (3, map (fun d -> Drepkey (n, d)) (go (n - 1)));
          (2, map (fun d -> Drepdiff (n, d)) (go (n - 1)));
          (1, map2 (fun a b -> Dperm (n, a, b)) (go (n - 1)) (go (n - 1)));
        ]
  in
  1 -- 3 >>= go

let rec gen_src = function
  | Dword | Ddel -> gen_word
  | Ddigits | Dconst -> gen_digits
  | Dins -> Gen.return ""
  | Dseq (n, a, b) ->
      Gen.map2 (fun x y -> x ^ sep_str n ^ y) (gen_src a) (gen_src b)
  | Dalt (a, b) ->
      Gen.oneof
        [
          Gen.map (fun x -> "A" ^ x) (gen_src a);
          Gen.map (fun x -> "B" ^ x) (gen_src b);
        ]
  | Drep (n, d) | Drepkey (n, d) | Drepdiff (n, d) ->
      Gen.map
        (fun xs -> String.concat "" (List.map (fun x -> x ^ sep_str n) xs))
        (Gen.list_size Gen.(0 -- 5) (gen_src d))
  | Dperm (n, a, b) ->
      Gen.map2
        (fun x y -> x ^ sep_str n ^ y ^ sep_str n)
        (gen_src a) (gen_src b)

let rec gen_view = function
  | Dword -> gen_word
  | Ddigits -> gen_digits
  | Ddel -> Gen.return ""
  | Dconst -> Gen.return "#"
  | Dins -> Gen.return "!"
  | Dseq (n, a, b) ->
      Gen.map2 (fun x y -> x ^ sep_str n ^ y) (gen_view a) (gen_view b)
  | Dalt (a, b) ->
      Gen.oneof
        [
          Gen.map (fun x -> "A" ^ x) (gen_view a);
          Gen.map (fun x -> "B" ^ x) (gen_view b);
        ]
  | Drep (n, d) | Drepkey (n, d) | Drepdiff (n, d) ->
      Gen.map
        (fun xs -> String.concat "" (List.map (fun x -> x ^ sep_str n) xs))
        (Gen.list_size Gen.(0 -- 5) (gen_view d))
  | Dperm (n, a, b) ->
      Gen.map2
        (fun x y -> y ^ sep_str n ^ x ^ sep_str n)
        (gen_view a) (gen_view b)

(* One delta scenario: a source, plus a sequence of target views to
   step the document through one edit at a time (so the cache is
   exercised warm, across fast, slow and fallback patches). *)
let scenario_gen =
  Gen.(
    desc_gen >>= fun d ->
    gen_src d >>= fun s ->
    list_size (1 -- 3) (gen_view d) >>= fun targets ->
    return (d, s, targets))

let print_scenario (d, s, targets) =
  Format.asprintf "%a src %S through %a" pp_desc d s
    (Format.pp_print_list (fun fmt v -> Format.fprintf fmt "%S" v))
    targets

(* ------------------------------------------------------------------ *)
(* Delta vs full propagation *)

let put_delta_equiv (d, s0, targets) =
  let l = build_s d and lr = build_r d in
  let cache = D.make_cache () in
  let rec go s v = function
    | [] -> true
    | target :: rest ->
        let edit = Sdiff.diff v target in
        let ns, se = D.put_delta l ~cache ~source:s ~view:v edit in
        let full = l.S.put target s in
        let full_ref = lr.R.put target s in
        String.equal ns full
        && String.equal ns full_ref
        && String.equal (Sdiff.apply s se) ns
        && go ns target rest
  in
  let v0 = l.S.get s0 in
  go s0 v0 targets

let get_delta_equiv (d, s0, targets) =
  (* Step the SOURCE through members of the source language: targets
     are re-generated as sources by reusing the view generator only
     when the languages coincide, so instead drive with gen_src-shaped
     targets threaded through the scenario's source list. *)
  ignore targets;
  let l = build_s d and lr = build_r d in
  let cache = D.make_cache () in
  let v0 = l.S.get s0 in
  (* Derive successor sources by full put of generated views — any
     member of the source language reachable by put is a valid source. *)
  let s1 = l.S.put v0 s0 in
  let edit = Sdiff.diff s0 s1 in
  let nv, ve = D.get_delta l ~cache ~source:s0 ~view:v0 edit in
  String.equal nv (l.S.get s1)
  && String.equal nv (lr.R.get s1)
  && String.equal (Sdiff.apply v0 ve) nv

(* get_delta stepped through genuinely different sources. *)
let get_scenario_gen =
  Gen.(
    desc_gen >>= fun d ->
    gen_src d >>= fun s ->
    list_size (1 -- 3) (gen_src d) >>= fun targets ->
    return (d, s, targets))

let get_delta_steps (d, s0, targets) =
  let l = build_s d and lr = build_r d in
  let cache = D.make_cache () in
  let rec go s v = function
    | [] -> true
    | target :: rest ->
        let edit = Sdiff.diff s target in
        let nv, ve = D.get_delta l ~cache ~source:s ~view:v edit in
        String.equal nv (l.S.get target)
        && String.equal nv (lr.R.get target)
        && String.equal (Sdiff.apply v ve) nv
        && go target nv rest
  in
  go s0 (l.S.get s0) targets

let delta_prop_tests =
  [
    prop "put_delta = full put (both engines), stepped through edits"
      scenario_gen print_scenario put_delta_equiv;
    prop "get_delta = full get (both engines), stepped through edits"
      get_scenario_gen print_scenario get_delta_steps;
    prop "get_delta after a put-roundtrip source edit" scenario_gen
      print_scenario get_delta_equiv;
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic delta cases: tier steering and the composers lens.
   Chunks are newline-terminated so the line differ's hull localises to
   a chunk window. *)

let keyed_lens () =
  (* source chunk "<word>, <digits>\n", view chunk "<word>\n" *)
  let chunk =
    S.concat_list
      [
        S.copy word;
        S.del (Regex.seq (Regex.str ", ") digits) ~default:", 0";
        S.copy (Regex.chr '\n');
      ]
  in
  S.star_key ~key:Fun.id chunk

let delta_stats_diff f =
  let before = D.stats () in
  let r = f () in
  let after = D.stats () in
  ( r,
    ( after.D.fast_puts - before.D.fast_puts,
      after.D.slow_puts - before.D.slow_puts,
      after.D.fallback_puts - before.D.fallback_puts ) )

let deterministic_tests =
  [
    Alcotest.test_case "composers single-line edit takes the fast path"
      `Quick (fun () ->
        let l = Bx_catalogue.Composers_string.build_lens () in
        let src = Bx_catalogue.Composers_string.synthetic_source 50 in
        let view = l.S.get src in
        let cache = D.make_cache () in
        let target =
          (* replace one line's nationality *)
          let lines = String.split_on_char '\n' view in
          let lines =
            List.mapi
              (fun i line ->
                if i = 25 then
                  match String.rindex_opt line ',' with
                  | Some c -> String.sub line 0 c ^ ", Edited"
                  | None -> line
                else line)
              lines
          in
          String.concat "\n" lines
        in
        let edit = Sdiff.diff view target in
        let (ns, se), (fast, slow, fb) =
          delta_stats_diff (fun () ->
              D.put_delta l ~cache ~source:src ~view edit)
        in
        Alcotest.(check string) "equals full put" (l.S.put target src) ns;
        Alcotest.(check string) "edit replays" ns (Sdiff.apply src se);
        Alcotest.(check (triple int int int)) "fast path" (1, 0, 0)
          (fast, slow, fb));
    Alcotest.test_case "duplicate keys route to the slow tier" `Quick
      (fun () ->
        let l = keyed_lens () in
        let src = "alpha, 1\nbeta, 2\nalpha, 3\n" in
        let view = l.S.get src in
        Alcotest.(check string) "view shape" "alpha\nbeta\nalpha\n" view;
        let cache = D.make_cache () in
        (* reorder the duplicate-keyed chunks relative to beta: greedy
           first-match must pop the alphas in FIFO order *)
        let tview = "beta\nalpha\nalpha\n" in
        let edit = Sdiff.diff view tview in
        let (ns, se), (fast, slow, fb) =
          delta_stats_diff (fun () ->
              D.put_delta l ~cache ~source:src ~view edit)
        in
        Alcotest.(check string) "equals full put" (l.S.put tview src) ns;
        Alcotest.(check string) "edit replays" ns (Sdiff.apply src se);
        Alcotest.(check (triple int int int)) "slow path" (0, 1, 0)
          (fast, slow, fb));
    Alcotest.test_case "key claiming an outside chunk leaves the fast path"
      `Quick (fun () ->
        let l = keyed_lens () in
        let src = "alpha, 1\nbeta, 2\ngamma, 3\n" in
        let view = l.S.get src in
        let cache = D.make_cache () in
        (* replace the first chunk with the LAST chunk's key: full put
           moves gamma's hidden data forward, which splicing the suffix
           verbatim would get wrong — the guard must detect it. *)
        let tview = "gamma\nbeta\ngamma\n" in
        let edit = Sdiff.diff view tview in
        let (ns, se), (fast, _slow, _fb) =
          delta_stats_diff (fun () ->
              D.put_delta l ~cache ~source:src ~view edit)
        in
        Alcotest.(check string) "equals full put" (l.S.put tview src) ns;
        Alcotest.(check string) "edit replays" ns (Sdiff.apply src se);
        Alcotest.(check int) "not fast" 0 fast);
    Alcotest.test_case "opaque root always falls back" `Quick (fun () ->
        let l =
          S.concat (S.copy word) (S.concat (S.copy (Regex.chr ':')) (S.copy word))
        in
        let src = "ab:cd" in
        let view = l.S.get src in
        let cache = D.make_cache () in
        let edit = Sdiff.diff view "xy:cd" in
        let (ns, _se), (fast, slow, fb) =
          delta_stats_diff (fun () ->
              D.put_delta l ~cache ~source:src ~view edit)
        in
        Alcotest.(check string) "equals full put" (l.S.put "xy:cd" src) ns;
        Alcotest.(check (triple int int int)) "fallback" (0, 0, 1)
          (fast, slow, fb));
    Alcotest.test_case "boundary edits: prepend, append, delete-all" `Quick
      (fun () ->
        let l = keyed_lens () in
        let src = "alpha, 1\nbeta, 2\n" in
        let view = l.S.get src in
        let cache = D.make_cache () in
        let step (s, v) tview =
          let edit = Sdiff.diff v tview in
          let ns, se = D.put_delta l ~cache ~source:s ~view:v edit in
          Alcotest.(check string)
            (Printf.sprintf "put %S" tview)
            (l.S.put tview s) ns;
          Alcotest.(check string) "edit replays" ns (Sdiff.apply s se);
          (ns, tview)
        in
        ignore
          (List.fold_left step (src, view)
             [
               "zeta\nalpha\nbeta\n";
               "zeta\nalpha\nbeta\nomega\n";
               "";
               "fresh\n";
               "fresh\nfresh\n";
             ]));
    Alcotest.test_case "stale cache rebuilds and still agrees" `Quick
      (fun () ->
        let l = keyed_lens () in
        let cache = D.make_cache () in
        let drive src =
          let view = l.S.get src in
          let tview = "other\n" ^ view in
          let edit = Sdiff.diff view tview in
          let ns, _ = D.put_delta l ~cache ~source:src ~view edit in
          Alcotest.(check string) "equals full put" (l.S.put tview src) ns
        in
        drive "alpha, 1\n";
        drive "beta, 2\ngamma, 3\n";
        D.invalidate cache;
        drive "delta, 4\n");
    Alcotest.test_case "get_delta composers source edit is windowed" `Quick
      (fun () ->
        let l = Bx_catalogue.Composers_string.build_lens () in
        let src = Bx_catalogue.Composers_string.synthetic_source 50 in
        let view = l.S.get src in
        let cache = D.make_cache () in
        let target =
          let lines = String.split_on_char '\n' src in
          String.concat "\n"
            (List.mapi (fun i l -> if i = 10 then "Xx, 1111-2222, Ed" else l)
               lines)
        in
        let edit = Sdiff.diff src target in
        let before = (D.stats ()).D.fast_gets in
        let nv, ve = D.get_delta l ~cache ~source:src ~view edit in
        Alcotest.(check string) "equals full get" (l.S.get target) nv;
        Alcotest.(check string) "edit replays" nv (Sdiff.apply view ve);
        Alcotest.(check int) "fast get" (before + 1) (D.stats ()).D.fast_gets);
    Alcotest.test_case "a star over a quotient body agrees with full put"
      `Quick (fun () ->
        (* left_quot restores its source only up to canonization (here:
           squeezing repeated spaces), so splicing an unchanged chunk
           verbatim would keep the non-canonical bytes that full put
           canonizes away.  Such a star is opaque to the delta layer. *)
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
        let l = S.star_key ~key:Fun.id (Canonizer.left_quot cz (S.copy canon_line)) in
        let src = "ab  cd\nef gh\n" in
        let view = l.S.get src in
        let tview = "ab cd\nef gx\n" in
        let edit = Sdiff.diff view tview in
        let (ns, se), (_, _, fb) =
          delta_stats_diff (fun () -> D.put_delta l ~cache:(D.make_cache ()) ~source:src ~view edit)
        in
        Alcotest.(check string) "full put canonizes" "ab cd\nef gx\n" (l.S.put tview src);
        Alcotest.(check string) "equals full put" (l.S.put tview src) ns;
        Alcotest.(check string) "edit replays" ns (Sdiff.apply src se);
        Alcotest.(check int) "fallback" 1 fb);
  ]

(* ------------------------------------------------------------------ *)
(* The /patch endpoints end to end: document store, generations, wire
   frames, journal replay, snapshots and replication — everything
   between an HTTP body and Slens_delta. *)

module Service = Bx_server.Service
module Journal = Bx_server.Journal
module Replication = Bx_server.Replication

let rs = "\x1e"
let composers = Bx_catalogue.Composers_string.lens
let synthetic_source = Bx_catalogue.Composers_string.synthetic_source
let service_lenses = [ ("composers", composers) ]

let service ?(config = Service.default_config) () =
  match
    Service.create ~config ~lenses:service_lenses
      ~seed:Bx_catalogue.Catalogue.seed ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config dir =
  { Service.default_config with journal_dir = Some dir; compact_every = 0 }

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let post t path body = Service.handle t ~meth:"POST" ~path ~body
let get t path = Service.handle t ~meth:"GET" ~path ~body:""

let get_q t path query =
  Service.handle_query t ~query ~meth:"GET" ~path ~body:""

let status (r : Bx_repo.Webui.response) = r.Bx_repo.Webui.status
let rbody (r : Bx_repo.Webui.response) = r.Bx_repo.Webui.body

let split_rs s =
  match String.index_opt s '\x1e' with
  | None -> Alcotest.failf "no RS separator in %S" s
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* Replace the last comma-field of line [i] (the nationality, in both
   composer formats) with [word]. *)
let edit_nat doc i word =
  let lines = String.split_on_char '\n' doc in
  String.concat "\n"
    (List.mapi
       (fun j l ->
         if j <> i || l = "" then l
         else
           match String.rindex_opt l ',' with
           | None -> l
           | Some c -> String.sub l 0 c ^ ", " ^ word)
       lines)

let patch_frame ~docid ~gen edit =
  docid ^ rs ^ string_of_int gen ^ rs ^ Sdiff.encode edit

let create_doc t ?(docid = "d1") ?(lines = 5) () =
  let src = synthetic_source lines in
  let r = post t ("/slens/composers/doc/" ^ docid) src in
  Alcotest.(check int) "create status" 200 (status r);
  Alcotest.(check string) "create gen" "1\n" (rbody r);
  src

let endpoint_tests =
  [
    Alcotest.test_case "doc create, read back both sides, overwrite" `Quick
      (fun () ->
        let t = service () in
        let src = create_doc t () in
        let g, d = split_rs (rbody (get t "/slens/composers/doc/d1")) in
        Alcotest.(check string) "gen" "1" g;
        Alcotest.(check string) "source side" src d;
        let g, d =
          split_rs (rbody (get_q t "/slens/composers/doc/d1" "as=view"))
        in
        Alcotest.(check string) "gen" "1" g;
        Alcotest.(check string) "view side" (composers.S.get src) d;
        let r = post t "/slens/composers/doc/d1" (synthetic_source 3) in
        Alcotest.(check int) "overwrite status" 200 (status r);
        Alcotest.(check string) "overwrite bumps gen" "2\n" (rbody r));
    Alcotest.test_case "patch propagates a view edit through put_delta" `Quick
      (fun () ->
        let t = service () in
        let src = create_doc t () in
        let view = composers.S.get src in
        let view' = edit_nat view 2 "qq" in
        let fast_before = (D.stats ()).D.fast_puts in
        let r =
          post t "/slens/composers/patch"
            (patch_frame ~docid:"d1" ~gen:1 (Sdiff.diff view view'))
        in
        Alcotest.(check int) "patch status" 200 (status r);
        let g, frame = split_rs (rbody r) in
        Alcotest.(check string) "new gen" "2" g;
        let expected_src = composers.S.put view' src in
        (* The response frame is the source-side edit: applying it to
           the old source must land on the server's new source. *)
        (match Sdiff.decode frame with
        | Error m -> Alcotest.failf "response edit frame: %s" m
        | Ok source_edit ->
            Alcotest.(check string)
              "response edit replays" expected_src
              (Sdiff.apply src source_edit));
        let _, d = split_rs (rbody (get t "/slens/composers/doc/d1")) in
        Alcotest.(check string) "stored source" expected_src d;
        let _, v = split_rs (rbody (get_q t "/slens/composers/doc/d1" "as=view")) in
        Alcotest.(check string) "stored view" view' v;
        Alcotest.(check bool)
          "took the fast tier" true
          ((D.stats ()).D.fast_puts > fast_before));
    Alcotest.test_case "patch_source propagates a source edit via get_delta"
      `Quick (fun () ->
        let t = service () in
        let src = create_doc t () in
        let src' = edit_nat src 1 "xy" in
        let r =
          post t "/slens/composers/patch_source"
            (patch_frame ~docid:"d1" ~gen:1 (Sdiff.diff src src'))
        in
        Alcotest.(check int) "patch_source status" 200 (status r);
        let g, frame = split_rs (rbody r) in
        Alcotest.(check string) "new gen" "2" g;
        (match Sdiff.decode frame with
        | Error m -> Alcotest.failf "response edit frame: %s" m
        | Ok view_edit ->
            Alcotest.(check string)
              "view edit replays" (composers.S.get src')
              (Sdiff.apply (composers.S.get src) view_edit));
        let _, d = split_rs (rbody (get t "/slens/composers/doc/d1")) in
        Alcotest.(check string) "stored source" src' d);
    Alcotest.test_case "stale generation is a 409 and changes nothing" `Quick
      (fun () ->
        let t = service () in
        let src = create_doc t () in
        let view = composers.S.get src in
        let view' = edit_nat view 0 "zz" in
        let frame = patch_frame ~docid:"d1" ~gen:7 (Sdiff.diff view view') in
        Alcotest.(check int)
          "status" 409
          (status (post t "/slens/composers/patch" frame));
        let g, d = split_rs (rbody (get t "/slens/composers/doc/d1")) in
        Alcotest.(check string) "gen unchanged" "1" g;
        Alcotest.(check string) "source unchanged" src d);
    Alcotest.test_case "unknown document and lens are 404s" `Quick (fun () ->
        let t = service () in
        let _ = create_doc t () in
        Alcotest.(check int)
          "patch unknown doc" 404
          (status
             (post t "/slens/composers/patch"
                (patch_frame ~docid:"nope" ~gen:1 [])));
        Alcotest.(check int)
          "get unknown doc" 404
          (status (get t "/slens/composers/doc/nope"));
        Alcotest.(check int)
          "create under unknown lens" 404
          (status (post t "/slens/nolens/doc/d1" "x\n")));
    Alcotest.test_case "malformed frames are 400s, bad edits 422s" `Quick
      (fun () ->
        let t = service () in
        let _ = create_doc t () in
        Alcotest.(check int)
          "no RS" 400
          (status (post t "/slens/composers/patch" "garbage"));
        Alcotest.(check int)
          "unparseable gen" 400
          (status
             (post t "/slens/composers/patch"
                ("d1" ^ rs ^ "one" ^ rs ^ "bxedit1\n")));
        Alcotest.(check int)
          "undecodable edit" 422
          (status
             (post t "/slens/composers/patch"
                ("d1" ^ rs ^ "1" ^ rs ^ "not an edit frame")));
        Alcotest.(check int)
          "edit past end of document" 422
          (status
             (post t "/slens/composers/patch"
                (patch_frame ~docid:"d1" ~gen:1
                   [ { Sdiff.at = 1_000_000; drop = 2; insert = "x\n" } ])));
        (* All refused: the document is still at gen 1. *)
        let g, _ = split_rs (rbody (get t "/slens/composers/doc/d1")) in
        Alcotest.(check string) "gen unchanged" "1" g);
    Alcotest.test_case "replicas refuse document writes with 503" `Quick
      (fun () ->
        let config = { Service.default_config with replica = true } in
        let t = service ~config () in
        Alcotest.(check int)
          "create" 503
          (status (post t "/slens/composers/doc/d1" "a, 1-2, b\n"));
        Alcotest.(check int)
          "patch" 503
          (status
             (post t "/slens/composers/patch"
                (patch_frame ~docid:"d1" ~gen:1 []))));
    Alcotest.test_case "journal replay restores documents and generations"
      `Quick (fun () ->
        let dir = fresh_dir "bxdelta_journal" in
        let config = journal_config dir in
        let t = service ~config () in
        let src = create_doc t () in
        let view = composers.S.get src in
        let view' = edit_nat view 1 "aa" in
        let r =
          post t "/slens/composers/patch"
            (patch_frame ~docid:"d1" ~gen:1 (Sdiff.diff view view'))
        in
        Alcotest.(check int) "patch" 200 (status r);
        let view'' = edit_nat view' 3 "bb" in
        let r =
          post t "/slens/composers/patch"
            (patch_frame ~docid:"d1" ~gen:2 (Sdiff.diff view' view''))
        in
        Alcotest.(check int) "second patch" 200 (status r);
        let expected = rbody (get t "/slens/composers/doc/d1") in
        Service.close t;
        let t2 = service ~config () in
        Alcotest.(check string)
          "replayed document" expected
          (rbody (get t2 "/slens/composers/doc/d1"));
        let g, _ = split_rs expected in
        Alcotest.(check string) "replayed gen" "3" g;
        Service.close t2);
    Alcotest.test_case "compaction snapshots documents (DOCS.bxdocs)" `Quick
      (fun () ->
        let dir = fresh_dir "bxdelta_compact" in
        (* Compact after every record: by the time we close, the log is
           empty and the document can only come back via the snapshot
           file. *)
        let config =
          { Service.default_config with
            journal_dir = Some dir;
            compact_every = 1;
          }
        in
        let t = service ~config () in
        let src = create_doc t () in
        let view = composers.S.get src in
        let view' = edit_nat view 2 "cc" in
        let r =
          post t "/slens/composers/patch"
            (patch_frame ~docid:"d1" ~gen:1 (Sdiff.diff view view'))
        in
        Alcotest.(check int) "patch" 200 (status r);
        let expected = rbody (get t "/slens/composers/doc/d1") in
        Service.close t;
        let found = ref false in
        let rec scan d =
          Array.iter
            (fun f ->
              let p = Filename.concat d f in
              if Sys.is_directory p then scan p
              else if f = "DOCS.bxdocs" then found := true)
            (Sys.readdir d)
        in
        scan dir;
        Alcotest.(check bool) "snapshot contains DOCS.bxdocs" true !found;
        let t2 = service ~config () in
        Alcotest.(check string)
          "document restored from snapshot" expected
          (rbody (get t2 "/slens/composers/doc/d1"));
        Service.close t2);
    Alcotest.test_case "followers apply shipped edit records" `Quick (fun () ->
        let dir = fresh_dir "bxdelta_repl" in
        let config =
          { (journal_config dir) with Service.replica = true }
        in
        let t = service ~config () in
        let src = synthetic_source 5 in
        let view = composers.S.get src in
        let view' = edit_nat view 2 "dd" in
        let records =
          [
            { Journal.seq = 1; path = "/slens/composers/doc/d1"; body = src };
            {
              Journal.seq = 2;
              path = "/slens/composers/patch";
              body = patch_frame ~docid:"d1" ~gen:1 (Sdiff.diff view view');
            };
          ]
        in
        (match (Service.replication_sink t).Replication.apply records with
        | Ok () -> ()
        | Error (`Fail e) -> Alcotest.failf "sink apply: %s" e
        | Error (`Gap (expected, got)) ->
            Alcotest.failf "sink apply: gap (expected %d, got %d)" expected got);
        (* Reads are allowed on a replica: the edit-sized record moved
           the document exactly as the full put would have. *)
        let g, d = split_rs (rbody (get t "/slens/composers/doc/d1")) in
        Alcotest.(check string) "gen after apply" "2" g;
        Alcotest.(check string)
          "source after apply" (composers.S.put view' src) d;
        Service.close t);
  ]

let () =
  Alcotest.run "bx-delta"
    [
      ("sdiff", sdiff_unit_tests);
      ("sdiff properties", sdiff_prop_tests);
      ("delta vs full propagation", delta_prop_tests);
      ("delta tiers", deterministic_tests);
      ("patch endpoints", endpoint_tests);
    ]
