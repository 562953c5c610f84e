(* Extensional equivalence of the zero-copy slice engine (Slens) and the
   copying reference engine (Slens_ref).

   Lenses are generated as description trees that are well typed {e by
   construction}: tokens draw from disjoint alphabets (lowercase words,
   digits, '#', '!'), every composite at nesting level [n] separates its
   children with a level-specific separator character that no lower level
   uses, and union branches are tagged with distinct leading capitals.
   That discharges the POPL'08 side conditions syntactically, so both
   engines always accept the description; the properties then check that
   the two engines compute identical get/put/create functions, satisfy
   the lens laws, and reject ill-typed inputs alike. *)

open Bx_regex
open Bx_strlens
module S = Slens
module R = Bx_strlens_ref.Slens_ref

(* ------------------------------------------------------------------ *)
(* Lens descriptions *)

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
  | Dperm of int * desc * desc
  | Dcomp of desc
  | Dlead of int * desc  (* star (sep_n . d): not prefix-free in general *)

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
  | Dseq (n, a, b) ->
      Format.fprintf fmt "seq%d(%a,%a)" n pp_desc a pp_desc b
  | Dalt (a, b) -> Format.fprintf fmt "alt(%a,%a)" pp_desc a pp_desc b
  | Drep (n, d) -> Format.fprintf fmt "rep%d(%a)" n pp_desc d
  | Drepkey (n, d) -> Format.fprintf fmt "repkey%d(%a)" n pp_desc d
  | Dperm (n, a, b) ->
      Format.fprintf fmt "perm%d(%a,%a)" n pp_desc a pp_desc b
  | Dcomp d -> Format.fprintf fmt "comp(%a)" pp_desc d
  | Dlead (n, d) -> Format.fprintf fmt "lead%d(%a)" n pp_desc d

(* Mirror builders: the same combinator tree on both engines. *)

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
  | Dperm (n, a, b) ->
      S.permute ~order:[ 1; 0 ]
        [
          S.concat (build_s a) (S.copy (sep_re n));
          S.concat (build_s b) (S.copy (sep_re n));
        ]
  | Dcomp d ->
      let l = build_s d in
      S.compose l (S.copy l.S.vtype)
  | Dlead (n, d) -> S.star (S.concat (S.copy (sep_re n)) (build_s d))

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
  | Dperm (n, a, b) ->
      R.permute ~order:[ 1; 0 ]
        [
          R.concat (build_r a) (R.copy (sep_re n));
          R.concat (build_r b) (R.copy (sep_re n));
        ]
  | Dcomp d ->
      let l = build_r d in
      R.compose l (R.copy l.R.vtype)
  | Dlead (n, d) -> R.star (R.concat (R.copy (sep_re n)) (build_r d))

(* ------------------------------------------------------------------ *)
(* Generators: a description plus members of its source and view
   languages, derived from the same tree so they are well typed by
   construction. *)

open QCheck2

let gen_word = Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 5))
let gen_digits = Gen.(string_size ~gen:(char_range '0' '9') (1 -- 4))

(* Descriptions whose separators are all below level [n + 1]. *)
let rec desc_at n =
  let open Gen in
  let leaf = oneofl [ Dword; Ddigits; Ddel; Dconst; Dins ] in
  if n = 0 then leaf
  else
    frequency
      [
        (2, leaf);
        (2, map2 (fun a b -> Dseq (n, a, b)) (desc_at (n - 1)) (desc_at (n - 1)));
        (2, map2 (fun a b -> Dalt (a, b)) (desc_at (n - 1)) (desc_at (n - 1)));
        (2, map (fun d -> Drep (n, d)) (desc_at (n - 1)));
        (1, map (fun d -> Drepkey (n, d)) (desc_at (n - 1)));
        (1, map2 (fun a b -> Dperm (n, a, b)) (desc_at (n - 1)) (desc_at (n - 1)));
        (1, map (fun d -> Dcomp d) (desc_at (n - 1)));
      ]

let desc_gen = Gen.(1 -- 3 >>= desc_at)

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
  | Drep (n, d) | Drepkey (n, d) ->
      Gen.map
        (fun xs -> String.concat "" (List.map (fun x -> x ^ sep_str n) xs))
        (Gen.list_size Gen.(0 -- 4) (gen_src d))
  | Dlead (n, d) ->
      Gen.map
        (fun xs -> String.concat "" (List.map (fun x -> sep_str n ^ x) xs))
        (Gen.list_size Gen.(0 -- 4) (gen_src d))
  | Dperm (n, a, b) ->
      Gen.map2
        (fun x y -> x ^ sep_str n ^ y ^ sep_str n)
        (gen_src a) (gen_src b)
  | Dcomp d -> gen_src d

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
  | Drep (n, d) | Drepkey (n, d) ->
      Gen.map
        (fun xs -> String.concat "" (List.map (fun x -> x ^ sep_str n) xs))
        (Gen.list_size Gen.(0 -- 4) (gen_view d))
  | Dlead (n, d) ->
      Gen.map
        (fun xs -> String.concat "" (List.map (fun x -> sep_str n ^ x) xs))
        (Gen.list_size Gen.(0 -- 4) (gen_view d))
  | Dperm (n, a, b) ->
      (* View order is the permutation: second child first. *)
      Gen.map2
        (fun x y -> y ^ sep_str n ^ x ^ sep_str n)
        (gen_view a) (gen_view b)
  | Dcomp d -> gen_view d

let with_src = Gen.(desc_gen >>= fun d -> pair (return d) (gen_src d))
let with_view = Gen.(desc_gen >>= fun d -> pair (return d) (gen_view d))

let with_view_src =
  Gen.(
    desc_gen >>= fun d -> triple (return d) (gen_view d) (gen_src d))

(* A star-rooted description, a source, and a view made from [get s]
   by one chunk-level edit: reorder, delete, duplicate, insert a fresh
   chunk, or replace one chunk's content.  Unedited chunks take the
   star put's splice path, edited ones the body's put or create. *)
let with_chunk_edit =
  let open Gen in
  1 -- 3 >>= fun n ->
  desc_at (n - 1) >>= fun body ->
  oneofl [ Drep (n, body); Drepkey (n, body) ] >>= fun d ->
  gen_src d >>= fun s ->
  let sep = sep_str n in
  let chunks =
    match List.rev (String.split_on_char sep.[0] ((build_r d).R.get s)) with
    | _ :: rev -> List.rev rev
    | [] -> []
  in
  gen_view body >>= fun fresh ->
  int_bound (List.length chunks) >>= fun at ->
  let insert x =
    List.filteri (fun j _ -> j < at) chunks @ (x :: List.filteri (fun j _ -> j >= at) chunks)
  in
  oneof
    [
      shuffle_l chunks;
      return (List.filteri (fun j _ -> j <> at) chunks);
      return (insert (Option.value (List.nth_opt chunks at) ~default:fresh));
      return (insert fresh);
      return (List.mapi (fun j c -> if j = at then fresh else c) chunks);
    ]
  >|= fun cs -> (d, String.concat "" (List.map (fun c -> c ^ sep) cs), s)

(* A separator-led star, at the root or as the body of a star one level
   up, with a view and a source.  Its body is not prefix-free whenever
   [d]'s language is not (",ab" is a prefix of ",abc"), so its chunk
   scans run the suffix pass; the generators above only build
   prefix-free star bodies. *)
let with_lead =
  let open Gen in
  let lead n = desc_at (n - 1) >|= fun d -> Dlead (n, d) in
  oneof [ 1 -- 3 >>= lead; 1 -- 2 >>= fun n -> lead n >|= fun l -> Drep (n + 1, l) ]
  >>= fun d -> triple (return d) (gen_view d) (gen_src d)

(* A keyed star whose body holds a keyed star, with a view and a
   source.  Keyed by its first byte, the outer star pairs chunks whose
   views differ, so the inner star's put runs while the outer one's
   alignment is still live. *)
let with_nested_keyed =
  let open Gen in
  oneof
    [
      (desc_at 0 >|= fun leaf -> Drepkey (2, Drepkey (1, leaf)));
      (pair (desc_at 0) (desc_at 1) >|= fun (leaf, d) ->
       Drepkey (3, Dseq (2, Drepkey (1, leaf), d)));
    ]
  >>= fun d -> triple (return d) (gen_view d) (gen_src d)

(* Composers records over three names, so keys repeat on both sides. *)
let with_composers =
  let open Gen in
  let name = oneofl [ "Ann"; "Bo"; "Cy Twombly" ] and nat = oneofl [ "Finnish"; "French" ] in
  let year = map (Printf.sprintf "%04d") (0 -- 9999) in
  let record = map3 (fun n y z -> (n, y, z)) name (pair year year) nat in
  let records = list_size (0 -- 6) record in
  pair records records >|= fun (rs, vs) ->
  ( String.concat "" (List.map (fun (n, _, z) -> Printf.sprintf "%s, %s\n" n z) vs),
    String.concat "" (List.map (fun (n, (a, b), z) -> Printf.sprintf "%s, %s-%s, %s\n" n a b z) rs) )

let first_byte c = if c = "" then "" else String.sub c 0 1

(* get, put and create agree on both engines, and reject alike the
   source and view with a byte from no alphabet appended. *)
let agree (ls : S.t) (lr : R.t) v s =
  let raises f =
    match f () with
    | _ -> false
    | exception (S.Type_error _ | R.Type_error _ | Split.Split_error _) -> true
  in
  let bs = s ^ "~" and bv = v ^ "~" in
  ls.S.get s = lr.R.get s
  && ls.S.put v s = lr.R.put v s
  && ls.S.create v = lr.R.create v
  && List.for_all raises
       [
         (fun () -> ls.S.get bs); (fun () -> lr.R.get bs);
         (fun () -> ls.S.put v bs); (fun () -> lr.R.put v bs);
         (fun () -> ls.S.put bv s); (fun () -> lr.R.put bv s);
         (fun () -> ls.S.create bv); (fun () -> lr.R.create bv);
       ]

let print_pair (d, s) = Format.asprintf "%a on %S" pp_desc d s
let print_triple (d, v, s) = Format.asprintf "%a put %S %S" pp_desc d v s

(* ------------------------------------------------------------------ *)
(* Properties *)

let count = 1000

let prop name gen print f =
  QCheck_alcotest.to_alcotest (Test.make ~count ~name ~print gen f)

let equiv_tests =
  [
    prop "get agrees with the copying engine" with_src print_pair
      (fun (d, s) -> (build_s d).S.get s = (build_r d).R.get s);
    prop "create agrees with the copying engine" with_view print_pair
      (fun (d, v) -> (build_s d).S.create v = (build_r d).R.create v);
    prop "put agrees with the copying engine" with_view_src print_triple
      (fun (d, v, s) -> (build_s d).S.put v s = (build_r d).R.put v s);
    prop "GetPut holds on both engines" with_src print_pair (fun (d, s) ->
        let ls = build_s d and lr = build_r d in
        ls.S.put (ls.S.get s) s = s && lr.R.put (lr.R.get s) s = s);
    prop "PutGet holds on both engines" with_view_src print_triple
      (fun (d, v, s) ->
        let ls = build_s d and lr = build_r d in
        ls.S.get (ls.S.put v s) = v && lr.R.get (lr.R.put v s) = v);
    prop "slice engine rejects every ill-typed source" with_src print_pair
      (fun (d, s) ->
        (* '~' belongs to no token alphabet, so appending it leaves every
           generated source language.  The slice engine verifies
           membership at the public boundary and must always raise; the
           copying engine (verbatim PR 2) only notices when a splitter is
           involved, so it is allowed to return — but if it does raise,
           the slice engine must have raised too, which this property
           subsumes. *)
        let bad = s ^ "~" in
        try
          ignore ((build_s d).S.get bad);
          false
        with S.Type_error _ | Split.Split_error _ -> true);
    prop "put agrees with the copying engine on chunk-edited views"
      with_chunk_edit print_triple (fun (d, v, s) ->
        (* Keyed by the whole chunk, a pair always has equal views; the
           first-byte key also pairs chunks whose views differ, so the
           keyed put's re-put path runs too. *)
        let first c = if c = "" then "" else String.sub c 0 1 in
        let coarse_s, coarse_r =
          match d with
          | Drep (n, body) | Drepkey (n, body) ->
              ( S.star_key ~key:first (S.concat (build_s body) (S.copy (sep_re n))),
                R.star_key ~key:first (R.concat (build_r body) (R.copy (sep_re n))) )
          | _ -> assert false
        in
        (build_s d).S.put v s = (build_r d).R.put v s
        && coarse_s.S.put v s = coarse_r.R.put v s);
    prop "get, put and create agree with the copying engine on separator-led stars"
      with_lead print_triple (fun (d, v, s) ->
        let ls = build_s d and lr = build_r d in
        ls.S.get s = lr.R.get s && ls.S.put v s = lr.R.put v s && ls.S.create v = lr.R.create v);
    prop "both engines reject ill-typed separator-led stars" with_lead print_triple
      (fun (d, v, s) ->
        (* '~' is in no alphabet; dropping the leading separator usually
           leaves the type too, and is kept when it does. *)
        let ls = build_s d and lr = build_r d in
        let raises f =
          match f () with
          | _ -> false
          | exception (S.Type_error _ | R.Type_error _ | Split.Split_error _) -> true
        in
        let bad ty x =
          (x ^ "~")
          :: List.filter
               (fun y -> not (Regex.matches ty y))
               (if x = "" then [] else [ String.sub x 1 (String.length x - 1) ])
        in
        List.for_all
          (fun bs ->
            raises (fun () -> ls.S.get bs)
            && raises (fun () -> lr.R.get bs)
            && raises (fun () -> ls.S.put v bs)
            && raises (fun () -> lr.R.put v bs))
          (bad ls.S.stype s)
        && List.for_all
             (fun bv ->
               raises (fun () -> ls.S.create bv)
               && raises (fun () -> lr.R.create bv)
               && raises (fun () -> ls.S.put bv s)
               && raises (fun () -> lr.R.put bv s))
             (bad ls.S.vtype v));
    prop "a keyed star nested in a keyed star's body agrees with the copying engine"
      with_nested_keyed print_triple (fun (d, v, s) ->
        match d with
        | Drepkey (n, body) ->
            agree (build_s d) (build_r d) v s
            && agree
                 (S.star_key ~key:first_byte (S.concat (build_s body) (S.copy (sep_re n))))
                 (R.star_key ~key:first_byte (R.concat (build_r body) (R.copy (sep_re n))))
                 v s
        | _ -> assert false);
    prop "name_keyed_lens agrees with the copying engine under duplicate keys"
      with_composers
      (fun (v, s) -> Format.asprintf "put %S %S" v s)
      (fun (v, s) ->
        let module CS = Bx_catalogue.Composers_string in
        let ref_line = Bx_strlens_ref.Composers_ref.line in
        agree CS.name_keyed_lens (R.star_key ~key:CS.name_of_view_line ref_line) v s);
    prop "star_diff agrees with the copying engine" with_chunk_edit print_triple
      (fun (d, v, s) ->
        match d with
        | Drep (n, body) | Drepkey (n, body) ->
            List.for_all
              (fun key ->
                agree
                  (S.star_diff ~key (S.concat (build_s body) (S.copy (sep_re n))))
                  (R.star_diff ~key (R.concat (build_r body) (R.copy (sep_re n))))
                  v s)
              [ Fun.id; first_byte ]
        | _ -> assert false);
    Alcotest.test_case "two domains running one keyed put match the sequential answers"
      `Quick (fun () ->
        let module CS = Bx_catalogue.Composers_string in
        let jobs =
          List.concat_map
            (fun l ->
              List.init 4 (fun i ->
                  let k = 50 + (40 * i) in
                  (l, CS.synthetic_view k, CS.synthetic_source (k + 7))))
            [ CS.lens; CS.name_keyed_lens; CS.diff_lens ]
        in
        let expected = List.map (fun (l, v, s) -> l.S.put v s) jobs in
        let run () =
          List.init 20 (fun _ -> List.map (fun (l, v, s) -> l.S.put v s) jobs)
        in
        let other = Domain.spawn run in
        let here = run () in
        List.iter
          (fun got -> Alcotest.(check (list string)) "same answers" expected got)
          (here @ Domain.join other));
  ]

let () =
  Alcotest.run "bx-strlens-equiv"
    [ ("slice engine vs copying engine", equiv_tests) ]
