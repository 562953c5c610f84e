(* The pre-slice (copying) string-lens engine, kept verbatim as a
   reference implementation: every combinator materialises the
   substrings it works on and concatenates its children's results.
   The QCheck equivalence suite asserts that the zero-copy engine in
   [Slens] computes exactly the same functions, and the P7 benchmark
   series measures the sliced engine against this one.  Only the tests
   and the bench link it. *)

open Bx_regex

exception Type_error of string

let type_error fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt

(* ------------------------------------------------------------------ *)
(* The original splitters, verbatim: full prefix/suffix mark passes
   with a reversed copy of the input, an explicit uniqueness scan, and
   substring copies for every part.  [Split] has since moved on; the
   baseline must not. *)

let split_error fmt =
  Format.kasprintf (fun m -> raise (Bx_strlens.Split.Split_error m)) fmt

let rev_string s =
  let n = String.length s in
  String.init n (fun i -> s.[n - 1 - i])

(* suffix_ok.(i) tells whether s[i..] belongs to L(r), computed by
   running a DFA for the reversal of r over the reversed string. *)
let suffix_marks rev_dfa s =
  let n = String.length s in
  let marks_rev = Dfa.prefix_marks rev_dfa (rev_string s) in
  Array.init (n + 1) (fun i -> marks_rev.(n - i))

let make_concat_splitter r1 r2 =
  let d1 = Dfa.compile r1 in
  let d2_rev = Dfa.compile (Regex.reverse r2) in
  fun s ->
    let n = String.length s in
    let prefix_ok = Dfa.prefix_marks d1 s in
    let suffix_ok = suffix_marks d2_rev s in
    let points = ref [] in
    for i = n downto 0 do
      if prefix_ok.(i) && suffix_ok.(i) then points := i :: !points
    done;
    match !points with
    | [ i ] -> (String.sub s 0 i, String.sub s i (n - i))
    | [] ->
        split_error "no split of %S against %a . %a" s Regex.pp r1 Regex.pp r2
    | _ :: _ ->
        split_error "ambiguous split of %S against %a . %a (%d ways)" s
          Regex.pp r1 Regex.pp r2 (List.length !points)

let make_star_splitter r =
  if Regex.nullable r then
    invalid_arg "make_star_splitter: body accepts the empty string";
  let d = Dfa.compile r in
  let dstar_rev = Dfa.compile (Regex.reverse (Regex.star r)) in
  let sink = Dfa.sink d in
  fun s ->
    if s = "" then []
    else begin
      let n = String.length s in
      let suffix_ok = suffix_marks dstar_rev s in
      if not suffix_ok.(0) then
        split_error "%S does not belong to (%a)*" s Regex.pp r;
      let rec chunks i acc =
        if i >= n then List.rev acc
        else begin
          let found = ref None in
          let st = ref Dfa.initial in
          (try
             for j = i to n - 1 do
               st := Dfa.step d !st s.[j];
               if !st = sink then raise Exit;
               if Dfa.accepting d !st && suffix_ok.(j + 1) then begin
                 match !found with
                 | None -> found := Some (j + 1)
                 | Some _ ->
                     split_error "ambiguous chunking of %S against (%a)*" s
                       Regex.pp r
               end
             done
           with Exit -> ());
          match !found with
          | None ->
              split_error "no chunking of %S against (%a)*" s Regex.pp r
          | Some j -> chunks j (String.sub s i (j - i) :: acc)
        end
      in
      chunks 0 []
    end

type t = {
  stype : Regex.t;
  vtype : Regex.t;
  get : string -> string;
  put : string -> string -> string;
  create : string -> string;
}

let require_unambig_concat what r1 r2 =
  match Ambig.unambig_concat r1 r2 with
  | Ok () -> ()
  | Error w ->
      type_error "%s: ambiguous concatenation %a . %a (overlap %S)" what
        Regex.pp r1 Regex.pp r2 w

let require_unambig_star what r =
  match Ambig.unambig_star r with
  | Ok () -> ()
  | Error w ->
      type_error "%s: ambiguous iteration of %a (witness %S)" what Regex.pp r w

let copy r =
  {
    stype = r;
    vtype = r;
    get = Fun.id;
    put = (fun v _ -> v);
    create = Fun.id;
  }

let const ~stype ~view ~default =
  if not (Regex.matches stype default) then
    type_error "const: default %S is not in the source type %a" default
      Regex.pp stype;
  {
    stype;
    vtype = Regex.str view;
    get = (fun _ -> view);
    put =
      (fun v s ->
        if String.equal v view then s
        else type_error "const: put view %S differs from constant %S" v view);
    create =
      (fun v ->
        if String.equal v view then default
        else type_error "const: create view %S differs from constant %S" v view);
  }

let del r ~default = const ~stype:r ~view:"" ~default
let ins s = const ~stype:Regex.epsilon ~view:s ~default:""

let concat l1 l2 =
  require_unambig_concat "concat (source)" l1.stype l2.stype;
  require_unambig_concat "concat (view)" l1.vtype l2.vtype;
  let split_s = make_concat_splitter l1.stype l2.stype in
  let split_v = make_concat_splitter l1.vtype l2.vtype in
  {
    stype = Regex.seq l1.stype l2.stype;
    vtype = Regex.seq l1.vtype l2.vtype;
    get =
      (fun s ->
        let s1, s2 = split_s s in
        l1.get s1 ^ l2.get s2);
    put =
      (fun v s ->
        let v1, v2 = split_v v in
        let s1, s2 = split_s s in
        l1.put v1 s1 ^ l2.put v2 s2);
    create =
      (fun v ->
        let v1, v2 = split_v v in
        l1.create v1 ^ l2.create v2);
  }

let concat_list = function
  | [] -> copy Regex.epsilon
  | l :: rest -> List.fold_left concat l rest

let union l1 l2 =
  (match Ambig.disjoint_union l1.stype l2.stype with
  | Ok () -> ()
  | Error w ->
      type_error "union: source types overlap (witness %S)" w);
  {
    stype = Regex.alt l1.stype l2.stype;
    vtype = Regex.alt l1.vtype l2.vtype;
    get =
      (fun s -> if Regex.matches l1.stype s then l1.get s else l2.get s);
    put =
      (fun v s ->
        let v1 = Regex.matches l1.vtype v and v2 = Regex.matches l2.vtype v in
        let s1 = Regex.matches l1.stype s in
        match (v1, v2, s1) with
        | true, _, true -> l1.put v s
        | _, true, false -> l2.put v s
        | true, false, false -> l1.create v
        | false, true, true -> l2.create v
        | false, false, _ ->
            type_error "union: put view %S matches neither view type" v);
    create =
      (fun v ->
        if Regex.matches l1.vtype v then l1.create v
        else if Regex.matches l2.vtype v then l2.create v
        else type_error "union: create view %S matches neither view type" v);
  }

(* Shared skeleton of [star] and [star_key]: the two differ only in how
   view chunks are aligned with old source chunks during [put]. *)
let star_with ~name ~align l =
  require_unambig_star (name ^ " (source)") l.stype;
  require_unambig_star (name ^ " (view)") l.vtype;
  let split_s = make_star_splitter l.stype in
  let split_v = make_star_splitter l.vtype in
  {
    stype = Regex.star l.stype;
    vtype = Regex.star l.vtype;
    get = (fun s -> String.concat "" (List.map l.get (split_s s)));
    put =
      (fun v s ->
        let vchunks = split_v v and schunks = split_s s in
        String.concat "" (align vchunks schunks));
    create = (fun v -> String.concat "" (List.map l.create (split_v v)));
  }

let star l =
  let rec positional vs ss =
    match (vs, ss) with
    | [], _ -> []
    | v :: vs', s :: ss' -> l.put v s :: positional vs' ss'
    | v :: vs', [] -> l.create v :: positional vs' []
  in
  star_with ~name:"star" ~align:positional l

let star_key ~key l =
  let align vchunks schunks =
    let schunk_arr = Array.of_list schunks in
    let consumed = Array.make (Array.length schunk_arr) false in
    let keys = Array.map (fun s -> key (l.get s)) schunk_arr in
    let find_by_key k =
      let rec scan i =
        if i >= Array.length schunk_arr then None
        else if (not consumed.(i)) && String.equal keys.(i) k then begin
          consumed.(i) <- true;
          Some schunk_arr.(i)
        end
        else scan (i + 1)
      in
      scan 0
    in
    List.map
      (fun v ->
        match find_by_key (key v) with
        | Some s -> l.put v s
        | None -> l.create v)
      vchunks
  in
  star_with ~name:"star_key" ~align l

(* Longest common subsequence of two key arrays, as a list of index
   pairs (i_source, j_view), strictly increasing in both components. *)
let lcs_pairs a b =
  let n = Array.length a and m = Array.length b in
  let table = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      table.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + table.(i + 1).(j + 1)
         else max table.(i + 1).(j) table.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i >= n || j >= m then List.rev acc
    else if String.equal a.(i) b.(j) then walk (i + 1) (j + 1) ((i, j) :: acc)
    else if table.(i + 1).(j) >= table.(i).(j + 1) then walk (i + 1) j acc
    else walk i (j + 1) acc
  in
  walk 0 0 []

let star_diff ~key l =
  let align vchunks schunks =
    let s_arr = Array.of_list schunks in
    let v_arr = Array.of_list vchunks in
    let skeys = Array.map (fun s -> key (l.get s)) s_arr in
    let vkeys = Array.map key v_arr in
    let matched = lcs_pairs skeys vkeys in
    let source_for = Hashtbl.create 16 in
    List.iter (fun (i, j) -> Hashtbl.replace source_for j i) matched;
    List.mapi
      (fun j v ->
        match Hashtbl.find_opt source_for j with
        | Some i -> l.put v s_arr.(i)
        | None -> l.create v)
      vchunks
  in
  star_with ~name:"star_diff" ~align l

let compose l1 l2 =
  (match Lang.equiv_counterexample l1.vtype l2.stype with
  | None -> ()
  | Some w ->
      type_error
        "compose: view type %a and source type %a differ (witness %S)"
        Regex.pp l1.vtype Regex.pp l2.stype w);
  {
    stype = l1.stype;
    vtype = l2.vtype;
    get = (fun s -> l2.get (l1.get s));
    put = (fun v s -> l1.put (l2.put v (l1.get s)) s);
    create = (fun v -> l1.create (l2.create v));
  }

let swap l1 l2 =
  require_unambig_concat "swap (source)" l1.stype l2.stype;
  require_unambig_concat "swap (view)" l2.vtype l1.vtype;
  let split_s = make_concat_splitter l1.stype l2.stype in
  let split_v = make_concat_splitter l2.vtype l1.vtype in
  {
    stype = Regex.seq l1.stype l2.stype;
    vtype = Regex.seq l2.vtype l1.vtype;
    get =
      (fun s ->
        let s1, s2 = split_s s in
        l2.get s2 ^ l1.get s1);
    put =
      (fun v s ->
        let v2, v1 = split_v v in
        let s1, s2 = split_s s in
        l1.put v1 s1 ^ l2.put v2 s2);
    create =
      (fun v ->
        let v2, v1 = split_v v in
        l1.create v1 ^ l2.create v2);
  }

(* Split a string into k parts against k regexes, left to right, using a
   concat splitter for part i against the concatenation of the rest. *)
let make_multi_splitter parts =
  let rec splitters = function
    | [] | [ _ ] -> []
    | r :: rest ->
        let rest_re = Regex.concat_list rest in
        make_concat_splitter r rest_re :: splitters rest
  in
  let ss = splitters parts in
  fun s ->
    let rec go ss s =
      match ss with
      | [] -> [ s ]
      | split :: ss' ->
          let a, b = split s in
          a :: go ss' b
    in
    go ss s

let permute ~order ls =
  let k = List.length ls in
  if List.sort compare order <> List.init k Fun.id then
    type_error "permute: order is not a permutation of 0..%d" (k - 1);
  let stypes = List.map (fun l -> l.stype) ls in
  let vtypes_permuted =
    List.map (fun i -> (List.nth ls i).vtype) order
  in
  (* Pairwise unambiguity along both concatenations. *)
  let rec check_chain what = function
    | [] | [ _ ] -> ()
    | r :: rest ->
        require_unambig_concat what r (Regex.concat_list rest);
        check_chain what rest
  in
  check_chain "permute (source)" stypes;
  check_chain "permute (view)" vtypes_permuted;
  let split_s = make_multi_splitter stypes in
  let split_v = make_multi_splitter vtypes_permuted in
  let lens_arr = Array.of_list ls in
  let order_arr = Array.of_list order in
  {
    stype = Regex.concat_list stypes;
    vtype = Regex.concat_list vtypes_permuted;
    get =
      (fun s ->
        let pieces = Array.of_list (split_s s) in
        String.concat ""
          (List.map
             (fun i -> lens_arr.(i).get pieces.(i))
             order));
    put =
      (fun v s ->
        let spieces = Array.of_list (split_s s) in
        let vpieces = Array.of_list (split_v v) in
        (* vpieces.(p) is the view of lens order.(p). *)
        let out = Array.make k "" in
        Array.iteri
          (fun p i -> out.(i) <- lens_arr.(i).put vpieces.(p) spieces.(i))
          order_arr;
        String.concat "" (Array.to_list out));
    create =
      (fun v ->
        let vpieces = Array.of_list (split_v v) in
        let out = Array.make k "" in
        Array.iteri
          (fun p i -> out.(i) <- lens_arr.(i).create vpieces.(p))
          order_arr;
        String.concat "" (Array.to_list out));
  }

let separated ~sep l =
  union (copy Regex.epsilon) (concat l (star (concat sep l)))
let in_source l s = Regex.matches l.stype s
let in_view l v = Regex.matches l.vtype v
