(* Hash-consed regular expressions with Brzozowski derivatives.

   Every value of type [t] is interned: structurally equal expressions are
   physically equal and carry the same unique [id].  This makes [equal] a
   pointer comparison, [compare] an integer comparison, and lets [deriv],
   [derivative_classes] and [reverse] memoise by id — so the derivative
   closure explored by {!Dfa.build} and the decision procedures costs each
   distinct derivative once instead of re-normalising it per character.

   Nullability is computed once at interning time and stored on the node.

   The intern table and the memo tables are guarded by a mutex so the
   engine stays safe under the server's worker domains; critical sections
   are single table operations (never recursive). *)

type t = { id : int; node : node; null : bool }

and node =
  | Empty
  | Epsilon
  | Cset of Cset.t
  | Seq of t * t
  | Alt of t * t
  | Star of t

let node r = r.node
let id r = r.id
let hash r = r.id
let equal (a : t) (b : t) = a == b
let compare (a : t) (b : t) = Int.compare a.id b.id
let nullable r = r.null

(* ------------------------------------------------------------------ *)
(* Interning *)

(* The intern key replaces children by their ids, so hashing and equality
   on keys are shallow. *)
type key =
  | KEmpty
  | KEpsilon
  | KCset of Cset.t
  | KSeq of int * int
  | KAlt of int * int
  | KStar of int

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let intern_tbl : (key, t) Hashtbl.t = Hashtbl.create 1024
let next_id = ref 0

let intern node =
  let key =
    match node with
    | Empty -> KEmpty
    | Epsilon -> KEpsilon
    | Cset s -> KCset s
    | Seq (a, b) -> KSeq (a.id, b.id)
    | Alt (a, b) -> KAlt (a.id, b.id)
    | Star a -> KStar a.id
  in
  with_lock (fun () ->
      match Hashtbl.find_opt intern_tbl key with
      | Some r -> r
      | None ->
          let null =
            match node with
            | Empty | Cset _ -> false
            | Epsilon | Star _ -> true
            | Seq (a, b) -> a.null && b.null
            | Alt (a, b) -> a.null || b.null
          in
          let r = { id = !next_id; node; null } in
          incr next_id;
          Hashtbl.add intern_tbl key r;
          r)

let empty = intern Empty
let epsilon = intern Epsilon
let cset s = if Cset.is_empty s then empty else intern (Cset s)
let chr c = cset (Cset.singleton c)
let any = cset Cset.full

(* Smart constructors maintain a canonical form so that the derivative
   closure of any expression is finite:
   - Seq is right-associated, with Empty absorbing and Epsilon a unit;
   - Alt is right-associated over a sorted, duplicate-free list of
     alternatives, with Empty a unit; adjacent character sets are merged;
   - Star collapses nested stars and trivial bodies.
   Alternatives are sorted by intern id: any total order fixed for the
   lifetime of the program yields a canonical form. *)

let rec seq a b =
  match (a.node, b.node) with
  | Empty, _ | _, Empty -> empty
  | Epsilon, _ -> b
  | _, Epsilon -> a
  | Seq (x, y), _ -> seq x (seq y b)
  | _, _ -> intern (Seq (a, b))

let alt a b =
  let rec flatten r acc =
    match r.node with
    | Alt (x, y) -> flatten x (flatten y acc)
    | Empty -> acc
    | _ -> r :: acc
  in
  let parts = List.sort_uniq compare (flatten a (flatten b [])) in
  (* Merge all character-set alternatives into one. *)
  let csets, others =
    List.partition (fun r -> match r.node with Cset _ -> true | _ -> false)
      parts
  in
  let merged =
    match csets with
    | [] -> []
    | _ ->
        let s =
          List.fold_left
            (fun acc r ->
              match r.node with Cset s -> Cset.union acc s | _ -> acc)
            Cset.empty csets
        in
        if Cset.is_empty s then [] else [ cset s ]
  in
  match merged @ others with
  | [] -> empty
  | [ r ] -> r
  | r :: rest -> List.fold_left (fun acc x -> intern (Alt (acc, x))) r rest

let star r =
  match r.node with
  | Empty | Epsilon -> epsilon
  | Star _ -> r
  | _ -> intern (Star r)

let plus r = seq r (star r)
let opt r = alt epsilon r

let str s =
  let rec go i =
    if i >= String.length s then epsilon else seq (chr s.[i]) (go (i + 1))
  in
  go 0

let concat_list rs = List.fold_right seq rs epsilon
let rec repeat n r = if n <= 0 then epsilon else seq r (repeat (n - 1) r)

(* ------------------------------------------------------------------ *)
(* Derivatives, memoised by intern id *)

(* Key: (id << 8) | byte.  Ids are dense small ints, so this never
   overflows 63-bit integers in practice. *)
let deriv_tbl : (int, t) Hashtbl.t = Hashtbl.create 4096

let rec deriv c r =
  let key = (r.id lsl 8) lor Char.code c in
  match with_lock (fun () -> Hashtbl.find_opt deriv_tbl key) with
  | Some d -> d
  | None ->
      let d =
        match r.node with
        | Empty | Epsilon -> empty
        | Cset s -> if Cset.mem c s then epsilon else empty
        | Seq (a, b) ->
            let d = seq (deriv c a) b in
            if a.null then alt d (deriv c b) else d
        | Alt (a, b) -> alt (deriv c a) (deriv c b)
        | Star a -> seq (deriv c a) r
      in
      with_lock (fun () -> Hashtbl.replace deriv_tbl key d);
      d

let classes_tbl : (int, Cset.t list) Hashtbl.t = Hashtbl.create 1024

let rec derivative_classes r =
  match with_lock (fun () -> Hashtbl.find_opt classes_tbl r.id) with
  | Some cs -> cs
  | None ->
      let cs =
        match r.node with
        | Empty | Epsilon -> [ Cset.full ]
        | Cset s -> Cset.refine [ s ]
        | Seq (a, b) ->
            if a.null then
              Cset.refine (derivative_classes a @ derivative_classes b)
            else derivative_classes a
        | Alt (a, b) ->
            Cset.refine (derivative_classes a @ derivative_classes b)
        | Star a -> derivative_classes a
      in
      with_lock (fun () -> Hashtbl.replace classes_tbl r.id cs);
      cs

let reverse_tbl : (int, t) Hashtbl.t = Hashtbl.create 256

let rec reverse r =
  match with_lock (fun () -> Hashtbl.find_opt reverse_tbl r.id) with
  | Some rr -> rr
  | None ->
      let rr =
        match r.node with
        | Empty | Epsilon | Cset _ -> r
        | Seq (a, b) -> seq (reverse b) (reverse a)
        | Alt (a, b) -> alt (reverse a) (reverse b)
        | Star a -> star (reverse a)
      in
      with_lock (fun () -> Hashtbl.replace reverse_tbl r.id rr);
      rr

(* ------------------------------------------------------------------ *)
(* Matching *)

let matches_deriv r s =
  let n = String.length s in
  let rec go r i =
    if r == empty then false
    else if i >= n then r.null
    else go (deriv s.[i] r) (i + 1)
  in
  go r 0

(* {!Dfa} installs the compiled matcher (cached dense-table DFAs) when its
   module initialises; until then — or if the Dfa module is never linked —
   matching falls back to memoised derivatives. *)
let matcher : (t -> string -> bool) option ref = ref None
let set_matcher f = matcher := Some f

let matches r s =
  match !matcher with Some f -> f r s | None -> matches_deriv r s

(* ------------------------------------------------------------------ *)
(* Utilities *)

let rec size r =
  match r.node with
  | Empty | Epsilon | Cset _ -> 1
  | Seq (a, b) | Alt (a, b) -> 1 + size a + size b
  | Star a -> 1 + size a

(* Precedence: Alt (lowest) < Seq < Star (highest). *)
let rec pp_prec prec ppf r =
  match r.node with
  | Empty -> Fmt.string ppf "{empty}"
  | Epsilon -> Fmt.string ppf "{eps}"
  | Cset s -> Cset.pp ppf s
  | Seq (a, b) ->
      let doc ppf () = Fmt.pf ppf "%a%a" (pp_prec 1) a (pp_prec 1) b in
      if prec > 1 then Fmt.parens doc ppf () else doc ppf ()
  | Alt (a, b) ->
      let doc ppf () = Fmt.pf ppf "%a|%a" (pp_prec 0) a (pp_prec 0) b in
      if prec > 0 then Fmt.parens doc ppf () else doc ppf ()
  | Star a -> Fmt.pf ppf "%a*" (pp_prec 2) a

let pp = pp_prec 0
let to_string r = Fmt.str "%a" pp r
