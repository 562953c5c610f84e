open Bx_regex

exception Type_error of string

let type_error fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Engine instrumentation, process-global and domain-safe.  [bytes]
   counts input bytes entering top-level runs, [splits] the split
   decisions made by the slice engine, [ctx_reuse]/[ctx_fresh] how
   often a top-level run found its domain's execution context free
   versus having to allocate one, [chunks_*] the outcomes of star put
   chunks. *)

let stat_bytes = Atomic.make 0
let stat_splits = Atomic.make 0
let stat_ctx_reuse = Atomic.make 0
let stat_ctx_fresh = Atomic.make 0
let stat_spliced = Atomic.make 0
let stat_put = Atomic.make 0
let stat_created = Atomic.make 0

type stats = {
  bytes : int; splits : int; ctx_reuse : int; ctx_fresh : int;
  chunks_spliced : int; chunks_put : int; chunks_created : int;
}

let stats () =
  {
    bytes = Atomic.get stat_bytes;
    splits = Atomic.get stat_splits;
    ctx_reuse = Atomic.get stat_ctx_reuse;
    ctx_fresh = Atomic.get stat_ctx_fresh;
    chunks_spliced = Atomic.get stat_spliced;
    chunks_put = Atomic.get stat_put;
    chunks_created = Atomic.get stat_created;
  }

let reset_stats () =
  List.iter
    (fun a -> Atomic.set a 0)
    [ stat_bytes; stat_splits; stat_ctx_reuse; stat_ctx_fresh; stat_spliced; stat_put; stat_created ]

let harvest a n = if n > 0 then ignore (Atomic.fetch_and_add a n : int)

(* ------------------------------------------------------------------ *)
(* The execution context: one shared output buffer, one splitter
   workspace, one spare buffer for the few places that must materialise
   an intermediate string (chunk views, compose).  Each domain keeps one
   context and reuses it across runs; a re-entrant run (a user key
   function invoking a lens, a lens inside a lens) simply allocates a
   second context for its duration. *)

type ctx = {
  mutable out : Buffer.t;
  ws : Split.ws;
  mutable spare : Buffer.t option;
}

let make_ctx () =
  { out = Buffer.create 1024; ws = Split.make_ws (); spare = None }

let ctx_slot : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Run [f] in this domain's (reused) context, then return the context
   and harvest its workspace counters. *)
let with_ctx f =
  let slot = Domain.DLS.get ctx_slot in
  let ctx =
    match !slot with
    | Some ctx ->
        slot := None;
        Atomic.incr stat_ctx_reuse;
        ctx
    | None ->
        Atomic.incr stat_ctx_fresh;
        make_ctx ()
  in
  Fun.protect
    ~finally:(fun () ->
      Buffer.clear ctx.out;
      let c = Split.chunk_counts ctx.ws in
      harvest stat_splits (Split.splits_performed ctx.ws);
      harvest stat_spliced c.spliced;
      harvest stat_put c.put;
      harvest stat_created c.created;
      Split.reset_splits ctx.ws;
      slot := Some ctx)
    (fun () -> f ctx)

(* Run [emit] and return the bytes it produced.  [input_bytes] is the
   instrumentation charge for this run. *)
let exec input_bytes emit =
  with_ctx (fun ctx ->
      emit ctx;
      harvest stat_bytes input_bytes;
      Buffer.contents ctx.out)

(* Run [emit] with its bytes appended to the caller's [out] (a failed
   run may leave part of them there). *)
let exec_into out input_bytes emit =
  with_ctx (fun ctx ->
      let own = ctx.out in
      ctx.out <- out;
      Fun.protect ~finally:(fun () -> ctx.out <- own) (fun () -> emit ctx);
      harvest stat_bytes input_bytes)

(* Redirect the context's output into a side buffer for the duration of
   [emit] and return what it wrote — for a combinator that needs an
   intermediate string (compose). *)
let capture ctx emit =
  let saved = ctx.out in
  let side =
    match ctx.spare with
    | Some b ->
        ctx.spare <- None;
        Buffer.clear b;
        b
    | None -> Buffer.create 128
  in
  ctx.out <- side;
  Fun.protect
    ~finally:(fun () ->
      ctx.out <- saved;
      ctx.spare <- Some side)
    (fun () ->
      emit ();
      Buffer.contents side)

(* ------------------------------------------------------------------ *)
(* Lenses.  The three emitters work over (string, pos, len) slices and
   write to the context's output buffer; the public string-to-string
   functions are the emitters sealed behind a context acquisition. *)

type impl = {
  e_get : ctx -> string -> int -> int -> unit;
  e_put : ctx -> string -> int -> int -> string -> int -> int -> unit;
  e_create : ctx -> string -> int -> int -> unit;
  exact : bool;
      (* [put (get s) s = s] byte for byte: true of [copy] and [const],
         of a combinator whose children all have it, never of [of_funs]
         (a quotient restores its source only up to canonization). *)
}

type t = {
  stype : Regex.t;
  vtype : Regex.t;
  get : string -> string;
  put : string -> string -> string;
  create : string -> string;
  impl : impl;
  shape : shape;
  sliced : sliced option;
}

(* The slice entry points of a sealed lens, beside the [get] and [put]
   they back, so a record update that replaces those is noticed. *)
and sliced = {
  sealed_get : string -> string;
  sealed_put : string -> string -> string;
  get_into : Buffer.t -> string -> int -> int -> unit;
  put_into : Buffer.t -> string -> int -> int -> string -> int -> int -> unit;
}

(* Structural reflection for the delta layer: a star at the root tells
   {!Slens_delta} how the document chunks and how put aligns the
   chunks, so an edit can be localised to the chunks it touches.  Every
   other root is [Opaque] and delta calls fall back to the full
   functions — so is a star whose body lacks exact GetPut, because the
   delta tiers splice unchanged chunks. *)
and shape = Opaque | Star of star_shape

and star_shape = {
  body : t;
  align : align_kind;
  sbounds : Split.star_bounds;
  vbounds : Split.star_bounds;
}

and align_kind =
  | Positional
  | Keyed of (string -> string)
  | Diffed of (string -> string)

let seal ?(shape = Opaque) ~stype ~vtype impl =
  (* The emitters assume well-typed slices (splitting re-establishes the
     invariant structurally), so membership is verified once, here, at
     the public string boundary.  The DFAs are compiled on first use and
     published through an atomic, not a [lazy]: domains racing on a fresh
     lens may each compile (the global compile cache makes that a
     lookup), but none can see a lazy mid-force and raise
     [CamlinternalLazy.Undefined]. *)
  let compiled r =
    let slot = Atomic.make None in
    fun () ->
      match Atomic.get slot with
      | Some d -> d
      | None ->
          let d = Dfa.compile r in
          Atomic.set slot (Some d);
          d
  in
  let ds = compiled stype and dv = compiled vtype in
  (* A star root's chunk scan decides membership in the star exactly
     ({!Split.make_star_bounds}), so its sides skip the separate scan.
     Only a failed split re-runs the checks, in the same order, to raise
     the same type error as any other root. *)
  let star_root = match shape with Star _ -> true | Opaque -> false in
  let shape = match shape with Star sh when not sh.body.impl.exact -> Opaque | sh -> sh in
  let require what d r x pos len =
    if not (Dfa.accepts_sub (d ()) x ~pos ~len)
    then type_error "%s: %S does not belong to %a" what (String.sub x pos len) Regex.pp r
  in
  let checked checks run =
    if not star_root then (
      checks ();
      run ())
    else
      match run () with
      | r -> r
      | exception (Split.Split_error _ as e) ->
          let bt = Printexc.get_raw_backtrace () in
          checks ();
          Printexc.raise_with_backtrace e bt
  in
  (* The one checked path, over slices: [exec] runs it for the string
     functions, [exec_into out] for the [_into] ones. *)
  let get_with exec s pos len =
    checked
      (fun () -> require "get" ds stype s pos len)
      (fun () -> exec len (fun ctx -> impl.e_get ctx s pos len))
  in
  let put_with exec v vp vl s sp sl =
    checked
      (fun () ->
        require "put" dv vtype v vp vl;
        require "put" ds stype s sp sl)
      (fun () -> exec (vl + sl) (fun ctx -> impl.e_put ctx v vp vl s sp sl))
  in
  let get s = get_with exec s 0 (String.length s) in
  let put v s = put_with exec v 0 (String.length v) s 0 (String.length s) in
  {
    stype;
    vtype;
    impl;
    shape;
    get;
    put;
    create =
      (fun v ->
        let n = String.length v in
        checked
          (fun () -> require "create" dv vtype v 0 n)
          (fun () -> exec n (fun ctx -> impl.e_create ctx v 0 n)));
    sliced =
      Some
        {
          sealed_get = get;
          sealed_put = put;
          get_into = (fun out -> get_with (exec_into out));
          put_into = (fun out -> put_with (exec_into out));
        };
  }

let of_funs ~stype ~vtype ~get ~put ~create =
  (* Wrap opaque string functions (canonizers, user code) as a lens;
     inside a larger lens their slices are materialised at this
     boundary. *)
  let impl =
    {
      e_get =
        (fun ctx s pos len -> Buffer.add_string ctx.out (get (String.sub s pos len)));
      e_put =
        (fun ctx v vp vl s sp sl ->
          Buffer.add_string ctx.out (put (String.sub v vp vl) (String.sub s sp sl)));
      e_create =
        (fun ctx v vp vl ->
          Buffer.add_string ctx.out (create (String.sub v vp vl)));
      exact = false;
    }
  in
  { stype; vtype; get; put; create; impl; shape = Opaque; sliced = None }

(* A lens without slice entry points, or whose [get]/[put] were replaced
   after construction, runs its own string functions on copies. *)
let get_into l out s pos len =
  match l.sliced with
  | Some e when e.sealed_get == l.get -> e.get_into out s pos len
  | _ -> Buffer.add_string out (l.get (String.sub s pos len))

let put_into l out v vp vl s sp sl =
  match l.sliced with
  | Some e when e.sealed_put == l.put -> e.put_into out v vp vl s sp sl
  | _ -> Buffer.add_string out (l.put (String.sub v vp vl) (String.sub s sp sl))

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

(* ------------------------------------------------------------------ *)
(* Primitives *)

let copy_impl =
  {
    e_get = (fun ctx s pos len -> Buffer.add_substring ctx.out s pos len);
    e_put = (fun ctx v vp vl _ _ _ -> Buffer.add_substring ctx.out v vp vl);
    e_create = (fun ctx v vp vl -> Buffer.add_substring ctx.out v vp vl);
    exact = true;
  }

let copy r = seal ~stype:r ~vtype:r copy_impl

(* Byte equality of two slices, allocation-free, a word at a time: the
   splice test of the star put and the delta tiers, the view check of
   [const], and key comparison. *)
let rec equal_from a i b j stop =
  if i + 8 <= stop then
    Int64.equal (Bytes.get_int64_ne a i) (Bytes.get_int64_ne b j)
    && equal_from a (i + 8) b (j + 8) stop
  else
    i >= stop
    || (Bytes.unsafe_get a i = Bytes.unsafe_get b j && equal_from a (i + 1) b (j + 1) stop)

let bytes_equal a apos alen b bpos blen = alen = blen && equal_from a apos b bpos (apos + alen)

let slices_equal a apos alen b bpos blen =
  bytes_equal (Bytes.unsafe_of_string a) apos alen (Bytes.unsafe_of_string b) bpos blen

let const ~stype ~view ~default =
  if not (Regex.matches stype default) then
    type_error "const: default %S is not in the source type %a" default
      Regex.pp stype;
  seal ~stype ~vtype:(Regex.str view)
    {
      e_get = (fun ctx _ _ _ -> Buffer.add_string ctx.out view);
      e_put =
        (fun ctx v vp vl s sp sl ->
          if slices_equal view 0 (String.length view) v vp vl then
            Buffer.add_substring ctx.out s sp sl
          else
            type_error "const: put view %S differs from constant %S"
              (String.sub v vp vl) view);
      e_create =
        (fun ctx v vp vl ->
          if slices_equal view 0 (String.length view) v vp vl then
            Buffer.add_string ctx.out default
          else
            type_error "const: create view %S differs from constant %S"
              (String.sub v vp vl) view);
      exact = true;
    }

let del r ~default = const ~stype:r ~view:"" ~default
let ins s = const ~stype:Regex.epsilon ~view:s ~default:""

(* ------------------------------------------------------------------ *)
(* Concatenation.  All concatenations — binary [concat], [concat_list],
   [permute] — run on the k-ary splitter: one guarded forward descent
   over the parts' DFAs, no intermediate substrings. *)

let multi_impl lenses =
  let ls = Array.of_list lenses in
  let k = Array.length ls in
  let split_s = Split.make_multi_bounds (List.map (fun l -> l.stype) lenses) in
  let split_v = Split.make_multi_bounds (List.map (fun l -> l.vtype) lenses) in
  {
    e_get =
      (fun ctx s pos len ->
        let bs = split_s ctx.ws s pos len in
        for i = 0 to k - 1 do
          ls.(i).impl.e_get ctx s bs.(i) (bs.(i + 1) - bs.(i))
        done);
    e_put =
      (fun ctx v vp vl s sp sl ->
        let vb = split_v ctx.ws v vp vl in
        let sb = split_s ctx.ws s sp sl in
        for i = 0 to k - 1 do
          ls.(i).impl.e_put ctx v vb.(i)
            (vb.(i + 1) - vb.(i))
            s sb.(i)
            (sb.(i + 1) - sb.(i))
        done);
    e_create =
      (fun ctx v vp vl ->
        let vb = split_v ctx.ws v vp vl in
        for i = 0 to k - 1 do
          ls.(i).impl.e_create ctx v vb.(i) (vb.(i + 1) - vb.(i))
        done);
    exact = Array.for_all (fun l -> l.impl.exact) ls;
  }

let concat l1 l2 =
  require_unambig_concat "concat (source)" l1.stype l2.stype;
  require_unambig_concat "concat (view)" l1.vtype l2.vtype;
  seal
    ~stype:(Regex.seq l1.stype l2.stype)
    ~vtype:(Regex.seq l1.vtype l2.vtype)
    (multi_impl [ l1; l2 ])

(* Pairwise unambiguity along a concatenation chain guarantees the
   k-way split is unique. *)
let rec check_chain what = function
  | [] | [ _ ] -> ()
  | r :: rest ->
      require_unambig_concat what r (Regex.concat_list rest);
      check_chain what rest

let concat_list = function
  | [] -> copy Regex.epsilon
  | [ l ] -> l
  | ls ->
      let stypes = List.map (fun l -> l.stype) ls in
      let vtypes = List.map (fun l -> l.vtype) ls in
      check_chain "concat (source)" stypes;
      check_chain "concat (view)" vtypes;
      seal
        ~stype:(Regex.concat_list stypes)
        ~vtype:(Regex.concat_list vtypes)
        (multi_impl ls)

(* ------------------------------------------------------------------ *)
(* Union.  Membership tests run on compiled DFAs over the slice and
   stop at the first decisive answer: the common put case (view and old
   source both on the same branch) costs two scans, never four. *)

let union l1 l2 =
  (match Ambig.disjoint_union l1.stype l2.stype with
  | Ok () -> ()
  | Error w -> type_error "union: source types overlap (witness %S)" w);
  let ds1 = Dfa.compile l1.stype in
  let dv1 = Dfa.compile l1.vtype in
  let dv2 = Dfa.compile l2.vtype in
  seal
    ~stype:(Regex.alt l1.stype l2.stype)
    ~vtype:(Regex.alt l1.vtype l2.vtype)
    {
      e_get =
        (fun ctx s pos len ->
          if Dfa.accepts_sub ds1 s ~pos ~len then l1.impl.e_get ctx s pos len
          else l2.impl.e_get ctx s pos len);
      e_put =
        (fun ctx v vp vl s sp sl ->
          if Dfa.accepts_sub dv1 v ~pos:vp ~len:vl then
            if Dfa.accepts_sub ds1 s ~pos:sp ~len:sl then
              l1.impl.e_put ctx v vp vl s sp sl
            else if Dfa.accepts_sub dv2 v ~pos:vp ~len:vl then
              l2.impl.e_put ctx v vp vl s sp sl
            else l1.impl.e_create ctx v vp vl
          else if Dfa.accepts_sub dv2 v ~pos:vp ~len:vl then
            if Dfa.accepts_sub ds1 s ~pos:sp ~len:sl then
              l2.impl.e_create ctx v vp vl
            else l2.impl.e_put ctx v vp vl s sp sl
          else
            type_error "union: put view %S matches neither view type"
              (String.sub v vp vl));
      e_create =
        (fun ctx v vp vl ->
          if Dfa.accepts_sub dv1 v ~pos:vp ~len:vl then l1.impl.e_create ctx v vp vl
          else if Dfa.accepts_sub dv2 v ~pos:vp ~len:vl then
            l2.impl.e_create ctx v vp vl
          else
            type_error "union: create view %S matches neither view type"
              (String.sub v vp vl));
      exact = l1.impl.exact && l2.impl.exact;
    }

(* ------------------------------------------------------------------ *)
(* Iteration.  Chunk boundaries for both sides are computed up front
   (one table scan each, after a suffix pass only when the body is not
   prefix-free); alignment then pairs view chunks with source chunks and
   emits straight into the output. *)

(* ------------------------------------------------------------------ *)
(* Chunk pairing, shared between the star aligners here and the delta
   layer's slow path ({!Slens_delta}): given the per-chunk keys of both
   sides, decide for every view chunk which source chunk it reuses
   ([-1] = none, create).

   Keys are packed in a scratch, not held as strings in an array: an
   array that survives a minor collection is promoted with every young
   key it points to.  Key [k] is [keys.[koff.(k) .. koff.(k+1))], the
   [ns] source keys first, then the view keys.  Each domain keeps one
   scratch, grown geometrically and reused; like the execution context
   it is taken for one alignment, so a keyed star nested in a keyed
   star's body gets a fresh one. *)

type scratch = {
  mutable views : Bytes.t;  (* source chunk [i]'s view: [views.[ends.(i) .. ends.(i+1))] *)
  mutable ends : int array;
  mutable keys : Bytes.t;
  mutable koff : int array;
  mutable rep : int array;
  mutable head : int array;
  mutable next : int array;
  mutable pair : int array;
}

let new_scratch () =
  { views = Bytes.empty; ends = [||]; keys = Bytes.empty; koff = [||];
    rep = [||]; head = [||]; next = [||]; pair = [||] }

let scratch_slot = Domain.DLS.new_key (fun () -> ref None)

let with_scratch f =
  let slot = Domain.DLS.get scratch_slot in
  let sc = match !slot with Some sc -> slot := None; sc | None -> new_scratch () in
  match f sc with
  | r ->
      slot := Some sc;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      slot := Some sc;
      Printexc.raise_with_backtrace e bt

(* At least [n] ints (contents dropped) or bytes (the first [keep] kept). *)
let ints a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

let room b n ~keep =
  if Bytes.length b >= n then b
  else
    let b' = Bytes.create (max n (2 * Bytes.length b)) in
    Bytes.blit b 0 b' 0 keep;
    b'

(* Room for [n] keys, to be set in order by [set_key]. *)
let start_keys sc n =
  sc.koff <- ints sc.koff (n + 1);
  sc.koff.(0) <- 0

let set_key sc i k =
  let p = sc.koff.(i) and len = String.length k in
  sc.keys <- room sc.keys (p + len) ~keep:p;
  Bytes.blit_string k 0 sc.keys p len;
  sc.koff.(i + 1) <- p + len

let key_equal sc a b =
  let o = sc.koff in
  bytes_equal sc.keys o.(a) (o.(a + 1) - o.(a)) sc.keys o.(b) (o.(b + 1) - o.(b))

(* Multiplicative hashing a word, then a byte, at a time; each step folds
   the high bits of the product down to where the table mask looks. *)
let mix h x =
  let h = (h lxor x) * 0x1e3779b97f4a7c15 in
  h lxor (h lsr 29)

let rec hash_from b i stop h =
  if i + 8 <= stop then hash_from b (i + 8) stop (mix h (Int64.to_int (Bytes.get_int64_ne b i)))
  else if i < stop then hash_from b (i + 1) stop (mix h (Char.code (Bytes.unsafe_get b i)))
  else h

let key_hash sc k = hash_from sc.keys sc.koff.(k) sc.koff.(k + 1) 0

let reset_pair sc nv =
  sc.pair <- ints sc.pair nv;
  Array.fill sc.pair 0 nv (-1);
  sc.pair

(* Explicit loops — evaluation order carries the first-unconsumed-match
   discipline, which [Array.init] does not guarantee. *)
let key_pairing sc ~ns ~nv =
  (* An open-addressing index over the source keys, at most half full,
     so each key is hashed once.  A slot holds a representative chunk
     [rep] (whose key is the slot's key) and [head], the key's first
     unconsumed chunk (-1 once all are consumed); [next.(i)] is the next
     chunk after [i] with the same key. *)
  let size = ref 1 in
  while !size < 2 * ns do size := 2 * !size done;
  let mask = !size - 1 in
  sc.rep <- ints sc.rep !size;
  sc.head <- ints sc.head !size;
  sc.next <- ints sc.next ns;
  let rep = sc.rep and head = sc.head and next = sc.next in
  Array.fill rep 0 !size (-1);
  (* The slot holding key [k], or the empty slot ending its probe. *)
  let rec slot k h =
    let r = rep.(h) in
    if r < 0 || key_equal sc r k then h else slot k ((h + 1) land mask)
  in
  for i = ns - 1 downto 0 do
    let h = slot i (key_hash sc i land mask) in
    next.(i) <- (if rep.(h) < 0 then (rep.(h) <- i; -1) else head.(h));
    head.(h) <- i
  done;
  let pair = reset_pair sc nv in
  for j = 0 to nv - 1 do
    let h = slot (ns + j) (key_hash sc (ns + j) land mask) in
    let i = if rep.(h) < 0 then -1 else head.(h) in
    if i >= 0 then begin
      pair.(j) <- i;
      head.(h) <- next.(i)
    end
  done;
  pair

let diff_pairing sc ~ns ~nv =
  let pair = reset_pair sc nv in
  (* A longest common subsequence of the source keys and the view keys. *)
  List.iter
    (fun (i, j) -> pair.(j) <- i)
    (Bx.Lens.lcs_pairs ~eq:(fun i j -> key_equal sc i (ns + j)) ns nv);
  pair

let star_with ~name ~kind ~align l =
  require_unambig_star (name ^ " (source)") l.stype;
  require_unambig_star (name ^ " (view)") l.vtype;
  let bounds_s = Split.make_star_bounds l.stype in
  let bounds_v = Split.make_star_bounds l.vtype in
  seal
    ~shape:
      (Star { body = l; align = kind; sbounds = bounds_s; vbounds = bounds_v })
    ~stype:(Regex.star l.stype)
    ~vtype:(Regex.star l.vtype)
    {
      e_get =
        (fun ctx s pos len ->
          let bs = bounds_s ctx.ws s pos len in
          for i = 0 to Array.length bs - 2 do
            l.impl.e_get ctx s bs.(i) (bs.(i + 1) - bs.(i))
          done);
      e_put =
        (fun ctx v vp vl s sp sl ->
          let vb = bounds_v ctx.ws v vp vl in
          let sb = bounds_s ctx.ws s sp sl in
          align ctx v vb s sb);
      e_create =
        (fun ctx v vp vl ->
          let vb = bounds_v ctx.ws v vp vl in
          for i = 0 to Array.length vb - 2 do
            l.impl.e_create ctx v vb.(i) (vb.(i + 1) - vb.(i))
          done);
      exact = l.impl.exact;
    }

let star l =
  let positional ctx v vb s sb =
    let ns = Array.length sb - 1 and nv = Array.length vb - 1 in
    for j = 0 to nv - 1 do
      if j < ns then
        l.impl.e_put ctx v vb.(j) (vb.(j + 1) - vb.(j)) s sb.(j) (sb.(j + 1) - sb.(j))
      else l.impl.e_create ctx v vb.(j) (vb.(j + 1) - vb.(j))
    done;
    let c = Split.chunk_counts ctx.ws in
    c.put <- c.put + min ns nv;
    c.created <- c.created + max 0 (nv - ns)
  in
  star_with ~name:"star" ~kind:Positional ~align:positional l

(* Both keyed aligners share one skeleton: run every source chunk's get
   onto the output and move those views into the scratch, pack the keys,
   let a pairing function decide reuse-vs-create per view chunk, then
   emit.  By GetPut, a view chunk equal to its source chunk's view
   restores that chunk, so an exact body's chunk is copied, not re-put.
   The pairing functions are pure over the packed keys, so the delta
   layer replays exactly the same decisions from its cached keys without
   touching the source bytes. *)
let keyed_align ~key ~pairing l ctx v vb s sb =
  let ns = Array.length sb - 1 and nv = Array.length vb - 1 in
  with_scratch (fun sc ->
      let out = ctx.out in
      let base = Buffer.length out in
      sc.ends <- ints sc.ends (ns + 1);
      let ends = sc.ends in
      ends.(0) <- 0;
      for i = 0 to ns - 1 do
        l.impl.e_get ctx s sb.(i) (sb.(i + 1) - sb.(i));
        ends.(i + 1) <- Buffer.length out - base
      done;
      sc.views <- room sc.views ends.(ns) ~keep:0;
      let views = sc.views in
      Buffer.blit out base views 0 ends.(ns);
      Buffer.truncate out base;
      start_keys sc (ns + nv);
      for i = 0 to ns - 1 do
        set_key sc i (key (Bytes.sub_string views ends.(i) (ends.(i + 1) - ends.(i))))
      done;
      for j = 0 to nv - 1 do
        set_key sc (ns + j) (key (String.sub v vb.(j) (vb.(j + 1) - vb.(j))))
      done;
      let pair = pairing sc ~ns ~nv in
      let c = Split.chunk_counts ctx.ws in
      for j = 0 to nv - 1 do
        let vp = vb.(j) in
        let vlen = vb.(j + 1) - vp in
        match pair.(j) with
        | -1 ->
            c.created <- c.created + 1;
            l.impl.e_create ctx v vp vlen
        | i ->
            let sp = sb.(i) in
            let slen = sb.(i + 1) - sp in
            if
              l.impl.exact
              && bytes_equal (Bytes.unsafe_of_string v) vp vlen views ends.(i)
                   (ends.(i + 1) - ends.(i))
            then (
              c.spliced <- c.spliced + 1;
              Buffer.add_substring ctx.out s sp slen)
            else (
              c.put <- c.put + 1;
              l.impl.e_put ctx v vp vlen s sp slen)
      done)

let star_key ~key l =
  star_with ~name:"star_key" ~kind:(Keyed key)
    ~align:(keyed_align ~key ~pairing:key_pairing l)
    l

let star_diff ~key l =
  star_with ~name:"star_diff" ~kind:(Diffed key)
    ~align:(keyed_align ~key ~pairing:diff_pairing l)
    l

(* ------------------------------------------------------------------ *)
(* Composition and permutation *)

let compose l1 l2 =
  (match Lang.equiv_counterexample l1.vtype l2.stype with
  | None -> ()
  | Some w ->
      type_error
        "compose: view type %a and source type %a differ (witness %S)"
        Regex.pp l1.vtype Regex.pp l2.stype w);
  seal ~stype:l1.stype ~vtype:l2.vtype
    {
      e_get =
        (fun ctx s pos len ->
          let mid = capture ctx (fun () -> l1.impl.e_get ctx s pos len) in
          l2.impl.e_get ctx mid 0 (String.length mid));
      e_put =
        (fun ctx v vp vl s sp sl ->
          let mid = capture ctx (fun () -> l1.impl.e_get ctx s sp sl) in
          let mid' =
            capture ctx (fun () ->
                l2.impl.e_put ctx v vp vl mid 0 (String.length mid))
          in
          l1.impl.e_put ctx mid' 0 (String.length mid') s sp sl);
      e_create =
        (fun ctx v vp vl ->
          let mid = capture ctx (fun () -> l2.impl.e_create ctx v vp vl) in
          l1.impl.e_create ctx mid 0 (String.length mid));
      exact = l1.impl.exact && l2.impl.exact;
    }

let permute ~order ls =
  let k = List.length ls in
  if List.sort compare order <> List.init k Fun.id then
    type_error "permute: order is not a permutation of 0..%d" (k - 1);
  let lens_arr = Array.of_list ls in
  let order_arr = Array.of_list order in
  (* One array pass collects the permuted view types (the old code
     re-walked the list with List.nth per position). *)
  let vtypes_permuted =
    Array.to_list (Array.map (fun i -> lens_arr.(i).vtype) order_arr)
  in
  let stypes = List.map (fun l -> l.stype) ls in
  check_chain "permute (source)" stypes;
  check_chain "permute (view)" vtypes_permuted;
  let split_s = Split.make_multi_bounds stypes in
  let split_v = Split.make_multi_bounds vtypes_permuted in
  (* vpos_of.(i) is the view position of lens i. *)
  let vpos_of = Array.make k 0 in
  Array.iteri (fun p i -> vpos_of.(i) <- p) order_arr;
  seal
    ~stype:(Regex.concat_list stypes)
    ~vtype:(Regex.concat_list vtypes_permuted)
    {
      e_get =
        (fun ctx s pos len ->
          let sb = split_s ctx.ws s pos len in
          for p = 0 to k - 1 do
            let i = order_arr.(p) in
            lens_arr.(i).impl.e_get ctx s sb.(i) (sb.(i + 1) - sb.(i))
          done);
      e_put =
        (fun ctx v vp vl s sp sl ->
          let vb = split_v ctx.ws v vp vl in
          let sb = split_s ctx.ws s sp sl in
          for i = 0 to k - 1 do
            let p = vpos_of.(i) in
            lens_arr.(i).impl.e_put ctx v vb.(p)
              (vb.(p + 1) - vb.(p))
              s sb.(i)
              (sb.(i + 1) - sb.(i))
          done);
      e_create =
        (fun ctx v vp vl ->
          let vb = split_v ctx.ws v vp vl in
          for i = 0 to k - 1 do
            let p = vpos_of.(i) in
            lens_arr.(i).impl.e_create ctx v vb.(p) (vb.(p + 1) - vb.(p))
          done);
      exact = Array.for_all (fun l -> l.impl.exact) lens_arr;
    }

let swap l1 l2 = permute ~order:[ 1; 0 ] [ l1; l2 ]

let separated ~sep l =
  union (copy Regex.epsilon) (concat l (star (concat sep l)))

(* ------------------------------------------------------------------ *)
(* Inspection and checking *)

let in_source l s = Regex.matches l.stype s
let in_view l v = Regex.matches l.vtype v

let to_lens l =
  Bx.Lens.make ~name:"string-lens" ~get:l.get ~put:l.put ~create:l.create

let get_put_law l =
  Bx.Law.make ~name:"slens:GetPut" ~description:"put (get s) s = s" (fun s ->
      if not (in_source l s) then Bx.Law.holds
      else
        let s' = l.put (l.get s) s in
        Bx.Law.require (String.equal s s') "put (get %S) = %S" s s')

let put_get_law l =
  Bx.Law.make ~name:"slens:PutGet" ~description:"get (put v s) = v"
    (fun (s, v) ->
      if not (in_source l s && in_view l v) then Bx.Law.holds
      else
        let v' = l.get (l.put v s) in
        Bx.Law.require (String.equal v v') "get (put %S %S) = %S" v s v')

(* ------------------------------------------------------------------ *)
(* Engine hooks for the delta layer.  {!Slens_delta} splices untouched
   source bytes verbatim and re-runs the body lens only on dirty
   chunks; to do that it needs to drive emitters directly inside a
   context of its own acquisition. *)

module Internal = struct
  type nonrec ctx = ctx

  let exec = exec
  let ws ctx = ctx.ws
  let out_length ctx = Buffer.length ctx.out
  let blit ctx s pos len = Buffer.add_substring ctx.out s pos len
  let e_get l ctx s pos len = l.impl.e_get ctx s pos len
  let e_put l ctx v vp vl s sp sl = l.impl.e_put ctx v vp vl s sp sl
  let e_create l ctx v vp vl = l.impl.e_create ctx v vp vl
  let slices_equal = slices_equal
  type nonrec scratch = scratch

  let with_scratch = with_scratch

  let pack_keys sc skeys vkeys =
    let ns = Array.length skeys in
    start_keys sc (ns + Array.length vkeys);
    Array.iteri (set_key sc) skeys;
    Array.iteri (fun j -> set_key sc (ns + j)) vkeys

  let key_pairing = key_pairing
  let diff_pairing = diff_pairing
end
