module I = Slens.Internal

(* ------------------------------------------------------------------ *)
(* Instrumentation, process-global and domain-safe. *)

let n_fast_puts = Atomic.make 0
let n_slow_puts = Atomic.make 0
let n_fallback_puts = Atomic.make 0
let n_fast_gets = Atomic.make 0
let n_fallback_gets = Atomic.make 0
let n_reused = Atomic.make 0
let n_recomputed = Atomic.make 0
let n_delta_bytes = Atomic.make 0
let n_full_bytes = Atomic.make 0

type stats = {
  fast_puts : int;
  slow_puts : int;
  fallback_puts : int;
  fast_gets : int;
  fallback_gets : int;
  chunks_reused : int;
  chunks_recomputed : int;
  delta_bytes : int;
  full_bytes : int;
}

let stats () =
  {
    fast_puts = Atomic.get n_fast_puts;
    slow_puts = Atomic.get n_slow_puts;
    fallback_puts = Atomic.get n_fallback_puts;
    fast_gets = Atomic.get n_fast_gets;
    fallback_gets = Atomic.get n_fallback_gets;
    chunks_reused = Atomic.get n_reused;
    chunks_recomputed = Atomic.get n_recomputed;
    delta_bytes = Atomic.get n_delta_bytes;
    full_bytes = Atomic.get n_full_bytes;
  }

let reset_stats () =
  List.iter
    (fun a -> Atomic.set a 0)
    [
      n_fast_puts;
      n_slow_puts;
      n_fallback_puts;
      n_fast_gets;
      n_fallback_gets;
      n_reused;
      n_recomputed;
      n_delta_bytes;
      n_full_bytes;
    ]

let add a k = ignore (Atomic.fetch_and_add a k : int)

(* ------------------------------------------------------------------ *)
(* The cache: the decomposition of one (source, view) pair.  [sb] and
   [vb] are the chunk bounds of source and view (same chunk count — the
   consistency invariant [view = get source] maps chunk-wise), [keys]
   the per-chunk alignment keys for keyed stars, [table] the key ->
   chunk-index map ([dup] marks it untrustworthy: some key occurs on
   more than one chunk, possibly only until the next full rebuild). *)

type star_cache = {
  mutable src : string;
  mutable vw : string;
  mutable sb : int array;
  mutable vb : int array;
  mutable keys : string array; (* [||] for positional stars *)
  table : (string, int) Hashtbl.t;
  mutable dup : bool;
}

type cache = { ws : Split.ws; mutable st : star_cache option }

let make_cache () = { ws = Split.make_ws (); st = None }
let invalidate c = c.st <- None

(* Precondition violations (chunk-count mismatch between the two sides)
   surface as this and route to the full-function fallback. *)
exception Invalid

let keys_of align doc bounds =
  match align with
  | Slens.Positional -> [||]
  | Slens.Keyed key | Slens.Diffed key ->
      let n = Array.length bounds - 1 in
      let ks = Array.make n "" in
      for i = 0 to n - 1 do
        ks.(i) <- key (String.sub doc bounds.(i) (bounds.(i + 1) - bounds.(i)))
      done;
      ks

(* Full put's pairing over cached keys, packed into the domain's scratch. *)
let pairing align ~skeys ~vkeys =
  let ns = Array.length skeys and nv = Array.length vkeys in
  let pairing = match align with Slens.Diffed _ -> I.diff_pairing | _ -> I.key_pairing in
  I.with_scratch (fun sc ->
      I.pack_keys sc skeys vkeys;
      Array.sub (pairing sc ~ns ~nv) 0 nv)

let rebuild_table st =
  Hashtbl.reset st.table;
  st.dup <- false;
  Array.iteri
    (fun i k ->
      if Hashtbl.mem st.table k then st.dup <- true
      else Hashtbl.add st.table k i)
    st.keys

let ensure_cache c (sh : Slens.star_shape) ~source ~view =
  match c.st with
  | Some st
    when (st.src == source || String.equal st.src source)
         && (st.vw == view || String.equal st.vw view) ->
      st
  | _ ->
      let sb = sh.sbounds c.ws source 0 (String.length source) in
      let vb = sh.vbounds c.ws view 0 (String.length view) in
      if Array.length sb <> Array.length vb then raise Invalid;
      let keys = keys_of sh.align view vb in
      let st =
        match c.st with
        | Some st ->
            st.src <- source;
            st.vw <- view;
            st.sb <- sb;
            st.vb <- vb;
            st.keys <- keys;
            st
        | None ->
            let st =
              {
                src = source;
                vw = view;
                sb;
                vb;
                keys;
                table = Hashtbl.create 64;
                dup = false;
              }
            in
            c.st <- Some st;
            st
      in
      rebuild_table st;
      st

(* ------------------------------------------------------------------ *)
(* Small pure helpers *)

(* Largest index i with a.(i) <= x (requires a.(0) <= x). *)
let find_le a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo + 1) / 2) in
    if a.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

(* Smallest index j with a.(j) >= x (requires a.(last) >= x). *)
let find_ge a x =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* Replace bound entries ci..cj of [old] with [window] (absolute values,
   [window.(0) = old.(ci)]) and shift everything after by [shift]. *)
let splice_bounds old ci cj window shift =
  let n_old = Array.length old in
  let mw = Array.length window - 1 in
  let out = Array.make (ci + mw + (n_old - 1 - cj) + 1) 0 in
  Array.blit old 0 out 0 ci;
  Array.blit window 0 out ci (mw + 1);
  for k = cj + 1 to n_old - 1 do
    out.(ci + mw + (k - cj)) <- old.(k) + shift
  done;
  out

(* Replace slots ci..cj-1 of [old] with [window]. *)
let splice_arr old ci cj window =
  let n = Array.length old in
  let mw = Array.length window in
  let out = Array.make (n - (cj - ci) + mw) "" in
  Array.blit old 0 out 0 ci;
  Array.blit window 0 out ci mw;
  Array.blit old cj out (ci + mw) (n - cj);
  out

(* Incremental key-table maintenance for a same-chunk-count window
   replacement: suffix indexes are unchanged, so only the window's
   bindings move.  Only called when the table was exact (no dup). *)
let patch_table st ~ci ~cj ~old_keys ~new_keys =
  for i = ci to cj - 1 do
    Hashtbl.remove st.table old_keys.(i)
  done;
  Array.iteri
    (fun j k ->
      if Hashtbl.mem st.table k then st.dup <- true
      else Hashtbl.add st.table k (ci + j))
    new_keys

(* ------------------------------------------------------------------ *)
(* put_delta tiers *)

(* Slow tier: rechunk the whole new view and replay full put's
   alignment from the cached chunk keys — the cached keys ARE what full
   put would compute per chunk (key (get chunk)), so the pairing
   decisions coincide exactly; byte-identical chunks are spliced
   (GetPut), the rest re-run the body lens.  No per-chunk get calls. *)
let slow_put (sh : Slens.star_shape) c st ~source ~new_view =
  Atomic.incr n_slow_puts;
  let nvb = sh.vbounds c.ws new_view 0 (String.length new_view) in
  let m = Array.length nvb - 1 in
  let nkeys = keys_of sh.align new_view nvb in
  let ns_chunks = Array.length st.sb - 1 in
  let pair =
    match sh.align with
    | Slens.Positional ->
        let p = Array.make m (-1) in
        for j = 0 to m - 1 do
          if j < ns_chunks then p.(j) <- j
        done;
        p
    | Slens.Keyed _ | Slens.Diffed _ -> pairing sh.align ~skeys:st.keys ~vkeys:nkeys
  in
  let nsb = Array.make (m + 1) 0 in
  let reused = ref 0 and recomputed = ref 0 in
  let new_source =
    I.exec (String.length new_view) (fun ctx ->
        for j = 0 to m - 1 do
          nsb.(j) <- I.out_length ctx;
          let vpos = nvb.(j) and vlen = nvb.(j + 1) - nvb.(j) in
          match pair.(j) with
          | -1 ->
              incr recomputed;
              I.e_create sh.body ctx new_view vpos vlen
          | i ->
              if
                I.slices_equal new_view vpos vlen st.vw st.vb.(i)
                  (st.vb.(i + 1) - st.vb.(i))
              then begin
                incr reused;
                I.blit ctx source st.sb.(i) (st.sb.(i + 1) - st.sb.(i))
              end
              else begin
                incr recomputed;
                I.e_put sh.body ctx new_view vpos vlen source st.sb.(i)
                  (st.sb.(i + 1) - st.sb.(i))
              end
        done;
        nsb.(m) <- I.out_length ctx)
  in
  add n_reused !reused;
  add n_recomputed !recomputed;
  let se = Sdiff.diff source new_source in
  st.src <- new_source;
  st.vw <- new_view;
  st.sb <- nsb;
  st.vb <- nvb;
  st.keys <- nkeys;
  rebuild_table st;
  (new_source, se)

(* Fast tier: only the window [ci, cj) is rechunked and re-aligned;
   everything outside is spliced wholesale and the source edit is the
   single hunk covering the window's source span. *)
let fast_put (sh : Slens.star_shape) st ~source ~new_view ~ci ~cj ~wb ~pair
    ~ykeys =
  Atomic.incr n_fast_puts;
  let mw = Array.length wb - 1 in
  let old_mw = cj - ci in
  let src_len = String.length source in
  let wsb = Array.make (mw + 1) 0 in
  let reused = ref 0 and recomputed = ref 0 in
  let new_source =
    I.exec (wb.(mw) - wb.(0)) (fun ctx ->
        I.blit ctx source 0 st.sb.(ci);
        for j = 0 to mw - 1 do
          wsb.(j) <- I.out_length ctx;
          let vpos = wb.(j) and vlen = wb.(j + 1) - wb.(j) in
          match pair.(j) with
          | -1 ->
              incr recomputed;
              I.e_create sh.body ctx new_view vpos vlen
          | li ->
              let i = ci + li in
              if
                I.slices_equal new_view vpos vlen st.vw st.vb.(i)
                  (st.vb.(i + 1) - st.vb.(i))
              then begin
                incr reused;
                I.blit ctx source st.sb.(i) (st.sb.(i + 1) - st.sb.(i))
              end
              else begin
                incr recomputed;
                I.e_put sh.body ctx new_view vpos vlen source st.sb.(i)
                  (st.sb.(i + 1) - st.sb.(i))
              end
        done;
        wsb.(mw) <- I.out_length ctx;
        I.blit ctx source st.sb.(cj) (src_len - st.sb.(cj)))
  in
  add n_reused (!reused + (Array.length st.sb - 1 - old_mw));
  add n_recomputed !recomputed;
  let drop = st.sb.(cj) - st.sb.(ci) in
  let ins_len = wsb.(mw) - wsb.(0) in
  let se =
    if
      ins_len = drop
      && I.slices_equal new_source wsb.(0) ins_len source st.sb.(ci) drop
    then Sdiff.empty
    else
      [
        {
          Sdiff.at = st.sb.(ci);
          drop;
          insert = String.sub new_source wsb.(0) ins_len;
        };
      ]
  in
  let old_keys = st.keys in
  let new_vb = splice_bounds st.vb ci cj wb (wb.(mw) - st.vb.(cj)) in
  let new_sb = splice_bounds st.sb ci cj wsb (ins_len - drop) in
  st.src <- new_source;
  st.vw <- new_view;
  st.sb <- new_sb;
  st.vb <- new_vb;
  (match sh.align with
  | Slens.Positional -> ()
  | Slens.Keyed _ | Slens.Diffed _ ->
      st.keys <- splice_arr old_keys ci cj ykeys;
      if mw = old_mw then patch_table st ~ci ~cj ~old_keys ~new_keys:ykeys
      else rebuild_table st);
  (new_source, se)

(* Dispatch: decide whether the window's alignment decisions provably
   coincide with full put's.
   - Positional: yes iff the window's chunk count is unchanged (a count
     change re-pairs every chunk after the window).
   - Keyed/Diffed: yes if no key is duplicated across the old document
     and no new window key claims a chunk outside the window — then
     every outside chunk pairs with itself and the window pairs
     locally, by the same pairing function full put uses. *)
let star_put (sh : Slens.star_shape) c ~source ~view ~new_view ~a ~b_old
    ~b_new =
  let st = ensure_cache c sh ~source ~view in
  let ci = find_le st.vb a in
  let cj = find_ge st.vb b_old in
  let p = st.vb.(ci) and q = st.vb.(cj) in
  let shift = b_new - b_old in
  let window () = sh.vbounds c.ws new_view p (q + shift - p) in
  match sh.align with
  | Slens.Positional -> (
      match window () with
      | wb when Array.length wb - 1 = cj - ci ->
          let mw = Array.length wb - 1 in
          fast_put sh st ~source ~new_view ~ci ~cj ~wb
            ~pair:(Array.init mw Fun.id) ~ykeys:[||]
      | _ | (exception Split.Split_error _) ->
          slow_put sh c st ~source ~new_view)
  | Slens.Keyed key | Slens.Diffed key -> (
      if st.dup then slow_put sh c st ~source ~new_view
      else
        match window () with
        | exception Split.Split_error _ -> slow_put sh c st ~source ~new_view
        | wb ->
            let mw = Array.length wb - 1 in
            let ykeys = Array.make mw "" in
            for j = 0 to mw - 1 do
              ykeys.(j) <- key (String.sub new_view wb.(j) (wb.(j + 1) - wb.(j)))
            done;
            let outside = ref false in
            for j = 0 to mw - 1 do
              match Hashtbl.find_opt st.table ykeys.(j) with
              | Some i when i < ci || i >= cj -> outside := true
              | _ -> ()
            done;
            if !outside then slow_put sh c st ~source ~new_view
            else
              let skeys = Array.sub st.keys ci (cj - ci) in
              fast_put sh st ~source ~new_view ~ci ~cj ~wb
                ~pair:(pairing sh.align ~skeys ~vkeys:ykeys)
                ~ykeys)

let put_delta (l : Slens.t) ~cache:c ~source ~view edit =
  let new_view, (a, b_old, b_new) = Sdiff.apply_with_span view edit in
  if Sdiff.is_empty edit then (source, Sdiff.empty)
  else begin
    let fallback () =
      Atomic.incr n_fallback_puts;
      let ns = l.Slens.put new_view source in
      let se = Sdiff.diff source ns in
      (match l.Slens.shape with
      | Slens.Opaque -> ()
      | Slens.Star sh -> (
          c.st <- None;
          try ignore (ensure_cache c sh ~source:ns ~view:new_view)
          with _ -> c.st <- None));
      (ns, se)
    in
    let ((ns, se) as result) =
      match l.Slens.shape with
      | Slens.Opaque -> fallback ()
      | Slens.Star sh -> (
          match star_put sh c ~source ~view ~new_view ~a ~b_old ~b_new with
          | r -> r
          | exception Split.Split_error _ ->
              c.st <- None;
              fallback ()
          | exception Invalid ->
              c.st <- None;
              fallback ())
    in
    add n_delta_bytes (Sdiff.payload_bytes edit + Sdiff.payload_bytes se);
    add n_full_bytes (String.length new_view + String.length ns);
    result
  end

(* ------------------------------------------------------------------ *)
(* get_delta: always chunk-wise — get needs no alignment, so the fast
   path is gated only on the window chunking cleanly. *)

let star_get (sh : Slens.star_shape) c ~source ~view ~new_source ~a ~b_old
    ~b_new =
  let st = ensure_cache c sh ~source ~view in
  let ci = find_le st.sb a in
  let cj = find_ge st.sb b_old in
  let p = st.sb.(ci) and q = st.sb.(cj) in
  let shift = b_new - b_old in
  let wsb = sh.sbounds c.ws new_source p (q + shift - p) in
  Atomic.incr n_fast_gets;
  let mw = Array.length wsb - 1 in
  let old_mw = cj - ci in
  let wvb = Array.make (mw + 1) 0 in
  let reused = ref 0 and recomputed = ref 0 in
  let new_view =
    I.exec (q + shift - p) (fun ctx ->
        I.blit ctx view 0 st.vb.(ci);
        for j = 0 to mw - 1 do
          wvb.(j) <- I.out_length ctx;
          let spos = wsb.(j) and slen = wsb.(j + 1) - wsb.(j) in
          if
            j < old_mw
            && I.slices_equal new_source spos slen source
                 st.sb.(ci + j)
                 (st.sb.(ci + j + 1) - st.sb.(ci + j))
          then begin
            incr reused;
            I.blit ctx view st.vb.(ci + j) (st.vb.(ci + j + 1) - st.vb.(ci + j))
          end
          else begin
            incr recomputed;
            I.e_get sh.body ctx new_source spos slen
          end
        done;
        wvb.(mw) <- I.out_length ctx;
        I.blit ctx view st.vb.(cj) (String.length view - st.vb.(cj)))
  in
  add n_reused (!reused + (Array.length st.sb - 1 - old_mw));
  add n_recomputed !recomputed;
  let drop = st.vb.(cj) - st.vb.(ci) in
  let ins_len = wvb.(mw) - wvb.(0) in
  let ve =
    if
      ins_len = drop
      && I.slices_equal new_view wvb.(0) ins_len view st.vb.(ci) drop
    then Sdiff.empty
    else
      [
        {
          Sdiff.at = st.vb.(ci);
          drop;
          insert = String.sub new_view wvb.(0) ins_len;
        };
      ]
  in
  let old_keys = st.keys in
  let new_sb = splice_bounds st.sb ci cj wsb shift in
  let new_vb = splice_bounds st.vb ci cj wvb (ins_len - drop) in
  st.src <- new_source;
  st.vw <- new_view;
  st.sb <- new_sb;
  st.vb <- new_vb;
  (match sh.align with
  | Slens.Positional -> ()
  | Slens.Keyed key | Slens.Diffed key ->
      let ykeys = Array.make mw "" in
      for j = 0 to mw - 1 do
        ykeys.(j) <- key (String.sub new_view wvb.(j) (wvb.(j + 1) - wvb.(j)))
      done;
      st.keys <- splice_arr old_keys ci cj ykeys;
      if mw = old_mw && not st.dup then
        patch_table st ~ci ~cj ~old_keys ~new_keys:ykeys
      else rebuild_table st);
  (new_view, ve)

let get_delta (l : Slens.t) ~cache:c ~source ~view edit =
  let new_source, (a, b_old, b_new) = Sdiff.apply_with_span source edit in
  if Sdiff.is_empty edit then (view, Sdiff.empty)
  else begin
    let fallback () =
      Atomic.incr n_fallback_gets;
      let nv = l.Slens.get new_source in
      let ve = Sdiff.diff view nv in
      (match l.Slens.shape with
      | Slens.Opaque -> ()
      | Slens.Star sh -> (
          c.st <- None;
          try ignore (ensure_cache c sh ~source:new_source ~view:nv)
          with _ -> c.st <- None));
      (nv, ve)
    in
    let ((nv, ve) as result) =
      match l.Slens.shape with
      | Slens.Opaque -> fallback ()
      | Slens.Star sh -> (
          match star_get sh c ~source ~view ~new_source ~a ~b_old ~b_new with
          | r -> r
          | exception Split.Split_error _ ->
              c.st <- None;
              fallback ()
          | exception Invalid ->
              c.st <- None;
              fallback ())
    in
    add n_delta_bytes (Sdiff.payload_bytes edit + Sdiff.payload_bytes ve);
    add n_full_bytes (String.length new_source + String.length nv);
    result
  end
