open Bx_regex

exception Split_error of string

let split_error fmt = Format.kasprintf (fun m -> raise (Split_error m)) fmt

let rev_string s =
  let n = String.length s in
  String.init n (fun i -> s.[n - 1 - i])

(* ------------------------------------------------------------------ *)
(* The workspace: the suffix-mark scratch of the star chunker (one byte
   per position, grown geometrically, never shrunk) and the engine's
   split and chunk-outcome counters, owned by one lens execution and
   reused by every split it performs. *)

type chunk_counts = { mutable spliced : int; mutable put : int; mutable created : int }

type ws = {
  mutable suf : Bytes.t;
  mutable n_splits : int;  (* split decisions made since last harvest *)
  chunks : chunk_counts;  (* star put chunk outcomes since last harvest *)
}

let make_ws () =
  { suf = Bytes.create 256; n_splits = 0; chunks = { spliced = 0; put = 0; created = 0 } }

let splits_performed ws = ws.n_splits
let chunk_counts ws = ws.chunks

let reset_splits ws =
  ws.n_splits <- 0;
  ws.chunks.spliced <- 0; ws.chunks.put <- 0; ws.chunks.created <- 0

let suf_scratch ws n =
  if Bytes.length ws.suf < n then
    ws.suf <- Bytes.create (max n (2 * Bytes.length ws.suf));
  ws.suf

let sub_for_error s pos len = String.sub s pos len

(* ------------------------------------------------------------------ *)
(* The splitting strategy.  The combinators establish the POPL'08
   unambiguity side conditions {e statically}, at lens construction; at
   run time a well-typed slice therefore has exactly one decomposition,
   and the splitter's job is to find it, not to re-prove its uniqueness.
   That licenses {e first-match} parsing: scan forward with the part's
   DFA, and at each accepting position check that the rest of the slice
   belongs to the rest-language by running the rest DFA forward from
   there.  Wrong candidates die at the rest DFA's sink within a byte or
   two (the rest-language rarely starts the way the part continues), so
   verification is effectively free except at the true boundary — and
   there it is the last full scan, because the search stops.  No suffix
   mark pass, no uniqueness rescan, no reversed automaton. *)

(* Does [s[from .. stop)] belong to [d]'s language?  One table read per
   byte, early exit at the sink. *)
let tail_matches d s from stop =
  let table = Dfa.raw_table d in
  let accept = Dfa.raw_accept d in
  let sink = Dfa.sink d in
  let st = ref Dfa.initial in
  let p = ref from in
  (try
     while !p < stop do
       st :=
         Array.unsafe_get table
           ((!st lsl 8) lor Char.code (String.unsafe_get s !p));
       if !st = sink then raise Exit;
       incr p
     done
   with Exit -> ());
  !p = stop && Array.unsafe_get accept !st

(* The boundary of part [d] within [s[b .. stop)], with [rest]
   recognising what must follow.  Returns the absolute offset just past
   the part, or -1. *)
let find_boundary d rest s b stop =
  let table = Dfa.raw_table d in
  let accept = Dfa.raw_accept d in
  let sink = Dfa.sink d in
  if Array.unsafe_get accept Dfa.initial && tail_matches rest s b stop then b
  else begin
    let found = ref (-1) in
    let st = ref Dfa.initial in
    let j = ref b in
    (try
       while !j < stop && !found < 0 do
         st :=
           Array.unsafe_get table
             ((!st lsl 8) lor Char.code (String.unsafe_get s !j));
         if !st = sink then raise Exit;
         if Array.unsafe_get accept !st && tail_matches rest s (!j + 1) stop
         then found := !j + 1;
         incr j
       done
     with Exit -> ());
    !found
  end

type concat_pos = ws -> string -> int -> int -> int

let make_concat_pos r1 r2 : concat_pos =
  let d1 = Dfa.compile r1 in
  let d2 = Dfa.compile r2 in
  fun ws s pos len ->
    ws.n_splits <- ws.n_splits + 1;
    let point = find_boundary d1 d2 s pos (pos + len) in
    if point < 0 then
      split_error "no split of %S against %a . %a" (sub_for_error s pos len)
        Regex.pp r1 Regex.pp r2
    else point

type concat_splitter = string -> string * string

let make_concat_splitter r1 r2 : concat_splitter =
  let split = make_concat_pos r1 r2 in
  let ws = make_ws () in
  fun s ->
    let n = String.length s in
    let i = split ws s 0 n in
    (String.sub s 0 i, String.sub s i (n - i))

(* ------------------------------------------------------------------ *)
(* Iteration: the unique chunking of a slice against the star of r.
   One backward pass with the reversed star marks the positions whose
   suffix is still in the star; the forward scan steps r's DFA chunk by
   chunk, closing a
   chunk at the unique accepting position whose suffix mark is set.
   The scan reads the dense tables directly — one array load per byte. *)

type star_bounds = ws -> string -> int -> int -> int array

let make_star_bounds r : star_bounds =
  if Regex.nullable r then
    invalid_arg "make_star_splitter: body accepts the empty string";
  let d = Dfa.compile r in
  let dstar_rev = Dfa.compile (Regex.reverse (Regex.star r)) in
  let table = Dfa.raw_table d in
  let accept = Dfa.raw_accept d in
  let sink = Dfa.sink d in
  fun ws s pos len ->
    if len = 0 then [| pos |]
    else begin
      let suf = suf_scratch ws (len + 1) in
      let (_ : int) = Dfa.suffix_marks_sub dstar_rev s ~pos ~len ~into:suf in
      if Bytes.get suf 0 <> '\001' then
        split_error "%S does not belong to (%a)*" (sub_for_error s pos len)
          Regex.pp r;
      let stop = pos + len in
      let bounds = ref (Array.make 16 0) in
      let nb = ref 1 in
      !bounds.(0) <- pos;
      let push b =
        if !nb >= Array.length !bounds then begin
          let bigger = Array.make (2 * Array.length !bounds) 0 in
          Array.blit !bounds 0 bigger 0 !nb;
          bounds := bigger
        end;
        !bounds.(!nb) <- b;
        incr nb
      in
      let i = ref pos in
      while !i < stop do
        (* Scan forward from !i with the chunk DFA; the chunk closes at
           the first accepting position whose suffix is still in the
           star — by static unambiguity, the only one. *)
        let found = ref (-1) in
        let st = ref Dfa.initial in
        let j = ref !i in
        (try
           while !j < stop && !found < 0 do
             st :=
               Array.unsafe_get table
                 ((!st lsl 8) lor Char.code (String.unsafe_get s !j));
             if !st = sink then raise Exit;
             if
               Array.unsafe_get accept !st
               && Bytes.unsafe_get suf (!j + 1 - pos) = '\001'
             then found := !j + 1;
             incr j
           done
         with Exit -> ());
        if !found < 0 then
          split_error "no chunking of %S against (%a)*"
            (sub_for_error s pos len) Regex.pp r;
        ws.n_splits <- ws.n_splits + 1;
        push !found;
        i := !found
      done;
      Array.sub !bounds 0 !nb
    end

type star_splitter = string -> string list

let make_star_splitter r : star_splitter =
  let bounds = make_star_bounds r in
  let ws = make_ws () in
  fun s ->
    let bs = bounds ws s 0 (String.length s) in
    List.init
      (Array.length bs - 1)
      (fun i -> String.sub s bs.(i) (bs.(i + 1) - bs.(i)))

(* ------------------------------------------------------------------ *)
(* The k-ary splitter: the unique boundaries of a slice against
   r0 . r1 . ... . r(k-1), by backtracking descent.  Level i scans its
   part's DFA forward and, at each accepting position, tentatively
   commits and descends to level i+1; a misjudged boundary is detected
   one level down, usually within a byte (the next part's DFA drops
   into its sink), and the scan resumes where it left off.  The final
   part must span to the end of the slice, which is the parse's only
   full verification — so a well-typed slice costs essentially one DFA
   step per byte, and no suffix pass, no rest-language re-scan per
   level, no intermediate copies.  Static unambiguity (checked at lens
   construction) guarantees the first complete parse is the only one. *)

type multi_bounds = ws -> string -> int -> int -> int array

(* Level [i] of the descent: record [b] as part [i]'s start and try to
   close parts [i ..] within [s[b .. stop)].  Top-level rather than a
   per-call closure, so a split allocates only its bounds array. *)
let rec multi_parse fwd bounds s stop i b =
  bounds.(i) <- b;
  if i = Array.length fwd - 1 then tail_matches fwd.(i) s b stop
  else begin
    let d = fwd.(i) in
    let table = Dfa.raw_table d in
    let accept = Dfa.raw_accept d in
    let sink = Dfa.sink d in
    if Array.unsafe_get accept Dfa.initial && multi_parse fwd bounds s stop (i + 1) b then true
    else begin
      let st = ref Dfa.initial in
      let j = ref b in
      let ok = ref false in
      (try
         while !j < stop && not !ok do
           st :=
             Array.unsafe_get table
               ((!st lsl 8) lor Char.code (String.unsafe_get s !j));
           if !st = sink then raise Exit;
           if Array.unsafe_get accept !st && multi_parse fwd bounds s stop (i + 1) (!j + 1)
           then ok := true;
           incr j
         done
       with Exit -> ());
      !ok
    end
  end

let make_multi_bounds parts : multi_bounds =
  let parts = Array.of_list parts in
  let k = Array.length parts in
  let fwd = Array.map Dfa.compile parts in
  fun ws s pos len ->
    if k = 0 then begin
      if len <> 0 then
        split_error "%S against an empty concatenation"
          (sub_for_error s pos len);
      [| pos |]
    end
    else if k = 1 then [| pos; pos + len |]
    else begin
      let stop = pos + len in
      let bounds = Array.make (k + 1) pos in
      bounds.(k) <- stop;
      if not (multi_parse fwd bounds s stop 0 pos) then
        split_error "no split of %S against %a . ..." (sub_for_error s pos len)
          Regex.pp parts.(0);
      ws.n_splits <- ws.n_splits + (k - 1);
      bounds
    end
