open Bx_regex

exception Split_error of string

let split_error fmt = Format.kasprintf (fun m -> raise (Split_error m)) fmt

(* ------------------------------------------------------------------ *)
(* The workspace: the suffix-mark scratch of the non-prefix-free star
   chunker (one byte per position, allocated on first use, grown
   geometrically, never shrunk) and the engine's
   split and chunk-outcome counters, owned by one lens execution and
   reused by every split it performs. *)

type chunk_counts = { mutable spliced : int; mutable put : int; mutable created : int }

type ws = {
  mutable suf : Bytes.t;
  mutable n_splits : int;  (* split decisions made since last harvest *)
  chunks : chunk_counts;  (* star put chunk outcomes since last harvest *)
}

let make_ws () =
  { suf = Bytes.empty; n_splits = 0; chunks = { spliced = 0; put = 0; created = 0 } }

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
   That licenses {e first-match} parsing: scan forward with each part's
   DFA and commit at the first position from which the rest of the
   slice can still be parsed.  Every scan reads the dense tables
   directly — one array load per byte. *)

(* A part of a concatenation chain as the descent reads it: its DFA's
   tables, the bytes that can start the rest of the chain after it, and
   whether that rest accepts the empty string.  The last part's rest is
   empty, so its scan only accepts at the end of the slice. *)
type part = {
  table : int array;
  accept : bool array;
  sink : int;
  first : bool array;
  rest_nullable : bool;
}

let parts_of regexes =
  let ds = Array.map Dfa.compile regexes in
  let k = Array.length ds in
  (* [starts.(i)]/[nullable.(i)]: the first bytes and nullability of
     parts [i ..]; a byte starts the chain when it leaves part [i]'s
     initial state for a live one, or part [i] may be empty and the byte
     starts parts [i+1 ..].  A superset is safe: it only admits a
     candidate that the descent then refutes. *)
  let starts = Array.make (k + 1) (Array.make 256 false) in
  let nullable = Array.make (k + 1) true in
  for i = k - 1 downto 0 do
    let d = ds.(i) in
    let empty_ok = Dfa.accepting d Dfa.initial in
    starts.(i) <-
      Array.init 256 (fun c ->
          Dfa.step d Dfa.initial (Char.chr c) <> Dfa.sink d
          || (empty_ok && starts.(i + 1).(c)));
    nullable.(i) <- empty_ok && nullable.(i + 1)
  done;
  Array.mapi
    (fun i d ->
      {
        table = Dfa.raw_table d;
        accept = Dfa.raw_accept d;
        sink = Dfa.sink d;
        first = starts.(i + 1);
        rest_nullable = nullable.(i + 1);
      })
    ds

(* The k-ary descent: the unique boundaries of [s[b .. stop)] against
   parts [i ..], recorded into [bounds].  Part [i] scans forward; a
   position is a candidate boundary only where the part accepts and the
   next byte can start the rest of the chain (or the slice ends and the
   rest is nullable).  A candidate past which the part cannot continue
   (its next state is the sink) is the part's last chance, so the
   descent commits to it as a tail call; any other candidate is tried
   and, if a later part refutes it, the scan resumes.  A well-typed
   slice thus costs about one table step per byte, and static
   unambiguity makes the first complete parse the only one. *)
let rec multi_parse parts bounds s stop i b =
  i = Array.length parts
  || begin
       bounds.(i) <- b;
       scan parts bounds s stop i (Array.unsafe_get parts i) Dfa.initial b
     end

and scan parts bounds s stop i p st j =
  if j = stop then
    Array.unsafe_get p.accept st && p.rest_nullable
    && multi_parse parts bounds s stop (i + 1) j
  else
    let c = Char.code (String.unsafe_get s j) in
    let next = Array.unsafe_get p.table ((st lsl 8) lor c) in
    if Array.unsafe_get p.accept st && Array.unsafe_get p.first c then
      if next = p.sink then multi_parse parts bounds s stop (i + 1) j
      else
        multi_parse parts bounds s stop (i + 1) j
        || scan parts bounds s stop i p next (j + 1)
    else next <> p.sink && scan parts bounds s stop i p next (j + 1)

(* The [k+1] boundaries of [s[pos .. pos+len)], or [[||]] if there is
   no parse. *)
let descend parts s pos len =
  let stop = pos + len in
  let bounds = Array.make (Array.length parts + 1) pos in
  bounds.(Array.length parts) <- stop;
  if multi_parse parts bounds s stop 0 pos then bounds else [||]

type multi_bounds = ws -> string -> int -> int -> int array

let make_multi_bounds regexes : multi_bounds =
  let regexes = Array.of_list regexes in
  let k = Array.length regexes in
  let parts = parts_of regexes in
  fun ws s pos len ->
    if k = 0 then begin
      if len <> 0 then
        split_error "%S against an empty concatenation"
          (sub_for_error s pos len);
      [| pos |]
    end
    else if k = 1 then [| pos; pos + len |]
    else begin
      let bounds = descend parts s pos len in
      if Array.length bounds = 0 then
        split_error "no split of %S against %a . ..." (sub_for_error s pos len)
          Regex.pp regexes.(0);
      ws.n_splits <- ws.n_splits + (k - 1);
      bounds
    end

(* ------------------------------------------------------------------ *)
(* Iteration: the unique chunking of a slice against the star of r.  The
   forward scan steps r's DFA chunk by chunk and closes a chunk at its
   first accepting position that can be a boundary.

   - A {e prefix-free} body (every accepting state steps only to the
     sink: no chunk word is a proper prefix of another) has exactly one
     such position per chunk, its first accepting one, so the forward
     scan alone finds the chunking or fails.
   - Any other body first runs one right-to-left pass with the reversed
     star's DFA over the original bytes (no reversed copy is built),
     marking the positions whose suffix is still in the star; a chunk
     closes at the first accepting position so marked.

   Either way the scan decides membership in the star exactly, which
   lets a star-rooted lens skip its separate type check. *)

(* The end of the chunk that starts in state [st] at [j], or -1.
   [marks] is [None] for a prefix-free body. *)
let rec chunk_end table accept sink marks pos s stop st j =
  if j = stop then -1
  else
    let st = Array.unsafe_get table ((st lsl 8) lor Char.code (String.unsafe_get s j)) in
    if st = sink then -1
    else if
      Array.unsafe_get accept st
      && match marks with None -> true | Some suf -> Bytes.unsafe_get suf (j + 1 - pos) = '\001'
    then j + 1
    else chunk_end table accept sink marks pos s stop st (j + 1)

type star_bounds = ws -> string -> int -> int -> int array

let make_star_bounds r : star_bounds =
  if Regex.nullable r then
    invalid_arg "make_star_bounds: body accepts the empty string";
  let d = Dfa.compile r in
  let table = Dfa.raw_table d in
  let accept = Dfa.raw_accept d in
  let sink = Dfa.sink d in
  let prefix_free =
    sink >= 0
    && List.for_all
         (fun st -> (not accept.(st)) || Array.for_all (( = ) sink) (Array.sub table (st lsl 8) 256))
         (List.init (Dfa.size d) Fun.id)
  in
  let dstar_rev =
    if prefix_free then None else Some (Dfa.compile (Regex.reverse (Regex.star r)))
  in
  let no_chunking s pos len =
    split_error "no chunking of %S against (%a)*" (sub_for_error s pos len) Regex.pp r
  in
  fun ws s pos len ->
    if len = 0 then [| pos |]
    else begin
      let marks =
        match dstar_rev with
        | None -> None
        | Some dr ->
            let suf = suf_scratch ws (len + 1) in
            let (_ : int) = Dfa.suffix_marks_sub dr s ~pos ~len ~into:suf in
            if Bytes.get suf 0 <> '\001' then
              split_error "%S does not belong to (%a)*" (sub_for_error s pos len)
                Regex.pp r;
            Some suf
      in
      let stop = pos + len in
      let bounds = ref (Array.make 16 0) in
      let nb = ref 1 in
      !bounds.(0) <- pos;
      let i = ref pos in
      while !i < stop do
        let e = chunk_end table accept sink marks pos s stop Dfa.initial !i in
        if e < 0 then no_chunking s pos len;
        if !nb >= Array.length !bounds then begin
          let bigger = Array.make (2 * Array.length !bounds) 0 in
          Array.blit !bounds 0 bigger 0 !nb;
          bounds := bigger
        end;
        !bounds.(!nb) <- e;
        incr nb;
        ws.n_splits <- ws.n_splits + 1;
        i := e
      done;
      Array.sub !bounds 0 !nb
    end
