(* DFAs over interned regexes, compiled to dense byte->state tables.

   [table] is a flat array of 256 * n ints: the successor of state [i] on
   byte [c] lives at [(i lsl 8) lor c], so [step], [run_from],
   [prefix_marks] and [accepts] are single array reads per byte.  The
   class-based view ([class_trans]) is kept alongside for the algorithms
   that want character classes rather than bytes (BFS, minimisation
   regrouping, GNFA state elimination).

   [sink] caches the index of the state with the empty residual language
   (-1 when every state accepts some continuation): matching and the
   splitter scans bail out as soon as they reach it. *)

type t = {
  state_labels : Regex.t array;
  class_trans : (Cset.t * int) list array;
  table : int array;
  accept : bool array;
  sink : int;
}

let initial = 0

(* Fill the dense table row of state [i] from its class transitions. *)
let fill_row table i outgoing =
  List.iter
    (fun (cls, j) ->
      Cset.iter_codes (fun c -> table.((i lsl 8) lor c) <- j) cls)
    outgoing

let find_sink state_labels =
  let n = Array.length state_labels in
  let rec find i =
    if i >= n then -1
    else if Regex.equal state_labels.(i) Regex.empty then i
    else find (i + 1)
  in
  find 0

let build root =
  let ids = Hashtbl.create 64 in
  let labels = ref [] and count = ref 0 in
  let id_of r =
    match Hashtbl.find_opt ids (Regex.id r) with
    | Some i -> (i, false)
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add ids (Regex.id r) i;
        labels := r :: !labels;
        (i, true)
  in
  let trans_tbl = Hashtbl.create 64 in
  let rec explore r =
    let i, fresh = id_of r in
    if fresh then begin
      let classes = Regex.derivative_classes r in
      let outgoing =
        List.filter_map
          (fun cls ->
            match Cset.choose cls with
            | None -> None
            | Some c ->
                let r' = Regex.deriv c r in
                let j = explore r' in
                Some (cls, j))
          classes
      in
      Hashtbl.replace trans_tbl i outgoing
    end;
    i
  in
  let _root_id = explore root in
  let n = !count in
  let state_labels = Array.make n Regex.empty in
  List.iteri (fun k r -> state_labels.(n - 1 - k) <- r) !labels;
  let class_trans = Array.make n [] in
  let accept = Array.make n false in
  let table = Array.make (n * 256) 0 in
  for i = 0 to n - 1 do
    class_trans.(i) <- Hashtbl.find trans_tbl i;
    accept.(i) <- Regex.nullable state_labels.(i);
    fill_row table i class_trans.(i)
  done;
  { state_labels; class_trans; table; accept; sink = find_sink state_labels }

(* ------------------------------------------------------------------ *)
(* The compilation cache: one DFA per interned regex, keyed by id.  Lens
   combinators re-derive the same sub-regexes at every nesting level
   (concat_list, separated, the union/compose type checks), so compiling
   through the cache makes construction cost proportional to the number
   of distinct regexes instead of the number of uses. *)

let cache : (int, t) Hashtbl.t = Hashtbl.create 256
let cache_lock = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

let with_cache_lock f =
  Mutex.lock cache_lock;
  match f () with
  | v ->
      Mutex.unlock cache_lock;
      v
  | exception e ->
      Mutex.unlock cache_lock;
      raise e

let compile r =
  let key = Regex.id r in
  match
    with_cache_lock (fun () ->
        match Hashtbl.find_opt cache key with
        | Some d ->
            incr cache_hits;
            Some d
        | None ->
            incr cache_misses;
            None)
  with
  | Some d -> d
  | None ->
      let d = build r in
      with_cache_lock (fun () ->
          match Hashtbl.find_opt cache key with
          | Some d' -> d' (* a concurrent build won the race *)
          | None ->
              Hashtbl.add cache key d;
              d)

let cache_stats () = (!cache_hits, !cache_misses)

let cache_clear () =
  with_cache_lock (fun () ->
      Hashtbl.reset cache;
      cache_hits := 0;
      cache_misses := 0)

(* ------------------------------------------------------------------ *)
(* Running *)

let size d = Array.length d.state_labels
let regex_of_state d i = d.state_labels.(i)
let states d = d.state_labels
let transitions d i = d.class_trans.(i)
let sink d = d.sink
let step d i c = d.table.((i lsl 8) lor Char.code c)
let accepting d i = d.accept.(i)

(* The inner loops use unsafe accesses: [st] ranges over [0, n) by
   construction (the table is total) and the index fits the table by the
   row layout. *)

let run_from_sub d i s ~pos ~len =
  let table = d.table in
  let st = ref i in
  for k = pos to pos + len - 1 do
    st :=
      Array.unsafe_get table
        ((!st lsl 8) lor Char.code (String.unsafe_get s k))
  done;
  !st

let run_from d i s = run_from_sub d i s ~pos:0 ~len:(String.length s)

let accepts_sub d s ~pos ~len =
  let table = d.table in
  let sink = d.sink in
  let st = ref initial in
  let i = ref pos in
  let stop = pos + len in
  while !i < stop && !st <> sink do
    st :=
      Array.unsafe_get table
        ((!st lsl 8) lor Char.code (String.unsafe_get s !i));
    incr i
  done;
  !st <> sink && d.accept.(!st)

let accepts d s = accepts_sub d s ~pos:0 ~len:(String.length s)

(* Slice mark passes write into caller-provided scratch ([Bytes], one
   byte per position, 1 = marked) so a lens execution can reuse the same
   two buffers for every split it performs. *)

let prefix_marks_sub d s ~pos ~len ~into =
  let table = d.table in
  let accept = d.accept in
  let sink = d.sink in
  let st = ref initial in
  Bytes.unsafe_set into 0 (if Array.unsafe_get accept initial then '\001' else '\000');
  let i = ref 0 in
  while !i < len && !st <> sink do
    st :=
      Array.unsafe_get table
        ((!st lsl 8) lor Char.code (String.unsafe_get s (pos + !i)));
    Bytes.unsafe_set into (!i + 1)
      (if Array.unsafe_get accept !st then '\001' else '\000');
    incr i
  done;
  (* Once the sink is reached no later prefix can be accepted; blank the
     tail so reused scratch never shows stale marks. *)
  if !i < len then Bytes.fill into (!i + 1) (len - !i) '\000';
  !i

(* [suffix_marks_sub d s ~pos ~len ~into] expects [d] to recognise the
   REVERSAL of the language of interest and runs it right to left over
   the original bytes — no reversed copy of the string is ever built.
   After the call, [into.(i) = 1] iff [s[pos+i .. pos+len)] belongs to
   the (unreversed) language. *)
let suffix_marks_sub d s ~pos ~len ~into =
  let table = d.table in
  let accept = d.accept in
  let sink = d.sink in
  let st = ref initial in
  Bytes.unsafe_set into len
    (if Array.unsafe_get accept initial then '\001' else '\000');
  let i = ref (len - 1) in
  while !i >= 0 && !st <> sink do
    st :=
      Array.unsafe_get table
        ((!st lsl 8) lor Char.code (String.unsafe_get s (pos + !i)));
    Bytes.unsafe_set into !i
      (if Array.unsafe_get accept !st then '\001' else '\000');
    decr i
  done;
  if !i >= 0 then Bytes.fill into 0 (!i + 1) '\000';
  !i + 1

let prefix_marks d s =
  let n = String.length s in
  let scratch = Bytes.create (n + 1) in
  let (_ : int) = prefix_marks_sub d s ~pos:0 ~len:n ~into:scratch in
  Array.init (n + 1) (fun i -> Bytes.get scratch i = '\001')

(* Raw views of the dense tables, for the splitter inner loops: a chunk
   scan steps the automaton once per byte and a cross-module call per
   byte would dominate it. *)
let raw_table d = d.table
let raw_accept d = d.accept

let is_empty_lang d = not (Array.exists Fun.id d.accept)

(* Rebuild a string from a reversed path of characters in one pass. *)
let string_of_rev_path path =
  let len = List.length path in
  let b = Bytes.create len in
  List.iteri (fun k c -> Bytes.set b (len - 1 - k) c) path;
  Bytes.unsafe_to_string b

let shortest_accepted d =
  let n = size d in
  let visited = Array.make n false in
  let queue = Queue.create () in
  (* Paths are kept newest-character-first; a single reversed write per
     witness replaces the former quadratic List.nth reconstruction. *)
  Queue.add (initial, []) queue;
  visited.(initial) <- true;
  let rec bfs () =
    if Queue.is_empty queue then None
    else
      let i, path = Queue.take queue in
      if accepting d i then Some (string_of_rev_path path)
      else begin
        List.iter
          (fun (cls, j) ->
            if not visited.(j) then begin
              visited.(j) <- true;
              match Cset.choose cls with
              | Some c -> Queue.add (j, c :: path) queue
              | None -> ()
            end)
          d.class_trans.(i);
        bfs ()
      end
  in
  bfs ()

(* ------------------------------------------------------------------ *)
(* Minimisation: Moore partition refinement over the dense tables.
   Blocks are refined by acceptance and by the block each byte leads to,
   until stable.  Signatures are read straight off the byte table — no
   per-byte list scans. *)

let minimise d =
  let n = size d in
  if n = 0 then d
  else begin
    let table = d.table in
    let block = Array.init n (fun i -> if d.accept.(i) then 1 else 0) in
    (* If all states agree on acceptance there is a single block. *)
    let normalise () =
      (* Renumber blocks densely in order of first occurrence. *)
      let mapping = Hashtbl.create 8 in
      let next = ref 0 in
      Array.iteri
        (fun i b ->
          match Hashtbl.find_opt mapping b with
          | Some b' -> block.(i) <- b'
          | None ->
              Hashtbl.add mapping b !next;
              block.(i) <- !next;
              incr next)
        block;
      !next
    in
    let count = ref (normalise ()) in
    let changed = ref true in
    while !changed do
      changed := false;
      (* Signature of a state: its block plus the blocks of all 256 byte
         successors, read directly from the dense table. *)
      let signatures = Hashtbl.create n in
      let next_sig = ref 0 in
      let new_block = Array.make n 0 in
      for i = 0 to n - 1 do
        let key = Array.make 257 block.(i) in
        for c = 0 to 255 do
          key.(c + 1) <- block.(table.((i lsl 8) lor c))
        done;
        match Hashtbl.find_opt signatures key with
        | Some b -> new_block.(i) <- b
        | None ->
            Hashtbl.add signatures key !next_sig;
            new_block.(i) <- !next_sig;
            incr next_sig
      done;
      if !next_sig <> !count then begin
        changed := true;
        count := !next_sig;
        Array.blit new_block 0 block 0 n
      end
    done;
    let block_count = normalise () in
    (* Reindex so the block of the old initial state is 0. *)
    let initial_block = block.(initial) in
    let rename b =
      if b = initial_block then 0 else if b < initial_block then b + 1 else b
    in
    Array.iteri (fun i b -> block.(i) <- rename b) block;
    (* Representative state of each block. *)
    let repr = Array.make block_count (-1) in
    Array.iteri (fun i b -> if repr.(b) < 0 then repr.(b) <- i) block;
    let state_labels = Array.map (fun r -> d.state_labels.(r)) repr in
    let accept = Array.map (fun r -> d.accept.(r)) repr in
    let table' = Array.make (block_count * 256) 0 in
    let class_trans =
      Array.mapi
        (fun b r ->
          (* Targets per byte, then group bytes by target block into
             maximal character sets. *)
          let by_target = Hashtbl.create 4 in
          for c = 0 to 255 do
            let t = block.(table.((r lsl 8) lor c)) in
            table'.((b lsl 8) lor c) <- t;
            let ranges =
              Option.value ~default:[] (Hashtbl.find_opt by_target t)
            in
            Hashtbl.replace by_target t ((Char.chr c, Char.chr c) :: ranges)
          done;
          Hashtbl.fold
            (fun t ranges acc -> (Cset.of_ranges ranges, t) :: acc)
            by_target []
          |> List.sort compare)
        repr
    in
    (* The block of the old sink is exactly the set of empty-residual
       states (they are Myhill-Nerode equivalent), so it remains the
       sink. *)
    let sink = if d.sink < 0 then -1 else block.(d.sink) in
    { state_labels; class_trans; table = table'; accept; sink }
  end

(* GNFA state elimination.  Two virtual states are added: a start S with
   an epsilon edge to state 0, and an accept F with epsilon edges from
   every accepting state.  Eliminating a state k replaces every path
   i -> k -> j by the regex R(i,k) R(k,k)* R(k,j), merged into R(i,j). *)
let to_regex d =
  let n = size d in
  if n = 0 then Regex.empty
  else begin
    let start = n and final = n + 1 in
    let edges : (int * int, Regex.t) Hashtbl.t = Hashtbl.create 64 in
    let get i j = Hashtbl.find_opt edges (i, j) in
    let add i j r =
      match get i j with
      | None -> Hashtbl.replace edges (i, j) r
      | Some r0 -> Hashtbl.replace edges (i, j) (Regex.alt r0 r)
    in
    for i = 0 to n - 1 do
      List.iter (fun (cls, j) -> add i j (Regex.cset cls)) d.class_trans.(i);
      if d.accept.(i) then add i final Regex.epsilon
    done;
    add start 0 Regex.epsilon;
    let states = List.init n Fun.id in
    List.iter
      (fun k ->
        let loop =
          match get k k with None -> Regex.epsilon | Some r -> Regex.star r
        in
        let sources =
          Hashtbl.fold
            (fun (i, j) r acc -> if j = k && i <> k then (i, r) :: acc else acc)
            edges []
        in
        let targets =
          Hashtbl.fold
            (fun (i, j) r acc -> if i = k && j <> k then (j, r) :: acc else acc)
            edges []
        in
        List.iter
          (fun (i, rin) ->
            List.iter
              (fun (j, rout) -> add i j (Regex.seq rin (Regex.seq loop rout)))
              targets)
          sources;
        (* Remove every edge touching k. *)
        Hashtbl.iter
          (fun (i, j) _ -> if i = k || j = k then Hashtbl.remove edges (i, j))
          (Hashtbl.copy edges))
      states;
    match get start final with None -> Regex.empty | Some r -> r
  end

(* The complemented automaton: same transitions, accepting states
   flipped.  State labels are kept verbatim and no longer denote the
   states' residual languages; the former sink now accepts everything,
   so the sink shortcut is disabled.  Use the result only where labels
   are not consulted (matching, minimisation, to_regex). *)
let complement d = { d with accept = Array.map not d.accept; sink = -1 }

(* Route Regex.matches through the compiled engine: one cached DFA per
   interned regex, then a dense-table scan. *)
let () = Regex.set_matcher (fun r s -> accepts (compile r) s)
