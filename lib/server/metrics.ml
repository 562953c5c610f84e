module Hist = Bx_obs.Hist

(* ------------------------------------------------------------------ *)
(* Families and per-domain shards *)

type family = {
  id : int; (* keys the cells *)
  name : string;
  help : string; (* "" for a companion series printed without a preamble *)
  kind : string; (* counter | gauge | histogram *)
  labels : string list;
  read : (unit -> (string list * float) list) option; (* sampled at scrape *)
}

type cell = Count of { mutable n : int } | Dist of Hist.t

module Cells = Map.Make (struct
  type t = int * string list
  let compare (a, la) (b, lb) = if a <> b then Int.compare a b else List.compare String.compare la lb
end)

(* A domain's cells, written only by that domain.  A new series
   publishes a new map (the old one is never mutated), so a scraper
   walks a fixed snapshot while the owner keeps inserting. *)
type shard = cell Cells.t Atomic.t

type t = {
  key : shard Domain.DLS.key;
  shards : shard list Atomic.t;
  sampled : family list Atomic.t; (* newest first *)
  compaction_ok : bool Atomic.t;
}

let rec push a x =
  let l = Atomic.get a in
  if not (Atomic.compare_and_set a l (x :: l)) then push a x

let next_id = Atomic.make 0

let family ?read ?(labels = []) ?(kind = "counter") name help =
  { id = Atomic.fetch_and_add next_id 1; name; help; kind; labels; read }

let sample t ?(kind = "gauge") ?labels name ~help read =
  push t.sampled (family ~read ?labels ~kind name help)

(* The calling domain's cell for one series.  Publishing retries on a
   lost race, which only systhreads sharing the domain can cause. *)
let cell t f labels fresh =
  let shard = Domain.DLS.get t.key and key = (f.id, labels) in
  let rec find () =
    let m = Atomic.get shard in
    match Cells.find key m with
    | c -> c
    | exception Not_found ->
        let c = fresh () in
        if Atomic.compare_and_set shard m (Cells.add key c m) then c else find ()
  in
  find ()

let add t f ?(labels = []) n =
  match cell t f labels (fun () -> Count { n = 0 }) with
  | Count c -> c.n <- c.n + n
  | Dist _ -> invalid_arg "Metrics.add: histogram family"

(* ------------------------------------------------------------------ *)
(* Declarations, in exposition order *)

let declared = ref []

(* Families are named without the common [bxwiki_] prefix. *)
let declare ?labels ?kind name help =
  let f = family ?labels ?kind ("bxwiki_" ^ name) help in
  declared := f :: !declared;
  f

let lens = [ "lens"; "op" ] and surface = [ "surface" ]
let requests =
  declare "requests_total" ~labels:[ "route"; "method"; "status" ]
    "Requests handled, by route class, method and status."
let errors =
  declare "http_errors_total" ~labels:[ "route"; "reason" ] "Error responses and protocol failures."
let duration =
  declare "request_duration_seconds" ~kind:"histogram" ~labels:[ "route" ] "Request handling time."
let lens_ops = declare "lens_requests_total" ~labels:lens "Lens operations served, by lens and operation."
let lens_docs = declare "lens_documents_total" ~labels:lens ""
let lens_bytes = declare "lens_request_bytes_total" ~labels:lens ""
let hits = declare "cache_hits_total" "Rendered-page cache hits."
let misses = declare "cache_misses_total" "Rendered-page cache misses."
let torn_tails = declare "journal_torn_tail_total" "Journal recoveries that truncated a torn tail."
let crc_errors =
  declare "journal_crc_errors_total" "Journal records rejected by checksum during recovery."
let compactions =
  declare "journal_compactions_total" ~labels:[ "result" ] "Snapshot compactions, by outcome."
let sheds =
  declare "shed_total" ~labels:[ "reason" ] "Connections shed by overload protection, by reason."
let stale_served =
  declare "stale_served_total" "Responses served from the respcache past their generation (brownout)."
let stale_lag =
  declare "stale_generation_lag_total" "Cumulative generation lag across stale responses."
let repl name help = declare ("replication_" ^ name) help
let streamed_records = repl "streamed_records_total" "Journal records served to followers."
let streamed_bytes = repl "streamed_bytes_total" "Frame bytes served to followers."
let applied = repl "applied_records_total" "Streamed records applied by this replica."
let reconnects = repl "reconnects_total" "Follower reconnect attempts after a failed poll."
let bootstraps =
  repl "snapshot_bootstraps_total" "Full snapshot installs performed to catch up across a compaction."
let epoch_rejects = repl "epoch_rejects_total" "Stream batches rejected for carrying a stale epoch."
let gaps =
  repl "gaps_total" "Sequence gaps detected in the applied stream (each triggers a snapshot re-bootstrap)."
let digest_checks =
  repl "digest_checks_total" "Anti-entropy digest comparisons performed against the upstream."
let digest_mismatches =
  repl "digest_mismatches_total" "Digest comparisons that found at least one diverged shard."
let resyncs =
  repl "shard_resyncs_total" "Targeted per-shard re-bootstraps performed after a digest mismatch."
let scrub_passes = declare "scrub_passes_total" "Complete scrubber walks over the store."
let scrub_items =
  declare "scrub_items_total" ~labels:surface "Items examined by the scrubber, by surface."
let scrub_corruptions =
  declare "scrub_corruptions_total" ~labels:surface "Corruptions the scrubber found, by surface."
let declared = List.rev !declared

let create () =
  let shards = Atomic.make [] in
  let key = Domain.DLS.new_key (fun () -> let s = Atomic.make Cells.empty in push shards s; s) in
  let t = { key; shards; sampled = Atomic.make []; compaction_ok = Atomic.make true } in
  List.iter (fun r -> add t compactions ~labels:[ r ] 0) [ "ok"; "error" ];
  sample t "bxwiki_journal_last_compaction_ok"
    ~help:"Whether the most recent compaction succeeded (1 until one fails)."
    (fun () -> [ ([], if Atomic.get t.compaction_ok then 1. else 0.) ]);
  t

(* Latency bucket bounds in seconds, log-spaced from a cache hit to the
   /checks sweep. *)
let buckets =
  [| 0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5 |]
let ns s = int_of_float (Float.round (s *. 1e9))

let observe_request t ~route ~meth ~status ~seconds =
  add t requests ~labels:[ route; meth; string_of_int status ] 1;
  if status >= 400 then add t errors ~labels:[ route; "status_" ^ string_of_int status ] 1;
  match cell t duration [ route ] (fun () -> Dist (Hist.create ())) with
  | Dist h -> Hist.record h (ns seconds)
  | Count _ -> assert false

let protocol_error t ~route ~reason = add t errors ~labels:[ route; reason ] 1
let cache_hit t = add t hits 1
let cache_miss t = add t misses 1
let shed t ~reason = add t sheds ~labels:[ reason ] 1
let journal_recovery t ~torn ~crc_errors:n = add t torn_tails (Bool.to_int torn); add t crc_errors n
let stale_response t ~gen_lag = add t stale_served 1; add t stale_lag (max 0 gen_lag)

let observe_lens t ~lens ~op ~docs ~bytes =
  let labels = [ lens; op ] in
  add t lens_ops ~labels 1;
  add t lens_docs ~labels docs;
  add t lens_bytes ~labels bytes

let compaction t ~ok =
  add t compactions ~labels:[ (if ok then "ok" else "error") ] 1;
  Atomic.set t.compaction_ok ok

let replication_streamed t ~records ~bytes = add t streamed_records records; add t streamed_bytes bytes
let replication_digest_check t ~matched =
  add t digest_checks 1; add t digest_mismatches (Bool.to_int (not matched))

let replication_applied t ~records = add t applied records
let replication_reconnect t = add t reconnects 1
let replication_snapshot_bootstrap t = add t bootstraps 1
let replication_epoch_reject t = add t epoch_rejects 1
let replication_gap t = add t gaps 1
let replication_shard_resync t = add t resyncs 1
let scrub_pass t = add t scrub_passes 1
let scrub_item t ~surface ~n = add t scrub_items ~labels:[ surface ] n
let scrub_corruption t ~surface = add t scrub_corruptions ~labels:[ surface ] 1

(* ------------------------------------------------------------------ *)
(* Reading and exposition *)

let sum_counts =
  List.fold_left (fun acc -> function Count c -> acc + c.n | Dist h -> acc + Hist.count_le h max_int) 0

(* Every shard's cells, grouped by series, sorted by family then labels. *)
let merged t =
  List.fold_left
    (fun acc shard ->
      Cells.fold
        (fun k c -> Cells.update k (fun l -> Some (c :: Option.value l ~default:[])))
        (Atomic.get shard) acc)
    Cells.empty (Atomic.get t.shards)

let series_of cells f =
  Cells.to_seq_from (f.id, []) cells
  |> Seq.take_while (fun ((id, _), _) -> id = f.id)
  |> Seq.map (fun ((_, ls), cs) -> (ls, cs))
  |> List.of_seq

(* The one reader behind the introspection calls: a family's total, or one series'. *)
let total ?labels t f =
  List.fold_left
    (fun acc (ls, cs) ->
      if Option.fold ~none:true ~some:(( = ) ls) labels then acc + sum_counts cs else acc)
    0 (series_of (merged t) f)

let requests_total t = total t requests
let errors_total t = total t errors
let cache_counts t = (total t hits, total t misses)
let shed_by_reason t reason = total t sheds ~labels:[ reason ]
let stale_counts t = (total t stale_served, total t stale_lag)
let journal_recovery_counts t = (total t torn_tails, total t crc_errors)
let scrub_counts t = (total t scrub_passes, total t scrub_items, total t scrub_corruptions)

(* Prometheus numbers: integers without a dot, "0.0001" not "1e-04". *)
let number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%g" v

let render t =
  let b = Buffer.create 8192 and cells = merged t in
  let line name names values v =
    let labels = String.concat "," (List.map2 (Printf.sprintf "%s=%S") names values) in
    Printf.bprintf b "%s%s %s\n" name (if labels = "" then "" else "{" ^ labels ^ "}") v
  in
  (* Cumulative [le] counts read off the shards' histograms in bound
     order, so they never decrease even while domains record. *)
  let histogram f ls cs =
    let hs = List.filter_map (function Dist h -> Some h | Count _ -> None) cs in
    let le v = List.fold_left (fun acc h -> acc + Hist.count_le h v) 0 hs in
    let bucket bound n = line (f.name ^ "_bucket") (f.labels @ [ "le" ]) (ls @ [ bound ]) n in
    Array.iter (fun s -> bucket (number s) (string_of_int (le (ns s)))) buckets;
    let n = string_of_int (le max_int) in
    bucket "+Inf" n;
    let sum = List.fold_left (fun acc h -> acc + Hist.sum h) 0 hs in
    line (f.name ^ "_sum") f.labels ls (number (float_of_int sum *. 1e-9));
    line (f.name ^ "_count") f.labels ls n
  in
  let family f =
    if f.help <> "" then
      Printf.bprintf b "# HELP %s %s\n# TYPE %s %s\n" f.name f.help f.name f.kind;
    match (f.read, series_of cells f) with
    | Some read, _ -> List.iter (fun (ls, v) -> line f.name f.labels ls (number v)) (read ())
    | None, [] when f.labels = [] -> line f.name [] [] "0"
    | None, series ->
        List.iter
          (fun (ls, cs) ->
            if f.kind = "histogram" then histogram f ls cs
            else line f.name f.labels ls (string_of_int (sum_counts cs)))
          series
  in
  List.iter family declared;
  List.iter family (List.rev (Atomic.get t.sampled));
  Buffer.contents b
