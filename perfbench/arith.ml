(* The benchmark's own arithmetic, kept free of I/O so the test suite can
   pin it: span self time, Prometheus text deltas, the p99 reporting
   rule and failure accounting. *)

(* ------------------------------------------------------------------ *)
(* Span self time *)

(* Length of the union of [intervals] clipped to [lo, hi].  Children of
   a batch request run on several domains at once, so they overlap; the
   union, not the sum, is the part of the parent they cover. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

let self_time ~t0 ~t1 children = t1 -. t0 -. covered ~lo:t0 ~hi:t1 children

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition *)

(* Every sample line as (series, value), where the series is the metric
   name with its label block verbatim:
     bxwiki_lock_contended_total{lock="registry",mode="read"} 3 *)
let parse_prom text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               let key = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some v -> Some (String.trim key, v)
               | None -> None))

(* [after - before] per series; a series absent from [before] (first
   observed during the window) counts from zero. *)
let prom_delta ~before ~after =
  List.map
    (fun (k, v) ->
      (k, v -. Option.value ~default:0. (List.assoc_opt k before)))
    after

let series_name key =
  match String.index_opt key '{' with
  | None -> key
  | Some i -> String.sub key 0 i

let label key name =
  let marker = name ^ "=\"" in
  let n = String.length key and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub key i m = marker then
      let start = i + m in
      Option.map
        (fun stop -> String.sub key start (stop - start))
        (String.index_from_opt key start '"')
    else find (i + 1)
  in
  find 0

(* Sum of the series named [name] whose labels include every pair of
   [labels]. *)
let sum_series ?(labels = []) samples name =
  List.fold_left
    (fun acc (k, v) ->
      if
        series_name k = name
        && List.for_all (fun (l, want) -> label k l = Some want) labels
      then acc +. v
      else acc)
    0. samples

(* ------------------------------------------------------------------ *)
(* Percentiles *)

(* Samples strictly above the [pct]-th percentile's rank
   ceil(pct/100 * count) — the rank {!Bx_load.Hist.quantile} reports. *)
let beyond ~count ~pct = count - (((count * pct) + 99) / 100)

(* A percentile is reported only with at least ten samples beyond it:
   p99 needs 1000 samples, p50 needs 20. *)
let reportable ~count ~pct = count > 0 && beyond ~count ~pct >= 10

(* Median of a non-empty list. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Arith.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Failure accounting *)

type outcome =
  | Answered  (** 2xx with the right bytes *)
  | Refused  (** 503 shed or 504 deadline *)
  | Bad_status  (** any other non-2xx, 409 included *)
  | Transport  (** the connection failed before an answer arrived *)
  | Wrong_bytes  (** 2xx, but not the bytes the check expects *)

let outcome_name = function
  | Answered -> "answered"
  | Refused -> "refused"
  | Bad_status -> "bad_status"
  | Transport -> "transport"
  | Wrong_bytes -> "wrong_bytes"

let classify ~status ~bytes_ok =
  if status >= 200 && status < 300 then
    if bytes_ok then Answered else Wrong_bytes
  else if status = 503 || status = 504 then Refused
  else Bad_status

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable good : int;  (** answered within the latency limit *)
  counts : int array;  (** indexed by outcome *)
}

let tally () = { attempted = 0; failed = 0; good = 0; counts = Array.make 5 0 }

let index = function
  | Answered -> 0
  | Refused -> 1
  | Bad_status -> 2
  | Transport -> 3
  | Wrong_bytes -> 4

(* Count one request.  Every outcome but [Answered] is a failure, and a
   failure misses the latency limit whatever its latency. *)
let count t outcome ~within_limit =
  t.attempted <- t.attempted + 1;
  t.counts.(index outcome) <- t.counts.(index outcome) + 1;
  if outcome = Answered then (if within_limit then t.good <- t.good + 1)
  else t.failed <- t.failed + 1

let merge_tally a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    good = a.good + b.good;
    counts = Array.map2 ( + ) a.counts b.counts;
  }

let failed_share t =
  if t.attempted = 0 then 0. else float t.failed /. float t.attempted
