type spec = {
  port : int;
  profile : Workload.profile;
  pacing : Arrival.pacing;
  rate : float;
  domains : int;
  warmup : float;
  duration : float;
  seed : int;
  targets : string array;
}

type lock_row = {
  lock : string;
  mode : string;
  acquisitions : int;
  contended : int;
}

type result = {
  res_profile : string;
  res_pacing : string;
  res_rate : float;
  res_domains : int;
  res_wall : float;
  sent : int;
  ok : int;
  shed : int;
  failed : int;
  transport : int;
  reconnects : int;
  throughput : float;
  latency : Bx_obs.Hist.t;
  locks : lock_row list;
  domain_failures : string list;
}

(* ------------------------------------------------------------------ *)
(* Scraping the server's lock counters *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* One bxwiki_lock_* exposition line:
     bxwiki_lock_acquisitions_total{lock="registry",mode="read"} 42 *)
let parse_lock_line line =
  let label name =
    let marker = name ^ "=\"" in
    match find_sub line marker with
    | None -> None
    | Some i ->
        let start = i + String.length marker in
        String.index_from_opt line start '"'
        |> Option.map (fun stop -> String.sub line start (stop - start))
  in
  let value =
    match String.rindex_opt line ' ' with
    | Some i ->
        int_of_string_opt
          (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
    | None -> None
  in
  match (label "lock", label "mode", value) with
  | Some lock, Some mode, Some v -> Some (lock, mode, v)
  | _ -> None

let scrape_locks ~port =
  let conn = Conn.create ~port in
  let result =
    match Conn.request conn ~meth:"GET" ~path:"/metrics" ~body:"" with
    | Error e -> Error ("scraping /metrics: " ^ e)
    | Ok (status, _) when status <> 200 ->
        Error (Printf.sprintf "scraping /metrics: HTTP %d" status)
    | Ok (_, body) ->
        let acq = Hashtbl.create 8 and cont = Hashtbl.create 8 in
        String.split_on_char '\n' body
        |> List.iter (fun line ->
               let has prefix =
                 String.length line >= String.length prefix
                 && String.sub line 0 (String.length prefix) = prefix
               in
               match parse_lock_line line with
               | Some (lock, mode, v) ->
                   if has "bxwiki_lock_acquisitions_total" then
                     Hashtbl.replace acq (lock, mode) v
                   else if has "bxwiki_lock_contended_total" then
                     Hashtbl.replace cont (lock, mode) v
               | None -> ());
        Ok
          (Hashtbl.fold
             (fun (lock, mode) acquisitions rows ->
               let contended =
                 Option.value ~default:0 (Hashtbl.find_opt cont (lock, mode))
               in
               { lock; mode; acquisitions; contended } :: rows)
             acq []
          |> List.sort compare)
  in
  Conn.close conn;
  result

let lock_delta ~before ~after =
  List.map
    (fun a ->
      match
        List.find_opt (fun b -> b.lock = a.lock && b.mode = a.mode) before
      with
      | Some b ->
          {
            a with
            acquisitions = a.acquisitions - b.acquisitions;
            contended = a.contended - b.contended;
          }
      | None -> a)
    after

(* ------------------------------------------------------------------ *)
(* One client domain *)

type domain_tally = {
  hist : Bx_obs.Hist.t;
  mutable d_sent : int;
  mutable d_ok : int;
  mutable d_shed : int;
  mutable d_failed : int;
  mutable d_transport : int;
  mutable d_reconnects : int;
}

(* Drive one domain's slice of the schedule.  [start] is the shared
   absolute epoch: arrival [i] is due at [start +. offsets.(i)], and a
   request's latency is measured from that instant even if this domain
   was still busy with the previous request when it came due — that
   backlog IS the number being measured. *)
let run_domain ~spec ~start ~offsets ~dseed () =
  let prng = Prng.of_int dseed in
  let conn = Conn.create ~port:spec.port in
  (* One patch session per domain: one document, one writer, so patch
     generations only go stale across a lost response. *)
  let session =
    Workload.session
      ~docid:(Printf.sprintf "load-%d" (dseed land 0xFFFFFF))
      ~doc_lines:200
  in
  let tally =
    {
      hist = Bx_obs.Hist.create ();
      d_sent = 0;
      d_ok = 0;
      d_shed = 0;
      d_failed = 0;
      d_transport = 0;
      d_reconnects = 0;
    }
  in
  let record_status tally status =
    if status >= 200 && status < 300 then tally.d_ok <- tally.d_ok + 1
    else if status = 503 then tally.d_shed <- tally.d_shed + 1
    else tally.d_failed <- tally.d_failed + 1
  in
  Array.iter
    (fun off ->
      let scheduled = start +. off in
      let now = Bx_obs.Clock.now () in
      if scheduled > now then Unix.sleepf (scheduled -. now);
      let op = Workload.pick spec.profile prng in
      let req =
        match op with
        | Workload.Patch -> Workload.patch_plan session prng
        | _ -> Workload.plan ~targets:spec.targets prng op
      in
      let outcome =
        match Conn.request conn ~meth:req.Workload.meth ~path:req.Workload.path
                ~body:req.Workload.body
        with
        | Error e ->
            if op = Workload.Patch then
              Workload.patch_ack session ~status:0 ~body:"";
            Error e
        | Ok (status, body) when op = Workload.Patch ->
            Workload.patch_ack session ~status ~body;
            Ok status
        | Ok (status, body) when status >= 200 && status < 300 -> (
            (* A write's opening GET succeeded: post the text back. *)
            match Workload.write_back req ~body with
            | None -> Ok status
            | Some post -> (
                match
                  Conn.request conn ~meth:post.Workload.meth
                    ~path:post.Workload.path ~body:post.Workload.body
                with
                | Ok (status, _) -> Ok status
                | Error e -> Error e))
        | Ok (status, _) -> Ok status
      in
      if off >= spec.warmup then begin
        tally.d_sent <- tally.d_sent + 1;
        (match outcome with
        | Ok status -> record_status tally status
        | Error _ -> tally.d_transport <- tally.d_transport + 1);
        let latency_us =
          int_of_float ((Bx_obs.Clock.now () -. scheduled) *. 1e6)
        in
        Bx_obs.Hist.record tally.hist latency_us
      end)
    offsets;
  tally.d_reconnects <- Conn.reconnects conn;
  Conn.close conn;
  tally

(* ------------------------------------------------------------------ *)
(* The run: schedule, fan out, merge, diff the server's lock counters *)

let per_domain f xs =
  let spawn x =
    Domain.spawn (fun () ->
        match f x with
        | v -> Ok v
        | exception e -> Error (Printexc.to_string e))
  in
  List.map Domain.join (List.map spawn xs)

let run spec =
  if Array.length spec.targets = 0 then Error "no target entries"
  else if spec.domains < 1 then Error "need at least one client domain"
  else if spec.rate <= 0. then Error "rate must be positive"
  else
    match scrape_locks ~port:spec.port with
    | Error e -> Error ("server not reachable: " ^ e)
    | Ok _ ->
        let root = Prng.of_int spec.seed in
        let per_rate = spec.rate /. float_of_int spec.domains in
        let horizon = spec.warmup +. spec.duration in
        let slices =
          List.init spec.domains (fun d ->
              let dseed = Int64.to_int (Prng.next root) land max_int in
              let count =
                int_of_float (ceil (per_rate *. horizon)) |> max 1
              in
              let offsets =
                Arrival.schedule spec.pacing ~rate:per_rate
                  ~seed:(Int64.of_int (dseed + d))
                  ~count
              in
              (dseed, offsets))
        in
        let start = Bx_obs.Clock.now () +. 0.05 in
        (* Counters scraped at the warmup boundary and again after the
           domains drain: the delta brackets (approximately) the
           measured phase.  The scrape itself is two /metrics requests
           riding alongside the load. *)
        let before = ref (Error "warmup scrape never ran") in
        let scraper =
          Domain.spawn (fun () ->
              let boundary = start +. spec.warmup in
              let now = Bx_obs.Clock.now () in
              if boundary > now then Unix.sleepf (boundary -. now);
              before := scrape_locks ~port:spec.port)
        in
        (* A crashed client domain becomes an Error row, not an aborted
           run: the other domains' work is kept. *)
        let outcomes =
          per_domain
            (fun (dseed, offsets) -> run_domain ~spec ~start ~offsets ~dseed ())
            slices
        in
        Domain.join scraper;
        let after = scrape_locks ~port:spec.port in
        let wall = Bx_obs.Clock.now () -. (start +. spec.warmup) in
        let tallies = List.filter_map Result.to_option outcomes in
        let domain_failures =
          List.filter_map
            (function Ok _ -> None | Error e -> Some e)
            outcomes
        in
        if tallies = [] then
          Error
            ("every client domain crashed: "
            ^ String.concat "; " domain_failures)
        else begin
          let latency =
            List.fold_left
              (fun acc t -> Bx_obs.Hist.merge acc t.hist)
              (Bx_obs.Hist.create ()) tallies
          in
          let sum f = List.fold_left (fun a t -> a + f t) 0 tallies in
          let ok = sum (fun t -> t.d_ok) in
          let locks =
            match (!before, after) with
            | Ok b, Ok a -> lock_delta ~before:b ~after:a
            | _ -> []
          in
          Ok
            {
              res_profile = spec.profile.Workload.profile_name;
              res_pacing = Arrival.pacing_name spec.pacing;
              res_rate = spec.rate;
              res_domains = spec.domains;
              res_wall = wall;
              sent = sum (fun t -> t.d_sent);
              ok;
              shed = sum (fun t -> t.d_shed);
              failed = sum (fun t -> t.d_failed);
              transport = sum (fun t -> t.d_transport);
              reconnects = sum (fun t -> t.d_reconnects);
              throughput = (if wall > 0. then float_of_int ok /. wall else 0.);
              latency;
              locks;
              domain_failures;
            }
        end

(* ------------------------------------------------------------------ *)
(* BENCH_load.json *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let result_json buf indent r =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let pad = String.make indent ' ' in
  let q p = Bx_obs.Hist.quantile r.latency p in
  add "%s{ \"profile\": \"%s\", \"pacing\": \"%s\", \"domains\": %d,\n" pad
    (json_escape r.res_profile) (json_escape r.res_pacing) r.res_domains;
  add "%s  \"offered_rate_rps\": %.1f, \"measured_s\": %.2f,\n" pad r.res_rate
    r.res_wall;
  add "%s  \"sent\": %d, \"ok\": %d, \"shed_503\": %d, \"errors\": %d,\n" pad
    r.sent r.ok r.shed r.failed;
  add "%s  \"transport_errors\": %d, \"reconnects\": %d,\n" pad r.transport
    r.reconnects;
  add "%s  \"throughput_rps\": %.1f,\n" pad r.throughput;
  add
    "%s  \"latency_us\": { \"p50\": %d, \"p90\": %d, \"p99\": %d, \"p999\": \
     %d, \"max\": %d, \"mean\": %.1f },\n"
    pad (q 0.5) (q 0.9) (q 0.99) (q 0.999)
    (Bx_obs.Hist.max_value r.latency)
    (Bx_obs.Hist.mean r.latency);
  add "%s  \"domain_failures\": [%s],\n" pad
    (String.concat ", "
       (List.map (fun f -> "\"" ^ json_escape f ^ "\"") r.domain_failures));
  add "%s  \"locks\": [" pad;
  List.iteri
    (fun i l ->
      add "%s{ \"lock\": \"%s\", \"mode\": \"%s\", \"acquisitions\": %d, \
           \"contended\": %d }"
        (if i = 0 then "" else ", ")
        (json_escape l.lock) (json_escape l.mode) l.acquisitions l.contended)
    r.locks;
  add "] }"

let to_json ~results ~scaling ~warmup ~duration ~entries ~seed =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"suite\": \"bxwiki loadgen\",\n";
  add "  \"open_loop\": true,\n";
  add "  \"latency_reference\": \"scheduled arrival (coordinated omission \
       corrected)\",\n";
  (* Bench honesty: what the host actually offers, next to what the run
     actually used. *)
  add "  \"cores_available\": %d,\n" (Domain.recommended_domain_count ());
  add "  \"warmup_s\": %.1f,\n" warmup;
  add "  \"duration_s\": %.1f,\n" duration;
  add "  \"corpus_entries\": %d,\n" entries;
  add "  \"corpus_seed\": %d,\n" seed;
  add "  \"profiles\": [\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i r ->
      result_json buf 4 r;
      add "%s\n" (if i = last then "" else ","))
    results;
  add "  ],\n";
  add "  \"scaling\": [\n";
  let last = List.length scaling - 1 in
  List.iteri
    (fun i r ->
      result_json buf 4 r;
      add "%s\n" (if i = last then "" else ","))
    scaling;
  add "  ]\n";
  add "}\n";
  Buffer.contents buf
