(* The bxwiki benchmark: boots the real server on a generated corpus,
   drives one workload against it from two keep-alive connections,
   checks every answer, and prints the end-to-end metrics.  With
   [--trace 1] it also replays the same op stream in-process against a
   [Service.t], timing each layer from outside, and prints the per-layer
   metrics instead.

     bxbench --workload browse|edit|lens_bulk --seed N --seconds S --trace 0|1

   Run from the root of a checkout after building [bin/bxwiki.exe];
   [perfbench/run.sh] does both.  The last line of standard output is
   the result object; the lines before it stamp the environment and
   report every metric, gated or not, by name and unit. *)

open Bx_load
module S = Bx_strlens.Slens
module CS = Bx_catalogue.Composers_string
module Service = Bx_server.Service

let now = Trace.now
let rs = "\x1e"
let us = "\x1f"

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec at i j = j = m || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  go 0

let split_once sep s =
  match String.index_opt s sep with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + du (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The first line a command prints, or [default] if it fails. *)
let command_line ~default prog args =
  match
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let line = In_channel.input_line ic in
    (Unix.close_process_in ic, line)
  with
  | Unix.WEXITED 0, Some l when String.trim l <> "" -> String.trim l
  | _ | (exception _) -> default

(* "VmHWM:	 14784 kB" and "write_bytes: 8192" alike. *)
let proc_field ~pid ~file ~field =
  match read_file (Printf.sprintf "/proc/%d/%s" pid file) with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match split_once ':' line with
             | Some (k, v) when k = field -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | n :: _ -> float_of_string_opt n
                 | [] -> None)
             | _ -> None)

let q hist p = float (Hist.quantile hist p)
let new_hist () = Hist.create ~sub_bits:10 ()

(* ------------------------------------------------------------------ *)
(* Workloads *)

type loop = Open of float  (** Poisson arrivals, req/s *) | Closed

type workload = {
  name : string;
  entries : int;  (** generated corpus size *)
  zipf : bool;  (** entry popularity Zipf(1) instead of uniform *)
  loop : loop;
  limit : float;  (** latency limit, seconds *)
  profile : Workload.profile;
  gated : bool;
      (** listed in BENCHMARK.json, so every run must report every gated
          metric; edit is not, because its latency spread on a 2-core
          host exceeds any allowed bound (METRICS.md) *)
}

(* Why these three: see perfbench/METRICS.md. *)
let workloads =
  let open Workload in
  [
    {
      name = "browse";
      entries = 2000;
      zipf = true;
      loop = Open 100.;
      limit = 0.05;
      gated = true;
      profile =
        {
          profile_name = "browse";
          mix =
            [
              (Entry_html, 40); (Entry_wiki, 12); (Entry_json, 10); (Index, 8);
              (Search, 12); (Slens_get, 10); (Slens_put, 3); (Slens_batch, 3);
              (Entry_write, 1);
            ];
        };
    };
    {
      name = "edit";
      entries = 200;
      zipf = false;
      loop = Open 40.;
      limit = 1.0;
      gated = false;
      profile =
        {
          profile_name = "edit";
          mix =
            [
              (Entry_write, 30); (Patch, 25); (Entry_html, 25); (Entry_wiki, 10);
              (Index, 5); (Search, 4); (Manuscript, 1);
            ];
        };
    };
    {
      name = "lens_bulk";
      entries = 200;
      zipf = false;
      loop = Closed;
      limit = 1.0;
      gated = true;
      profile =
        {
          profile_name = "lens_bulk";
          (* Slens_batch splits evenly into get_batch and put_batch. *)
          mix = [ (Slens_get, 40); (Slens_put, 40); (Slens_batch, 20) ];
        };
    };
  ]

let connections = 2
let warmup = 2.0
let setups = 15
let restarts = 5
let patch_doc_lines = 200
let bulk_records = 1000
let bulk_batch = 8

type cls = Read | Write | Lens

let cls_index = function Read -> 0 | Write -> 1 | Lens -> 2
let cls_name = function Read -> "read" | Write -> "write" | Lens -> "lens"
let classes = [ Read; Write; Lens ]

let cls_of_op = function
  | Workload.Entry_write | Patch -> Write
  | Slens_get | Slens_put | Slens_batch -> Lens
  | _ -> Read

(* ------------------------------------------------------------------ *)
(* Inputs *)

type expect =
  | Exact of string  (** the in-process engine's answer *)
  | Has of string  (** a substring the page must contain *)
  | Nonempty

type item = { op : Workload.op; req : Workload.request option; expect : expect }

(* What the engine answers for a lens request, computed in-process on
   the same body before the window opens. *)
let lens_answer path body =
  let l = CS.lens in
  let pair r =
    match split_once us.[0] r with
    | Some (v, s) -> l.S.put v s
    | None -> invalid_arg "put_batch record"
  in
  match Filename.basename path with
  | "get" -> l.S.get body
  | "put" -> (
      match split_once rs.[0] body with
      | Some (v, s) -> l.S.put v s
      | None -> invalid_arg "put body")
  | "get_batch" ->
      String.concat rs (List.map l.S.get (String.split_on_char rs.[0] body))
  | "put_batch" ->
      String.concat rs (List.map pair (String.split_on_char rs.[0] body))
  | op -> invalid_arg ("lens op " ^ op)

type inputs = {
  paths : string array;
  titles : (string, string) Hashtbl.t;  (** entry path -> title *)
  pick_entry : Prng.t -> string;
  answers : (string * string, string) Hashtbl.t;  (** memoised lens answers *)
  bulk_src : string array;  (** lens_bulk documents *)
  bulk_view : string array;
}

let zipf_picker ~seed paths =
  let n = Array.length paths in
  let perm = Array.copy paths in
  let p = Prng.of_int (seed lxor 0x5eed) in
  for i = n - 1 downto 1 do
    let j = Prng.int p (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i _ ->
      acc := !acc +. (1. /. float (i + 1));
      cdf.(i) <- !acc)
    cdf;
  let total = !acc in
  fun prng ->
    let u = Prng.float prng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    perm.(!lo)

let make_inputs wl ~seed =
  let paths = Corpus.wiki_paths ~entries:wl.entries ~seed in
  let titles = Hashtbl.create wl.entries in
  List.iteri
    (fun i (t : Bx_repo.Template.t) -> Hashtbl.replace titles paths.(i) t.title)
    (Corpus.generate ~entries:wl.entries ~seed);
  let pick_entry =
    if wl.zipf then zipf_picker ~seed paths
    else fun prng -> paths.(Prng.int prng (Array.length paths))
  in
  (* lens_bulk documents: bulk_records records, give or take 8, so every
     seed sends its own byte strings. *)
  let sizes =
    if wl.name <> "lens_bulk" then [||]
    else
      let p = Prng.of_int (seed * 977) in
      Array.init 8 (fun _ -> bulk_records - 8 + Prng.int p 17)
  in
  {
    paths;
    titles;
    pick_entry;
    answers = Hashtbl.create 64;
    bulk_src = Array.map CS.synthetic_source sizes;
    bulk_view = Array.map CS.synthetic_view sizes;
  }

let answer inputs (req : Workload.request) =
  let key = (req.path, req.body) in
  match Hashtbl.find_opt inputs.answers key with
  | Some a -> a
  | None ->
      let a = lens_answer req.path req.body in
      Hashtbl.replace inputs.answers key a;
      a

let bulk_request inputs prng (op : Workload.op) =
  let n = Array.length inputs.bulk_src in
  let one () = Prng.int prng n in
  let pair i = inputs.bulk_view.(i) ^ us ^ inputs.bulk_src.(i) in
  let path, body =
    match op with
    | Slens_get -> ("get", inputs.bulk_src.(one ()))
    | Slens_put ->
        let i = one () in
        ("put", inputs.bulk_view.(i) ^ rs ^ inputs.bulk_src.(i))
    | _ ->
        if Prng.int prng 2 = 0 then
          ( "get_batch",
            String.concat rs
              (List.init bulk_batch (fun _ -> inputs.bulk_src.(one ()))) )
        else
          ( "put_batch",
            String.concat rs (List.init bulk_batch (fun _ -> pair (one ()))) )
  in
  { Workload.meth = "POST"; path = "/slens/composers/" ^ path; body }

let plan_item wl inputs prng op =
  match (op : Workload.op) with
  | Patch -> { op; req = None; expect = Nonempty }
  | Slens_get | Slens_put | Slens_batch ->
      let req =
        if wl.name = "lens_bulk" then bulk_request inputs prng op
        else Workload.plan ~targets:inputs.paths prng op
      in
      { op; req = Some req; expect = Exact (answer inputs req) }
  | Entry_html | Entry_wiki | Entry_json | Entry_write ->
      let req = Workload.plan ~targets:[| inputs.pick_entry prng |] prng op in
      let page =
        List.fold_left
          (fun p suffix ->
            Option.value ~default:p (Filename.chop_suffix_opt ~suffix p))
          req.path [ ".wiki"; ".json" ]
      in
      let title = Hashtbl.find inputs.titles page in
      let title =
        if op = Entry_html then Bx_repo.Markup.html_escape title else title
      in
      { op; req = Some req; expect = Has title }
  | _ ->
      { op; req = Some (Workload.plan ~targets:inputs.paths prng op); expect = Nonempty }

(* Per-connection streams, all derived from the seed. *)
let conn_prng ~seed c = Prng.of_int ((seed * 7919) + c)

(* The open-loop schedule of one connection: half the rate each, so the
   two together are Poisson at the full rate. *)
let plan_open wl inputs ~seed ~rate ~span c =
  let rate = rate /. float connections in
  let count = int_of_float (span *. rate *. 1.5) + 100 in
  let offs =
    Arrival.schedule Arrival.Poisson ~rate
      ~seed:(Int64.of_int ((seed * 31) + c))
      ~count
  in
  let prng = conn_prng ~seed c in
  Array.to_list offs
  |> List.filter (fun o -> o < span)
  |> List.map (fun o -> (o, plan_item wl inputs prng (Workload.pick wl.profile prng)))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Executing one op against any transport *)

type state = {
  session : Workload.session;
  pprng : Prng.t;  (** patch edits *)
  docid : string;
  mutable view : string;  (** our own copy of the patched document's view *)
}

let initial_view = CS.lens.S.get (CS.synthetic_source patch_doc_lines)

let new_state ~seed c =
  let docid = Printf.sprintf "bench-%d-%d" seed c in
  {
    session = Workload.session ~docid ~doc_lines:patch_doc_lines;
    pprng = Prng.of_int ((seed * 104729) + c);
    docid;
    view = "";
  }

let bytes_ok expect body =
  match expect with
  | Exact s -> body = s
  | Has s -> contains body s
  | Nonempty -> body <> ""

type done_op = {
  outcome : Arith.outcome;
  acked : int;  (** body bytes of an acknowledged write *)
  lens_bytes : int;  (** body bytes of a correctly answered lens request *)
}

let fail outcome = { outcome; acked = 0; lens_bytes = 0 }

(* [send] is the transport: a live keep-alive connection, or the
   in-process service in the replay. *)
let exec st ~send item =
  let module A = Arith in
  let answered ?(acked = 0) ?(lens_bytes = 0) () =
    { outcome = A.Answered; acked; lens_bytes }
  in
  match (item.op, item.req) with
  | Workload.Patch, _ -> (
      let req = Workload.patch_plan st.session st.pprng in
      match send req with
      | Error _ ->
          Workload.patch_ack st.session ~status:0 ~body:"";
          fail A.Transport
      | Ok (status, body) -> (
          Workload.patch_ack st.session ~status ~body;
          match A.classify ~status ~bytes_ok:true with
          | A.Answered ->
              (if Filename.basename req.path = "patch" then
                 match String.split_on_char rs.[0] req.body with
                 | [ _; _; edit ] ->
                     st.view <-
                       Bx_strlens.Sdiff.apply st.view
                         (Result.get_ok (Bx_strlens.Sdiff.decode edit))
                 | _ -> invalid_arg "patch frame"
               else st.view <- initial_view);
              answered ~acked:(String.length req.body) ()
          | o -> fail o))
  | Entry_write, Some get -> (
      match send get with
      | Error _ -> fail A.Transport
      | Ok (status, body) -> (
          match A.classify ~status ~bytes_ok:(bytes_ok item.expect body) with
          | A.Answered -> (
              let post = Option.get (Workload.write_back get ~body) in
              match send post with
              | Error _ -> fail A.Transport
              | Ok (status, answer) -> (
                  match
                    A.classify ~status
                      ~bytes_ok:(contains answer "Saved as version")
                  with
                  | A.Answered -> answered ~acked:(String.length post.body) ()
                  | o -> fail o))
          | o -> fail o))
  | op, Some req -> (
      match send req with
      | Error _ -> fail A.Transport
      | Ok (status, body) -> (
          match A.classify ~status ~bytes_ok:(bytes_ok item.expect body) with
          | A.Answered ->
              answered
                ~lens_bytes:
                  (if cls_of_op op = Lens then String.length req.body else 0)
                ()
          | o -> fail o))
  | _, None -> invalid_arg "exec: unplanned item"

(* ------------------------------------------------------------------ *)
(* Live-run bookkeeping, one per connection, merged afterwards *)

type tally = {
  acc : Arith.tally;
  all : Hist.t;  (** latency, microseconds *)
  by_cls : Hist.t array;
  by_op : (string, Hist.t) Hashtbl.t;  (** latency per op, for the report *)
  late : Hist.t;  (** generator lateness, microseconds *)
  mutable http : int;  (** HTTP requests the measured ops issued *)
  mutable service_s : float;  (** their summed send-to-answer seconds *)
  mutable acked_bytes : int;
  mutable acked_writes : int;
  mutable lens_ok_bytes : int;
  mutable reconnects : int;
  mutable notes : string list;  (** the first few failures, for the log *)
}

let new_tally () =
  {
    acc = Arith.tally ();
    all = new_hist ();
    by_cls = Array.init 3 (fun _ -> new_hist ());
    by_op = Hashtbl.create 16;
    late = new_hist ();
    http = 0;
    service_s = 0.;
    acked_bytes = 0;
    acked_writes = 0;
    lens_ok_bytes = 0;
    reconnects = 0;
    notes = [];
  }

let merge_tallies ts =
  let m = new_tally () in
  List.fold_left
    (fun m t ->
      {
        acc = Arith.merge_tally m.acc t.acc;
        all = Hist.merge m.all t.all;
        by_cls = Array.map2 Hist.merge m.by_cls t.by_cls;
        by_op =
          (let h = Hashtbl.copy m.by_op in
           Hashtbl.iter
             (fun k v ->
               Hashtbl.replace h k
                 (match Hashtbl.find_opt h k with Some w -> Hist.merge v w | None -> v))
             t.by_op;
           h);
        late = Hist.merge m.late t.late;
        http = m.http + t.http;
        service_s = m.service_s +. t.service_s;
        acked_bytes = m.acked_bytes + t.acked_bytes;
        acked_writes = m.acked_writes + t.acked_writes;
        lens_ok_bytes = m.lens_ok_bytes + t.lens_ok_bytes;
        reconnects = m.reconnects + t.reconnects;
        notes = m.notes @ t.notes;
      })
    m ts

let note t msg = if List.length t.notes < 5 then t.notes <- t.notes @ [ msg ]

(* Count one measured op.  A failure misses the latency limit: it enters
   the histograms at no less than the limit. *)
let record wl t item (d : done_op) ~latency ~service ~late =
  let within = latency <= wl.limit in
  Arith.count t.acc d.outcome ~within_limit:within;
  let us_ x = int_of_float (x *. 1e6) in
  let lat = if d.outcome = Arith.Answered then latency else Float.max latency wl.limit in
  Hist.record t.all (us_ lat);
  Hist.record t.by_cls.(cls_index (cls_of_op item.op)) (us_ lat);
  (let name = Workload.op_name item.op in
   match Hashtbl.find_opt t.by_op name with
   | Some h -> Hist.record h (us_ lat)
   | None ->
       let h = new_hist () in
       Hist.record h (us_ lat);
       Hashtbl.replace t.by_op name h);
  Hist.record t.late (us_ late);
  t.http <- t.http + (if item.op = Workload.Entry_write then 2 else 1);
  t.service_s <- t.service_s +. service;
  if d.acked > 0 then begin
    t.acked_bytes <- t.acked_bytes + d.acked;
    t.acked_writes <- t.acked_writes + 1
  end;
  t.lens_ok_bytes <- t.lens_ok_bytes + d.lens_bytes;
  if d.outcome <> Arith.Answered then
    note t
      (Printf.sprintf "%s: %s" (Workload.op_name item.op)
         (Arith.outcome_name d.outcome))

let conn_send conn (req : Workload.request) =
  Conn.request conn ~meth:req.meth ~path:req.path ~body:req.body

(* [edge], when given, runs once on the connection just before its first
   measured op: the traced run scrapes the window's opening counters
   there, because every server worker is held by a load connection.

   Open loop: each op is timed from its scheduled arrival, so a stall
   also charges the wait it imposes on the ops queued behind it.
   Lateness is how long after both its arrival and the end of the
   previous op the generator actually sent. *)
let run_open wl ~port ~start ~edge st items =
  let t = new_tally () in
  let conn = Conn.create ~port in
  let free = ref start in
  let edge = ref edge in
  Array.iter
    (fun (off, item) ->
      if off >= warmup then begin
        Option.iter (fun f -> f conn) !edge;
        edge := None
      end;
      let due = start +. off in
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      let sent = now () in
      let d = exec st ~send:(conn_send conn) item in
      let fin = now () in
      if off >= warmup then
        record wl t item d ~latency:(fin -. due) ~service:(fin -. sent)
          ~late:(sent -. Float.max due !free);
      free := fin)
    items;
  t.reconnects <- Conn.reconnects conn;
  Conn.close conn;
  t

(* Closed loop: the next op is sent when the previous answer arrives;
   ops sent inside the measured window count, timed from send. *)
let run_closed wl inputs ~port ~start ~seconds ~edge st prng =
  let t = new_tally () in
  let conn = Conn.create ~port in
  let stop = start +. warmup +. seconds in
  let prev = ref start in
  let edge = ref edge in
  while now () < stop do
    if now () >= start +. warmup then begin
      Option.iter (fun f -> f conn) !edge;
      edge := None
    end;
    let item = plan_item wl inputs prng (Workload.pick wl.profile prng) in
    let sent = now () in
    let d = exec st ~send:(conn_send conn) item in
    let fin = now () in
    if sent >= start +. warmup then
      record wl t item d ~latency:(fin -. sent) ~service:(fin -. sent)
        ~late:(sent -. !prev);
    prev := fin
  done;
  t.reconnects <- Conn.reconnects conn;
  Conn.close conn;
  t

(* ------------------------------------------------------------------ *)
(* The server process *)

type server = { pid : int; port : int }

let live = ref []

let server_args wl ~seed ~port_file ~dir =
  [
    "--port"; "0"; "--port-file"; port_file; "--journal"; dir; "--shards"; "4";
    "--workers"; "2"; "--gen-entries"; string_of_int wl.entries; "--gen-seed";
    string_of_int seed; "--quiet";
  ]

let get ~port path =
  let c = Conn.create ~port in
  let r = Conn.request c ~meth:"GET" ~path ~body:"" in
  Conn.close c;
  r

(* Spawn bxwiki and wait for the first 200 from /readyz; returns the
   server and the seconds that took. *)
let boot ~bin ~run_dir wl ~seed ~dir =
  let port_file = Filename.concat run_dir "port" in
  if Sys.file_exists port_file then Sys.remove port_file;
  let log =
    Unix.openfile
      (Filename.concat run_dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process bin
      (Array.of_list (bin :: server_args wl ~seed ~port_file ~dir))
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let deadline = t0 +. 60. in
  let rec wait () =
    if now () > deadline then failwith "bxwiki did not become ready in 60 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "bxwiki exited during boot (see server.log)");
    let port =
      match read_file port_file with
      | s -> int_of_string_opt (String.trim s)
      | exception Sys_error _ -> None
    in
    match Option.map (fun port -> (port, get ~port "/readyz")) port with
    | Some (port, Ok (200, _)) -> port
    | _ ->
        Unix.sleepf 0.001;
        wait ()
  in
  let port = wait () in
  ({ pid; port }, now () -. t0)

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  live := List.filter (( <> ) srv.pid) !live

let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* ------------------------------------------------------------------ *)
(* Exported counters *)

let scrape conn =
  match Conn.request conn ~meth:"GET" ~path:"/metrics" ~body:"" with
  | Ok (200, text) -> Arith.parse_prom text
  | _ -> failwith "scraping /metrics failed"

let ratio a b = if b > 0. then a /. b else 0.

(* (name, value, unit) rows derived from the /metrics delta across the
   measured window. *)
let counter_rows ~delta ~client_mean_ms ~write_bytes ~acked_writes =
  let sum ?labels name = Arith.sum_series ?labels delta name in
  let lock l m = [ ("lock", l); ("mode", m) ] in
  let contended l m =
    ratio
      (sum ~labels:(lock l m) "bxwiki_lock_contended_total")
      (sum ~labels:(lock l m) "bxwiki_lock_acquisitions_total")
  in
  let routes =
    List.filter_map
      (fun (k, _) ->
        if Arith.series_name k = "bxwiki_request_duration_seconds_count" then
          Arith.label k "route"
        else None)
      delta
    |> List.filter (fun r -> r <> "metrics" && r <> "health")
    |> List.sort_uniq compare
  in
  let route_sum r =
    sum ~labels:[ ("route", r) ] "bxwiki_request_duration_seconds_sum"
  and route_count r =
    sum ~labels:[ ("route", r) ] "bxwiki_request_duration_seconds_count"
  in
  let server_mean_ms =
    1000.
    *. ratio
         (List.fold_left (fun a r -> a +. route_sum r) 0. routes)
         (List.fold_left (fun a r -> a +. route_count r) 0. routes)
  in
  let fast = sum ~labels:[ ("path", "fast") ] "bxwiki_delta_puts_total" in
  let hits = sum "bxwiki_cache_hits_total" in
  [
    ("httpd.transport_ms_mean", client_mean_ms -. server_mean_ms, "ms");
    ("service.shed", sum "bxwiki_shed_total", "count");
    ("respcache.hit_ratio", ratio hits (hits +. sum "bxwiki_cache_misses_total"), "ratio");
    ("lock.respcache.contended_ratio", contended "respcache" "all", "ratio");
    ("lock.registry_read.contended_ratio", contended "registry" "read", "ratio");
    ("lock.registry_write.contended_ratio", contended "registry" "write", "ratio");
    ( "journal.compactions",
      sum ~labels:[ ("result", "ok") ] "bxwiki_journal_compactions_total",
      "count" );
    ("shardlog.write_bytes_per_edit", ratio write_bytes (float acked_writes), "bytes");
    ("delta.fast_share", ratio fast (sum "bxwiki_delta_puts_total"), "ratio");
    ( "slens.splits_per_kb",
      ratio (sum "bxwiki_slens_splits_total")
        (sum "bxwiki_slens_bytes_processed_total" /. 1024.),
      "count/kB" );
  ]
  @ List.map
      (fun r -> ("service.route_ms." ^ r, 1000. *. ratio (route_sum r) (route_count r), "ms"))
      routes

(* ------------------------------------------------------------------ *)
(* The traced replay *)

let replay_config dir =
  {
    Service.default_config with
    journal_dir = Some dir;
    shards = 4;
    cache_shards = connections;
  }

(* The lens families bin/bxwiki mounts. *)
let standard_lenses =
  [
    ("composers", CS.lens);
    ("composers-by-name", CS.name_keyed_lens);
    ("composers-diff", CS.diff_lens);
    ("composers-positional", CS.positional_lens);
  ]

let replay_service wl ~seed ~dir =
  match
    Service.create ~config:(replay_config dir)
      ~lenses:(List.map (fun (n, l) -> (n, Trace.wrap_lens l)) standard_lenses)
      ~seed:(Corpus.seed_registry ~shards:4 ~entries:wl.entries ~seed)
      ()
  with
  | Ok s -> s
  | Error e -> failwith ("replay service: " ^ e)

let req_cls (req : Workload.request) =
  if req.meth = "GET" then Read
  else
    match String.split_on_char '/' req.path with
    | [ ""; "slens"; _; ("get" | "put" | "get_batch" | "put_batch") ] -> Lens
    | _ -> Write

let split_query path =
  match split_once '?' path with Some (p, q) -> (p, q) | None -> (path, "")

type pass = {
  calls : int array;  (** handle_query calls by class, spans off *)
  words : float array;  (** minor words by class, spans off *)
  mutable ops : int;
  mutable majors : int;
  mutable issued : (int * Workload.request) list;  (** newest first *)
  mutable compacting : float list;  (** handle_query of compacting writes *)
  mutable paired : float list;  (** per op: time with spans / time without *)
  mutable failures : int;
}

let compactions svc =
  Arith.sum_series ~labels:[ ("result", "ok") ]
    (Arith.parse_prom (Service.metrics_text svc))
    "bxwiki_journal_compactions_total"

(* Replay [stream] (op, connection) through two fresh in-process
   services side by side, one with spans off and one with spans on: each
   op runs on both, in alternating order, so the cost of recording spans
   is measured op by op and a host that slows down mid-replay slows both
   sides alike.  With spans on, each handle_query is a root span and the
   wrapped lenses nest inside it.  Stops after [budget] seconds. *)
let replay wl ~seed ~run_dir ~budget stream =
  let side spans =
    let dir = Filename.concat run_dir (if spans then "replay-on" else "replay-off") in
    (replay_service wl ~seed ~dir, Array.init connections (new_state ~seed), spans)
  in
  let off = side false and on = side true in
  let p =
    {
      calls = Array.make 3 0;
      words = Array.make 3 0.;
      ops = 0;
      majors = 0;
      issued = [];
      compacting = [];
      paired = [];
      failures = 0;
    }
  in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t_start = now () in
  let op_time = ref 0. in
  let send (svc, _, spans) (req : Workload.request) =
    let cls = req_cls req in
    let path, query = split_query req.path in
    let before = if spans && cls = Write then compactions svc else 0. in
    let w0 = Gc.minor_words () in
    Atomic.set Trace.enabled spans;
    let t0 = now () in
    let r =
      Trace.root ~rid:p.ops ~name:("service.handle_query." ^ cls_name cls)
        (fun () -> Service.handle_query svc ~query ~meth:req.meth ~path ~body:req.body)
    in
    let dt = now () -. t0 in
    Atomic.set Trace.enabled false;
    op_time := !op_time +. dt;
    let i = cls_index cls in
    if spans then begin
      if cls = Write && compactions svc > before then
        p.compacting <- dt :: p.compacting;
      p.issued <- (p.ops, req) :: p.issued
    end
    else begin
      p.words.(i) <- p.words.(i) +. (Gc.minor_words () -. w0);
      p.calls.(i) <- p.calls.(i) + 1
    end;
    Ok (r.Bx_repo.Webui.status, r.Bx_repo.Webui.body)
  in
  let run ((_, states, _) as sd) (item, c) =
    op_time := 0.;
    let d = exec states.(c) ~send:(send sd) item in
    if d.outcome <> Arith.Answered then p.failures <- p.failures + 1;
    !op_time
  in
  (try
     Seq.iter
       (fun op ->
         if now () -. t_start > budget then raise Exit;
         let t_off, t_on =
           if p.ops mod 2 = 0 then
             let a = run off op in
             (a, run on op)
           else
             let b = run on op in
             (run off op, b)
         in
         p.paired <- (t_on /. t_off) :: p.paired;
         p.ops <- p.ops + 1)
       stream
   with Exit -> ());
  p.majors <- (Gc.quick_stat ()).Gc.major_collections - majors0;
  List.iter (fun (svc, _, _) -> Service.close svc) [ off; on ];
  p

(* Query parameters of the fixed /search paths the workloads draw. *)
let registry_query query =
  let decode s =
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i < n then
        match s.[i] with
        | '%' when i + 2 < n ->
            Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
            go (i + 3)
        | '+' -> Buffer.add_char b ' '; go (i + 1)
        | c -> Buffer.add_char b c; go (i + 1)
    in
    go 0;
    Buffer.contents b
  in
  let params =
    List.filter_map
      (fun kv -> Option.map (fun (k, v) -> (k, decode v)) (split_once '=' kv))
      (String.split_on_char '&' query)
  in
  let p name = List.assoc_opt name params in
  Bx_repo.Registry.query
    ?cls:(Option.bind (p "class") Bx_repo.Template.class_of_name)
    ?property:(Option.bind (p "property") Bx.Properties.claim_of_name)
    ?author:(p "author") ?tag:(p "tag")
    ?state:(Option.bind (p "state") Bx_repo.Registry.state_of_name)
    ()

let serialize (req : Workload.request) =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
    req.meth req.path (String.length req.body) req.body

(* The shadow pass: each layer the replay cannot wrap, timed through its
   public function on the same inputs against shadow state. *)
let shadow wl ~seed ~dir issued =
  let reg = Corpus.seed_registry ~shards:4 ~entries:wl.entries ~seed () in
  let docs = Bx_server.Docstore.create ~lenses:standard_lenses in
  let log =
    match Bx_server.Shardlog.open_ ~dir ~shards:4 with
    | Ok (log, _) -> log
    | Error e -> failwith ("shadow shardlog: " ^ e)
  in
  let dfa = Bx_regex.Dfa.compile CS.lens.S.stype in
  let editor = Bx_repo.Curation.account ~role:Bx_repo.Curation.Curator "wiki" in
  let ok what = function Ok _ -> () | Error _ -> failwith ("shadow " ^ what) in
  let scan rid src =
    if
      not
        (Trace.shadow ~rid ~name:"dfa.scan" ~bytes:(String.length src) (fun () ->
             Bx_regex.Dfa.accepts dfa src))
    then failwith "shadow dfa: document rejected"
  in
  let append rid shard (req : Workload.request) =
    ok "append"
      (Trace.shadow ~rid ~name:"shardlog.append" (fun () ->
           Bx_server.Shardlog.append log ~shard ~path:req.path ~body:req.body))
  in
  List.iter
    (fun (rid, (req : Workload.request)) ->
      ignore
        (Trace.shadow ~rid ~name:"httpd.parse" (fun () ->
             Bx_server.Httpd.read_request
               (Bx_server.Httpd.reader_of_string (serialize req))));
      let path, query = split_query req.path in
      let render kind =
        ignore
          (Trace.shadow ~rid ~name:("webui.render." ^ kind) (fun () ->
               Bx_repo.Webui.handle ~query reg ~meth:"GET" ~path ~body:""))
      in
      match (req.meth, String.split_on_char '/' path) with
      | "GET", [ ""; "" ] -> render "index"
      | "GET", [ ""; "search" ] ->
          render "search";
          let rq = registry_query query in
          ignore
            (Trace.shadow ~rid ~name:"registry.search" (fun () ->
                 Bx_repo.Registry.search reg rq))
      | "GET", [ ""; "manuscript" ] -> render "manuscript"
      | "GET", _ ->
          render
            (if Filename.check_suffix path ".wiki" then "wiki"
             else if Filename.check_suffix path ".json" then "json"
             else "html")
      | _, [ ""; "slens"; _; ("get" | "get_batch") ] ->
          List.iter (scan rid) (String.split_on_char rs.[0] req.body)
      | _, [ ""; "slens"; _; "put" ] ->
          scan rid (snd (Option.get (split_once rs.[0] req.body)))
      | _, [ ""; "slens"; _; "put_batch" ] ->
          List.iter
            (fun r -> scan rid (snd (Option.get (split_once us.[0] r))))
            (String.split_on_char rs.[0] req.body)
      | _, [ ""; "slens"; lens; "doc"; docid ] ->
          scan rid req.body;
          ok "put_doc"
            (Bx_server.Docstore.put_doc docs ~lens ~docid ~source:req.body);
          append rid 0 req
      | _, [ ""; "slens"; lens; "patch" ] ->
          ok "patch"
            (Trace.shadow ~rid ~name:"docstore.patch" (fun () ->
                 Bx_server.Docstore.patch docs ~lens ~reverse:false req.body));
          append rid 0 req
      | _ ->
          let id = Option.get (Bx_repo.Webui.page_identifier path) in
          let current = Result.get_ok (Bx_repo.Registry.latest reg id) in
          let edited =
            Trace.shadow ~rid ~name:"sync.parse" (fun () ->
                Bx_repo.Sync.of_wiki_text ~fallback:current req.body)
            |> Result.get_ok
          in
          ok "revise"
            (Trace.shadow ~rid ~name:"registry.revise" (fun () ->
                 Bx_repo.Registry.revise reg ~as_:editor id edited));
          append rid (Bx_repo.Registry.shard_of_id reg id) req)
    issued;
  Bx_server.Shardlog.close log

(* ------------------------------------------------------------------ *)
(* Per-layer numbers from the spans and the two replay passes *)

let p50_of xs = if xs = [] then 0. else Arith.median xs

let layer_rows ~spans (p : pass) =
  let named = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace named s.name
        (s :: Option.value ~default:[] (Hashtbl.find_opt named s.name)))
    spans;
  let of_name n = Option.value ~default:[] (Hashtbl.find_opt named n) in
  let dur (s : Trace.span) = s.t1 -. s.t0 in
  let p50_us n = 1e6 *. p50_of (List.map dur (of_name n)) in
  let mb_s n =
    let ss = of_name n in
    ratio
      (float (List.fold_left (fun a (s : Trace.span) -> a + s.bytes) 0 ss))
      (List.fold_left (fun a s -> a +. dur s) 0. ss)
    /. 1e6
  in
  (* Root spans and the union of their nested spans. *)
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if s.parent <> 0 then
        Hashtbl.replace kids s.parent
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  let request = Hashtbl.create 64 in
  List.iter (fun (rid, req) -> Hashtbl.replace request rid req) p.issued;
  let roots =
    List.concat_map
      (fun c ->
        List.map
          (fun (s : Trace.span) ->
            let children = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
            let self = Arith.self_time ~t0:s.t0 ~t1:s.t1 children in
            let outside =
              List.exists (fun (a, b) -> a < s.t0 || b > s.t1) children
            in
            (c, s, self, outside))
          (of_name ("service.handle_query." ^ cls_name c)))
      classes
  in
  let roots_of c = List.filter (fun (c', _, _, _) -> c' = c) roots in
  let self_p50 rs = 1e6 *. p50_of (List.map (fun (_, _, self, _) -> self) rs) in
  let handle_p50 rs = 1e6 *. p50_of (List.map (fun (_, s, _, _) -> dur s) rs) in
  let batch =
    List.filter
      (fun (_, (s : Trace.span), _, _) ->
        match Hashtbl.find_opt request s.rid with
        | Some (req : Workload.request) ->
            List.mem (Filename.basename req.path) [ "get_batch"; "put_batch" ]
        | None -> false)
      (roots_of Lens)
  in
  let total a = Array.fold_left ( +. ) 0. a in
  let calls a = Array.fold_left ( + ) 0 a in
  let dfa = mb_s "dfa.scan" and get_mb = mb_s "slens.get" in
  let append = List.map dur (of_name "shardlog.append") in
  let universal =
    [
      ("httpd.parse_us_p50", p50_us "httpd.parse", "us");
      ("service.handle_us_p50", handle_p50 roots, "us");
      ("service.self_us_p50", self_p50 roots, "us");
      ("slens.get_us_p50", p50_us "slens.get", "us");
      ("dfa.scan_mb_s", dfa, "MB/s");
      ("slens.scan_gap", ratio dfa get_mb, "ratio");
      ("gc.minor_words_per_op", ratio (total p.words) (float (calls p.calls)), "words");
      ("gc.major_collections", float p.majors, "count");
      ("trace.overhead_share", p50_of p.paired -. 1., "ratio");
    ]
  in
  let by_class =
    List.concat_map
      (fun c ->
        let i = cls_index c in
        if p.calls.(i) = 0 then []
        else
          [
            ("service.handle_us_p50." ^ cls_name c, handle_p50 (roots_of c), "us");
            ("service.self_us_p50." ^ cls_name c, self_p50 (roots_of c), "us");
            ( "gc.minor_words_per_op." ^ cls_name c,
              p.words.(i) /. float p.calls.(i),
              "words" );
          ])
      classes
  in
  let when_seen name value unit =
    if of_name name = [] then [] else [ (name, value, unit) ]
  in
  let layer =
    List.concat_map
      (fun kind ->
        let n = "webui.render." ^ kind in
        when_seen n (p50_us n) "us"
        |> List.map (fun (_, v, u) -> ("webui.render_us_p50." ^ kind, v, u)))
      [ "html"; "wiki"; "json"; "index"; "search"; "manuscript" ]
    @ List.concat_map
        (fun n -> when_seen n (p50_us n) "us" |> List.map (fun (_, v, u) -> (n ^ "_us_p50", v, u)))
        [ "sync.parse"; "registry.search"; "registry.revise"; "shardlog.append";
          "docstore.patch"; "slens.put" ]
    @ (let count = List.length append in
       if Arith.reportable ~count ~pct:99 then
         let h = new_hist () in
         List.iter (fun d -> Hist.record h (int_of_float (d *. 1e6))) append;
         [ ("shardlog.append_us_p99", q h 0.99, "us") ]
       else [])
    @ (if batch = [] then []
       else [ ("slens.batch_fanout_ms_p50", self_p50 batch /. 1000., "ms") ])
    @ (if p.compacting = [] then []
       else
         [ ("service.write_compacting_ms_p50", 1000. *. p50_of p.compacting, "ms") ])
  in
  let outside = List.length (List.filter (fun (_, _, _, o) -> o) roots) in
  (universal, by_class @ layer, outside)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_finite v then
    let short = Printf.sprintf "%.15g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_metrics rows =
  json_obj
    (List.map
       (fun (n, v, u) ->
         (n, json_obj [ ("value", json_number v); ("unit", json_string u) ]))
       rows)

(* The end-to-end metrics BENCHMARK.json gates on: every gated workload
   reports them, and their run-to-run spread on a 2-core host stays
   inside their bounds (METRICS.md gives the spreads of the rest). *)
let gated = [ "setup_s"; "latency_p50_ms"; "goodput_rps"; "server_rss_mb" ]

(* The layer metrics both gated workloads (browse and lens_bulk) reach;
   BENCHMARK.json lists these as per_layer.  The rest go to the report
   line. *)
let layered =
  [
    "loadgen.late_ms_p99"; "loadgen.reconnects"; "httpd.parse_us_p50";
    "httpd.transport_ms_mean"; "service.handle_us_p50"; "service.self_us_p50";
    "service.shed"; "respcache.hit_ratio"; "lock.respcache.contended_ratio";
    "lock.registry_read.contended_ratio"; "lock.registry_write.contended_ratio";
    "journal.compactions"; "shardlog.write_bytes_per_edit"; "delta.fast_share";
    "service.handle_us_p50.lens"; "service.self_us_p50.lens"; "slens.get_us_p50";
    "slens.put_us_p50"; "slens.batch_fanout_ms_p50"; "slens.splits_per_kb";
    "dfa.scan_mb_s"; "slens.scan_gap"; "gc.minor_words_per_op";
    "gc.minor_words_per_op.lens"; "gc.major_collections"; "trace.overhead_share";
  ]

(* ------------------------------------------------------------------ *)
(* One run *)

let usage () =
  prerr_endline
    "usage: bxbench --workload browse|edit|lens_bulk --seed N --seconds S \
     --trace 0|1 [--server PATH]";
  exit 2

type check = { mutable checked : int; mutable mismatched : string list }

let run ~wl ~seed ~seconds ~trace ~bin ~run_dir =
  let inputs = make_inputs wl ~seed in
  let span = warmup +. seconds in
  let streams =
    match wl.loop with
    | Open rate -> Array.init connections (plan_open wl inputs ~seed ~rate ~span)
    | Closed -> [||]
  in
  let checks = { checked = 0; mismatched = [] } in
  let check ok what =
    checks.checked <- checks.checked + 1;
    if not ok then checks.mismatched <- checks.mismatched @ [ what ]
  in
  (* Set-up: boot on a fresh journal directory [setups] times. *)
  let jdir = Filename.concat run_dir "journal" in
  let boots =
    List.init setups (fun i ->
        rm_rf jdir;
        let srv, t = boot ~bin ~run_dir wl ~seed ~dir:jdir in
        if i < setups - 1 then kill srv;
        (srv, t))
  in
  let srv = fst (List.nth boots (setups - 1)) in
  let setup_s = Arith.median (List.map snd boots) in
  (* The measured window. *)
  let states = Array.init connections (new_state ~seed) in
  let start = now () +. 0.05 in
  let write_bytes () =
    Option.value ~default:0.
      (proc_field ~pid:srv.pid ~file:"io" ~field:"write_bytes")
  in
  let opening = ref None in
  let domains =
    Array.init connections (fun c ->
        let edge =
          if trace && c = 0 then
            Some (fun conn -> opening := Some (scrape conn, write_bytes ()))
          else None
        in
        Domain.spawn (fun () ->
            match wl.loop with
            | Open _ -> run_open wl ~port:srv.port ~start ~edge states.(c) streams.(c)
            | Closed ->
                run_closed wl inputs ~port:srv.port ~start ~seconds ~edge states.(c)
                  (conn_prng ~seed c)))
  in
  let t = merge_tallies (Array.to_list (Array.map Domain.join domains)) in
  let edge = !opening in
  let after =
    Option.map
      (fun _ ->
        let c = Conn.create ~port:srv.port in
        let m = scrape c in
        Conn.close c;
        (m, write_bytes ()))
      edge
  in
  let rss_mb =
    Option.value ~default:0. (proc_field ~pid:srv.pid ~file:"status" ~field:"VmHWM")
    /. 1024.
  in
  (* Checks after the window. *)
  Array.iter
    (fun st ->
      if st.view <> "" then
        check
          (match get ~port:srv.port ("/slens/composers/doc/" ^ st.docid ^ "?as=view") with
          | Ok (200, body) -> (
              match split_once rs.[0] body with
              | Some (_, v) -> v = st.view
              | None -> false)
          | _ -> false)
          ("patch session " ^ st.docid ^ " view"))
    states;
  if wl.loop <> Closed then begin
    let c = Conn.create ~port:srv.port in
    Array.iter
      (fun path ->
        let title = Bx_repo.Markup.html_escape (Hashtbl.find inputs.titles path) in
        check
          (match Conn.request c ~meth:"GET" ~path ~body:"" with
          | Ok (200, body) -> contains body title
          | _ -> false)
          ("entry page " ^ path))
      inputs.paths;
    Conn.close c
  end;
  let stored = float (du jdir) in
  (* Recovery: kill -9, restart on the same journal, compare digests. *)
  let digest srv =
    match get ~port:srv.port "/replication/digest" with
    | Ok (200, d) -> d
    | _ -> "unavailable"
  in
  let digest0 = digest srv in
  let srv = ref srv in
  let recoveries =
    List.init restarts (fun i ->
        kill !srv;
        let s, t = boot ~bin ~run_dir wl ~seed ~dir:jdir in
        srv := s;
        check (digest s = digest0) (Printf.sprintf "digest after restart %d" (i + 1));
        t)
  in
  kill !srv;
  let ms h p = q h p /. 1000. in
  let pct_rows name h =
    let count = Hist.total h in
    (if count > 0 then [ (name ^ "_p50_ms", ms h 0.5, "ms") ] else [])
    @ if Arith.reportable ~count ~pct:99 then [ (name ^ "_p99_ms", ms h 0.99, "ms") ] else []
  in
  let e2e =
    [ ("setup_s", setup_s, "s") ]
    @ pct_rows "latency" t.all
    @ List.concat_map (fun c -> pct_rows (cls_name c) t.by_cls.(cls_index c)) classes
    @ [
        ("goodput_rps", float t.acc.good /. seconds, "req/s");
        ("lens_mb_s", float t.lens_ok_bytes /. seconds /. 1e6, "MB/s");
        ("failed_share", Arith.failed_share t.acc, "ratio");
        ("recovery_s", Arith.median recoveries, "s");
        ("server_rss_mb", rss_mb, "MB");
      ]
    @
    if t.acked_bytes > 0 then
      [ ("stored_bytes_per_user_byte", stored /. float t.acked_bytes, "ratio") ]
    else []
  in
  (* The traced part: exported counters, then the in-process replay. *)
  let layers =
    match (edge, after) with
    | Some (m0, w0), Some (m1, w1) ->
        let delta = Arith.prom_delta ~before:m0 ~after:m1 in
        let counters =
          counter_rows ~delta
            ~client_mean_ms:(1000. *. ratio t.service_s (float t.http))
            ~write_bytes:(w1 -. w0) ~acked_writes:t.acked_writes
        in
        let stream =
          match wl.loop with
          | Open _ ->
              Array.to_list
                (Array.mapi (fun c s -> Array.to_list (Array.map (fun (o, it) -> (o, (it, c))) s)) streams)
              |> List.concat
              |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
              |> List.map snd |> List.to_seq
          | Closed ->
              let prngs = Array.init connections (conn_prng ~seed) in
              Seq.ints 0
              |> Seq.map (fun i ->
                     let c = i mod connections in
                     (plan_item wl inputs prngs.(c) (Workload.pick wl.profile prngs.(c)), c))
        in
        let p = replay wl ~seed ~run_dir ~budget:(Float.max 4. (seconds /. 2.)) stream in
        shadow wl ~seed ~dir:(Filename.concat run_dir "shadow") (List.rev p.issued);
        let spans = Trace.drain () in
        let universal, specific, outside = layer_rows ~spans p in
        check (outside = 0) "nested spans inside their root";
        check (p.failures = 0) "replayed answers";
        let gen =
          [
            ("loadgen.late_ms_p99", ms t.late 0.99, "ms");
            ("loadgen.reconnects", float t.reconnects, "count");
          ]
        in
        Some (gen @ universal @ counters @ specific, p.ops)
    | _ -> None
  in
  (t, checks, e2e, layers)

let env_stamp ~wl ~seed ~seconds ~trace ~bin ~run_dir =
  json_obj
    [
      ("nproc", json_string (command_line ~default:"unknown" "nproc" []));
      ( "git_rev",
        json_string
          (command_line ~default:"unknown" "sh" [ "-c"; "git rev-parse HEAD 2>/dev/null" ])
      );
      ("ocaml", json_string Sys.ocaml_version);
      ( "journal_fs",
        json_string (command_line ~default:"unknown" "stat" [ "-f"; "-c"; "%T"; run_dir ]) );
      ( "flush_policy",
        json_string
          (Printf.sprintf "fsync per acknowledged write, compact_every %d"
             Service.default_config.compact_every) );
      ( "server_flags",
        json_string
          (String.concat " "
             (bin :: server_args wl ~seed ~port_file:"PORT" ~dir:"JOURNAL")) );
      ("workload", json_string wl.name);
      ("seed", string_of_int seed);
      ("seconds", json_number seconds);
      ("trace", string_of_bool trace);
    ]

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref false in
  let bin = ref "_build/default/bin/bxwiki.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--server" :: v :: rest -> bin := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = match !seed with Some s when s >= 0 -> s | _ -> usage () in
  if not (Sys.file_exists !bin) then begin
    Printf.eprintf "bxbench: no server binary at %s (build bin/bxwiki.exe first)\n" !bin;
    exit 2
  end;
  let bin =
    if Filename.is_relative !bin then Filename.concat (Sys.getcwd ()) !bin else !bin
  in
  let base = ".perfbench" in
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  let run_dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        stop_all ();
        rm_rf run_dir;
        try Unix.rmdir base with Unix.Unix_error _ -> ())
      (fun () ->
        print_endline
          (json_obj
             [ ("env", env_stamp ~wl ~seed ~seconds:!seconds ~trace:!trace ~bin ~run_dir) ]);
        match run ~wl ~seed ~seconds:!seconds ~trace:!trace ~bin ~run_dir with
        | r -> Ok r
        | exception Failure e -> Error e)
  in
  match outcome with
  | Error e ->
      Printf.eprintf "bxbench: %s\n" e;
      exit 2
  | Ok (t, checks, e2e, layers) ->
      let correct = checks.mismatched = [] && t.acc.failed = 0 in
      let pick names rows = List.filter (fun (n, _, _) -> List.mem n names) rows in
      let report =
        [
          ("workload", json_string wl.name);
          ("end_to_end", json_metrics e2e);
          ( "outcomes",
            json_obj
              (List.map
                 (fun o ->
                   (Arith.outcome_name o, string_of_int t.acc.counts.(Arith.index o)))
                 Arith.[ Answered; Refused; Bad_status; Transport; Wrong_bytes ]) );
          ( "op_p50_ms",
            json_metrics
              (Hashtbl.fold
                 (fun op h acc -> (op, q h 0.5 /. 1000., "ms") :: acc)
                 t.by_op []
              |> List.sort compare) );
          ( "late_ms",
            json_obj
              [ ("p50", json_number (q t.late 0.5 /. 1000.));
                ("p99", json_number (q t.late 0.99 /. 1000.)) ] );
          ("checks", string_of_int checks.checked);
          ( "mismatches",
            "[" ^ String.concat ", " (List.map json_string checks.mismatched) ^ "]" );
          ("failures", "[" ^ String.concat ", " (List.map json_string t.notes) ^ "]");
        ]
        @
        match layers with
        | Some (rows, ops) -> [ ("per_layer", json_metrics rows); ("replayed_ops", string_of_int ops) ]
        | None -> []
      in
      print_endline (json_obj [ ("report", json_obj report) ]);
      let metrics =
        match layers with
        | Some (rows, _) -> pick layered rows
        | None -> pick gated e2e
      in
      let wanted = if !trace then layered else gated in
      let missing =
        List.filter (fun n -> not (List.exists (fun (m, _, _) -> m = n) metrics)) wanted
      in
      if missing <> [] && wl.gated then begin
        Printf.eprintf "bxbench: run too short to report %s\n" (String.concat ", " missing);
        exit 2
      end;
      List.iter (Printf.eprintf "bxbench: check failed: %s\n") checks.mismatched;
      List.iter (Printf.eprintf "bxbench: request failed: %s\n") t.notes;
      print_endline
        (json_obj
           [
             ("correct", string_of_bool correct);
             ("attempted", string_of_int (t.acc.attempted + checks.checked));
             ("failed", string_of_int (t.acc.failed + List.length checks.mismatched));
             ("metrics", json_metrics metrics);
           ]);
      if not correct then exit 1
