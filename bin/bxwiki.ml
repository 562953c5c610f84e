(* bxwiki — the repository served as an actual wiki.

   A thin CLI over Bx_server.Service: the service owns the sockets,
   worker pool, journal, cache and metrics; this file parses flags,
   mounts the /checks page, and wires SIGTERM to a graceful shutdown
   (drain, snapshot, exit). *)

let usage () =
  prerr_endline
    "usage: bxwiki [PORT] [--port PORT] [--journal DIR] [--shards N]\n\
    \              [--workers N] [--port-file FILE] [--compact-every N]\n\
    \              [--failpoints SPEC] [--chaos SPEC] [--gen-entries N]\n\
    \              [--gen-seed S] [--scrub-rate N] [--quiet]\n\
    \       bxwiki replica --replicate-from [HOST:]PORT [--port PORT]\n\
    \              [--journal DIR] [--shards N] [--workers N]\n\
    \              [--port-file FILE] [--lag-threshold S] [--poll-wait S]\n\
    \              [--compact-every N] [--failpoints SPEC] [--chaos SPEC]\n\
    \              [--quiet]\n\
    \       bxwiki client [--port PORT] [--port-file FILE] [--retries N]\n\
    \              [--max-sleep S] [--deadline MS] [--fallback [HOST:]PORT]\n\
    \              [--data BODY] [--body-file FILE] METH PATH\n\
    \       bxwiki scrub --journal DIR [--shards N] [--gen-entries N]\n\
    \              [--gen-seed S] [--quiet]\n\
    \       bxwiki gen --entries N [--seed S] [--format titles|paths|wiki]\n\
    \       bxwiki loadgen [--port PORT] [--port-file FILE] [--rate RPS]\n\
    \              [--warmup S] [--duration S] [--domains N]\n\
    \              [--profile read-heavy|write-heavy|search-heavy|\n\
    \                          patch-heavy|all]\n\
    \              [--pacing MODE]\n\
    \              [--entries N] [--seed S] [--scaling 1,2,4,8]\n\
    \              [--scaling-rate RPS] [--out FILE]\n\n\
     --port 0 binds an ephemeral port (written to --port-file).\n\
     With --journal DIR every accepted edit is fsync'd to DIR/journal.log\n\
     before the response is sent, and restarts replay it on top of\n\
     DIR/snapshot; without it, state is in-process only.\n\
     --shards N partitions the registry into N identifier-hashed shards,\n\
     each with its own lock, journal segment and snapshot; the count is\n\
     part of the on-disk layout, so reopen a journal directory with the\n\
     same --shards (a single-segment directory is laid out for 1; any\n\
     other count is refused), and give replicas the same --shards as\n\
     their primary.\n\
     --failpoints arms the fault-injection subsystem (site=ACTION;...)\n\
     and mounts the PUT /debug/failpoints admin route, as does setting\n\
     BXWIKI_FAILPOINTS in the environment.\n\
     --chaos arms the network-chaos layer (proxy=TOXIC+...;...) and\n\
     mounts PUT /debug/chaos, as does setting BXWIKI_CHAOS; with chaos\n\
     armed a replica dials its primary through an in-process toxic\n\
     proxy named 'upstream', so partitions and latency storms can be\n\
     aimed at the replication link alone.\n\n\
     'bxwiki replica' runs a hot-standby read replica: it follows the\n\
     primary's journal stream (--replicate-from), serves reads, answers\n\
     503 to writes, reports replication lag on /readyz and /metrics, and\n\
     becomes the writable primary on POST /admin/promote.\n\n\
     'bxwiki client' issues one request and retries on 503 and on\n\
     connect/read timeouts with capped exponential backoff and\n\
     decorrelated jitter, honouring Retry-After; the response body goes\n\
     to stdout, and the exit status is 0 only for a 2xx.  A per-target\n\
     circuit breaker (closed/open/half-open with probes) is consulted\n\
     before every attempt, so a dead server fails fast instead of\n\
     eating the retry budget.  With --fallback, a GET that exhausts its\n\
     retries against the primary is retried against the fallback (reads\n\
     fail over, writes never do).  --deadline MS stamps each attempt\n\
     with the remaining budget (X-Bxwiki-Deadline); the server sheds\n\
     work whose budget has lapsed with a 504.  A response served stale\n\
     under brownout (X-Bxwiki-Stale) is noted on stderr.\n\n\
     --gen-entries seeds the server with N generated corpus entries on\n\
     top of the catalogue (deterministic in --gen-seed); 'bxwiki gen'\n\
     prints the same corpus.\n\n\
     --scrub-rate N runs a background scrubber domain that re-verifies\n\
     N items/second: journal record CRCs, snapshot checksums against\n\
     their DIGESTS manifests, entry round-trip laws, and document\n\
     view/source agreement.  Findings are quarantined — entries serve\n\
     under a Warning header, documents answer 410 — and counted at\n\
     /metrics (bxwiki_scrub_*, bxwiki_quarantine_*).  'bxwiki scrub'\n\
     runs one unmetered pass offline over a journal directory and exits\n\
     1 if anything is corrupt.\n\n\
     'bxwiki loadgen' drives a live server open-loop: arrivals are\n\
     scheduled in advance (--pacing constant|poisson) and latency is\n\
     measured from the scheduled instant, so queueing delay is not\n\
     averaged away by coordinated omission.  Give the server at least\n\
     as many --workers as --domains (keep-alive pins a connection to a\n\
     worker) and the same --entries/--seed it booted with.  --scaling\n\
     re-runs the read-heavy profile at each domain count and records\n\
     the server's lock-contention deltas; --out writes BENCH_load.json.\n\
     The patch-heavy profile ships single-line edits to lens-backed\n\
     documents via POST /slens/composers/patch (each client domain owns\n\
     one document), exercising the incremental delta-propagation path.";
  exit 2

(* "[HOST:]PORT" — the host is resolved to loopback (the service only
   binds loopback); what matters is the port. *)
let parse_hostport ~flag v fail =
  let port_part =
    match String.rindex_opt v ':' with
    | Some i -> String.sub v (i + 1) (String.length v - i - 1)
    | None -> v
  in
  match int_of_string_opt port_part with
  | Some p when p > 0 -> p
  | _ -> fail (flag ^ " wants [HOST:]PORT, got " ^ v)

(* --port beats --port-file beats the default.  A server started moments
   ago may not have written its port file yet; wait for it like we wait
   for the socket. *)
let resolve_port ~port ~port_file ~fail =
  match (port, port_file) with
  | Some p, _ -> p
  | None, Some f ->
      let rec resolve tries =
        match
          if Sys.file_exists f then int_of_string_opt (String.trim (Bx_repo.Fsio.read_file f))
          else None
        with
        | Some p -> p
        | None when tries > 0 ->
            Unix.sleepf 0.1;
            resolve (tries - 1)
        | None -> fail ("unreadable port file " ^ f)
      in
      resolve 100
  | None, None -> 8008

(* ------------------------------------------------------------------ *)
(* The retrying client.  The cram tests (and any script poking a
   possibly-overloaded or failpoint-riddled server) use this instead of
   curl: a 503 or a timeout is not an error, it is a reason to back off
   and try again. *)

(* A per-target circuit breaker: closed (attempts flow), open (fail fast
   until a cooldown lapses, entered after [threshold] consecutive
   failures), half-open (exactly one probe; success closes, failure
   re-opens).  Consulted before every attempt — fallback attempts
   included — so a dead server is discovered once per cooldown, not once
   per retry, and the remaining budget goes to targets that might
   answer. *)
module Breaker = struct
  type state = Closed | Open of float (* retry-at *) | Half_open

  type t = {
    mutable state : state;
    mutable failures : int;
    threshold : int;
    cooldown : float;
  }

  let create ?(threshold = 3) ?(cooldown = 1.0) () =
    { state = Closed; failures = 0; threshold; cooldown }

  let admit t =
    match t.state with
    | Closed | Half_open -> true
    | Open retry_at ->
        if Bx_obs.Clock.now () >= retry_at then begin
          t.state <- Half_open;
          true
        end
        else false

  let success t =
    t.state <- Closed;
    t.failures <- 0

  let failure t =
    t.failures <- t.failures + 1;
    match t.state with
    | Half_open -> t.state <- Open (Bx_obs.Clock.now () +. t.cooldown)
    | _ when t.failures >= t.threshold ->
        t.state <- Open (Bx_obs.Clock.now () +. t.cooldown)
    | _ -> ()
end

let client_main args =
  let port = ref None in
  let port_file = ref None in
  let retries = ref 8 in
  let max_sleep = ref 2.0 in
  let data = ref None in
  let meth = ref None in
  let path = ref None in
  let fallback = ref None in
  let deadline_ms = ref None in
  let fail msg =
    Printf.eprintf "bxwiki client: %s\n" msg;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--port" :: v :: rest -> port := int_of_string_opt v; parse rest
    | "--port-file" :: v :: rest -> port_file := Some v; parse rest
    | "--retries" :: v :: rest ->
        retries := (match int_of_string_opt v with
          | Some n when n >= 1 -> n
          | _ -> fail "--retries wants a positive integer");
        parse rest
    | "--max-sleep" :: v :: rest ->
        max_sleep := (match float_of_string_opt v with
          | Some s when s >= 0. -> s
          | _ -> fail "--max-sleep wants seconds");
        parse rest
    | "--data" :: v :: rest -> data := Some v; parse rest
    | "--body-file" :: v :: rest -> data := Some (Bx_repo.Fsio.read_file v); parse rest
    | "--fallback" :: v :: rest ->
        fallback := Some (parse_hostport ~flag:"--fallback" v fail);
        parse rest
    | "--deadline" :: v :: rest ->
        deadline_ms := (match float_of_string_opt v with
          | Some ms when ms > 0. -> Some ms
          | _ -> fail "--deadline wants a positive millisecond budget");
        parse rest
    | v :: rest when !meth = None -> meth := Some v; parse rest
    | v :: rest when !path = None -> path := Some v; parse rest
    | v :: _ -> fail ("unexpected argument " ^ v)
  in
  parse args;
  let meth = match !meth with Some m -> String.uppercase_ascii m | None -> usage () in
  let path = match !path with Some p -> p | None -> usage () in
  let port = resolve_port ~port:!port ~port_file:!port_file ~fail in
  let body = Option.value ~default:"" !data in
  (* The whole run's absolute deadline; each attempt ships the budget
     still remaining, so the server stops working on a request the
     moment this client would no longer read the answer. *)
  let overall_deadline =
    Option.map (fun ms -> Bx_obs.Clock.now () +. (ms /. 1000.)) !deadline_ms
  in
  let remaining_ms () =
    Option.map
      (fun d -> (d -. Bx_obs.Clock.now ()) *. 1000.)
      overall_deadline
  in
  (* One attempt: Ok (status, retry_after, stale, body) or a retryable
     error; transport failures raise and are named below. *)
  let attempt port =
    let headers =
      match remaining_ms () with
      | Some ms ->
          [ ("X-Bxwiki-Deadline", string_of_int (int_of_float (Float.max 1. ms))) ]
      | None -> []
    in
    Result.map
      (fun { Bx_server.Replication.status; headers; body } ->
        let header name parse = Option.bind (List.assoc_opt name headers) parse in
        ( status,
          header "retry-after" float_of_string_opt,
          header "x-bxwiki-stale" int_of_string_opt,
          body ))
      (Bx_server.Replication.exchange ~host:"" ~port ~timeout:10.0 ~headers
         ~meth ~path ~body ())
  in
  (* Capped exponential backoff with decorrelated jitter: each sleep is
     drawn from [base, 3 * previous sleep], capped — retries spread out
     instead of synchronising into waves. *)
  Random.self_init ();
  let base = 0.05 in
  let next_sleep prev retry_after =
    let jitter = base +. Random.float (Float.max base ((prev *. 3.) -. base)) in
    let hinted =
      match retry_after with Some s -> Float.max s jitter | None -> jitter
    in
    Float.min !max_sleep hinted
  in
  (* The retry loop against one server; [`Gave_up reason] when every
     attempt was retryable (503 or connection failure) — the condition
     under which a GET may fail over to --fallback.  Each target gets
     its own breaker, consulted before every attempt. *)
  let breakers = Hashtbl.create 4 in
  let breaker_for port =
    match Hashtbl.find_opt breakers port with
    | Some b -> b
    | None ->
        let b = Breaker.create ~cooldown:(Float.min 1.0 !max_sleep) () in
        Hashtbl.add breakers port b;
        b
  in
  let run port =
    let breaker = breaker_for port in
    let rec go attempt_no sleep =
      match remaining_ms () with
      | Some r when r <= 0. -> `Gave_up (attempt_no - 1, "deadline exhausted")
      | _ ->
      let outcome =
        if not (Breaker.admit breaker) then
          (* Open breaker: fail fast without touching the socket — the
             sleep below doubles as the cooldown wait. *)
          Error ("circuit open", None)
        else
          match attempt port with
          | Ok (503, retry_after, _, _) ->
              Breaker.failure breaker;
              Error ("HTTP 503", retry_after)
          | Ok (status, _, stale, resp_body) ->
              Breaker.success breaker;
              Ok (status, stale, resp_body)
          | Error e ->
              Breaker.failure breaker;
              Error (e, None)
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET
                                       | Unix.ETIMEDOUT | Unix.EPIPE
                                       | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              Breaker.failure breaker;
              Error ("connection failed or timed out", None)
          | exception End_of_file ->
              Breaker.failure breaker;
              Error ("server closed mid-response", None)
          | exception Sys_error e ->
              Breaker.failure breaker;
              Error (e, None)
      in
      match outcome with
      | Ok (status, stale, resp_body) -> `Done (status, stale, resp_body)
      | Error (reason, retry_after) ->
          if attempt_no >= !retries then `Gave_up (attempt_no, reason)
          else begin
            let sleep = next_sleep sleep retry_after in
            (* Never sleep past the deadline: better to wake with a
               sliver of budget than to oversleep the whole thing. *)
            let sleep =
              match remaining_ms () with
              | Some r -> Float.min sleep (Float.max 0. (r /. 1000.))
              | None -> sleep
            in
            Unix.sleepf sleep;
            go (attempt_no + 1) sleep
          end
    in
    go 1 base
  in
  let finish (status, stale, resp_body) =
    (match stale with
    | Some lag when status = 200 ->
        Printf.eprintf
          "bxwiki client: response served stale (%d generation(s) behind)\n"
          lag
    | _ -> ());
    print_string resp_body;
    if status >= 200 && status < 300 then exit 0
    else begin
      Printf.eprintf "bxwiki client: HTTP %d\n" status;
      exit 1
    end
  in
  match run port with
  | `Done r -> finish r
  | `Gave_up (attempts, reason) -> (
      (* Reads fail over; writes never do — a replayed POST against a
         replica (or a just-promoted primary) is how split brains are
         made. *)
      match !fallback with
      | Some fb_port when meth = "GET" -> (
          Printf.eprintf
            "bxwiki client: primary unreachable (%s), falling back to \
             replica on port %d\n"
            reason fb_port;
          match run fb_port with
          | `Done r -> finish r
          | `Gave_up (attempts, reason) ->
              Printf.eprintf
                "bxwiki client: giving up after %d attempts (%s)\n" attempts
                reason;
              exit 1)
      | _ ->
          Printf.eprintf "bxwiki client: giving up after %d attempts (%s)\n"
            attempts reason;
          exit 1)

(* The live claimed-vs-verified report, computed once on first request
   (it runs every entry's law checks, which takes a few seconds). *)
let checks_page =
  lazy
    (let reports = Bx_check.Examples_check.all_reports ~count:60 () in
     let fragment =
       String.concat "\n"
         (List.map
            (fun (title, rows) ->
              Printf.sprintf "<h2>%s</h2><pre>%s</pre>"
                (Bx_repo.Markup.html_escape title)
                (Bx_repo.Markup.html_escape
                   (Fmt.str "%a" Bx_check.Verify.pp_report rows)))
            reports)
     in
     ("Claimed vs verified", "<h1>Claimed vs verified</h1>" ^ fragment))

(* The extra deterministic law the scrubber runs on every stored entry:
   the wiki-sync lens's well-behavedness (GetPut and PutGet) on the
   entry under test, paired with view pages sampled at a fixed seed —
   the QCheck harness lives here in the CLI, so the server library
   never depends on the test stack. *)
let scrub_law =
  let s_space =
    Bx.Model.make ~name:"entry" ~equal:Bx_repo.Template.equal
      ~pp:Bx_repo.Template.pp
  in
  let v_space =
    Bx.Model.make ~name:"page" ~equal:Bx_repo.Markup.equal ~pp:Bx_repo.Markup.pp
  in
  let laws =
    Bx.Lens.well_behaved_laws s_space v_space Bx_catalogue.Wiki_sync_example.lens
  in
  let views =
    lazy
      (List.map
         (fun t -> Bx_repo.Sync.render_entry (Bx_repo.Sync.normalise t))
         (Bx_catalogue.Catalogue.all ()))
  in
  fun (template : Bx_repo.Template.t) ->
    (* GetPut holds on normalised templates free of the page's own
       delimiters, not on every valid one (see Bx_repo.Sync and ROADMAP
       item 2); stored entries are normalised on ingestion, but
       normalising again costs nothing and keeps the check about
       corruption, not about free-text spelling. *)
    let template = Bx_repo.Sync.normalise template in
    Bx_check.Qlaw.holds_on_samples ~seed:42 ~count:8
      (QCheck2.Gen.map (fun v -> (template, v))
         (QCheck2.Gen.oneofl (Lazy.force views)))
      laws

(* The lens families every server (and the offline scrubber) mounts. *)
let standard_lenses =
  [
    ("composers", Bx_catalogue.Composers_string.lens);
    ("composers-by-name", Bx_catalogue.Composers_string.name_keyed_lens);
    ("composers-diff", Bx_catalogue.Composers_string.diff_lens);
    ("composers-positional", Bx_catalogue.Composers_string.positional_lens);
  ]

let server_main ~replica args =
  let port = ref 8008 in
  let workers = ref 4 in
  let journal_dir = ref None in
  let port_file = ref None in
  let failpoints = ref None in
  let chaos = ref None in
  let quiet = ref false in
  let compact_every = ref Bx_server.Service.default_config.compact_every in
  let shards = ref Bx_server.Service.default_config.shards in
  let gen_entries = ref 0 in
  let gen_seed = ref 1 in
  let replicate_from = ref None in
  let lag_threshold =
    ref Bx_server.Service.default_config.replica_lag_threshold
  in
  let poll_wait = ref Bx_server.Service.default_config.stream_wait in
  let scrub_rate = ref Bx_server.Service.default_config.scrub_rate in
  let fail msg =
    Printf.eprintf "bxwiki: %s\n" msg;
    exit 2
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> fail (name ^ " wants a non-negative integer, got " ^ v)
  in
  let float_arg name v =
    match float_of_string_opt v with
    | Some s when s >= 0. -> s
    | _ -> fail (name ^ " wants non-negative seconds, got " ^ v)
  in
  let rec parse = function
    | [] -> ()
    | "--port" :: v :: rest -> port := int_arg "--port" v; parse rest
    | "--workers" :: v :: rest ->
        workers := max 1 (int_arg "--workers" v);
        parse rest
    | "--journal" :: v :: rest -> journal_dir := Some v; parse rest
    | "--shards" :: v :: rest ->
        shards := max 1 (int_arg "--shards" v);
        parse rest
    | "--port-file" :: v :: rest -> port_file := Some v; parse rest
    | "--failpoints" :: v :: rest -> failpoints := Some v; parse rest
    | "--chaos" :: v :: rest -> chaos := Some v; parse rest
    | "--compact-every" :: v :: rest ->
        compact_every := int_arg "--compact-every" v;
        parse rest
    | "--gen-entries" :: v :: rest ->
        gen_entries := int_arg "--gen-entries" v;
        parse rest
    | "--gen-seed" :: v :: rest ->
        gen_seed := int_arg "--gen-seed" v;
        parse rest
    | "--scrub-rate" :: v :: rest ->
        scrub_rate := int_arg "--scrub-rate" v;
        parse rest
    | "--replicate-from" :: v :: rest when replica ->
        replicate_from := Some (parse_hostport ~flag:"--replicate-from" v fail);
        parse rest
    | "--lag-threshold" :: v :: rest when replica ->
        lag_threshold := float_arg "--lag-threshold" v;
        parse rest
    | "--poll-wait" :: v :: rest when replica ->
        poll_wait := float_arg "--poll-wait" v;
        parse rest
    | "--quiet" :: rest -> quiet := true; parse rest
    | [ v ] when (not replica) && int_of_string_opt v <> None ->
        port := int_arg "PORT" v
    | _ -> usage ()
  in
  parse args;
  let upstream =
    match (replica, !replicate_from) with
    | true, None -> fail "replica mode needs --replicate-from [HOST:]PORT"
    | _, v -> v
  in
  (match !failpoints with
  | None -> ()
  | Some spec -> (
      match Bx_fault.Fault.configure spec with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "bxwiki: --failpoints: %s\n" e;
          exit 2));
  (match !chaos with
  | None -> ()
  | Some spec -> (
      match Bx_fault.Netchaos.configure spec with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "bxwiki: --chaos: %s\n" e;
          exit 2));
  let chaos_armed = !chaos <> None || Bx_fault.Netchaos.env_configured in
  let config =
    {
      Bx_server.Service.default_config with
      journal_dir = !journal_dir;
      shards = !shards;
      compact_every = !compact_every;
      (* Pages hash to cache shards; one per worker keeps their mutexes cold. *)
      cache_shards = !workers;
      failpoints_admin =
        !failpoints <> None
        || Bx_server.Service.default_config.failpoints_admin;
      chaos_admin =
        chaos_armed || Bx_server.Service.default_config.chaos_admin;
      replica;
      replica_lag_threshold = !lag_threshold;
      stream_wait = !poll_wait;
      scrub_rate = !scrub_rate;
      entry_law = Some scrub_law;
    }
  in
  let pages = [ ("/checks", fun () -> Lazy.force checks_page) ] in
  (* String lenses served at POST /slens/<name>/<op>; the composers
     family exercises every alignment strategy. *)
  let lenses = standard_lenses in
  let seed =
    if !gen_entries > 0 then
      Bx_load.Corpus.seed_registry ~shards:!shards ~entries:!gen_entries
        ~seed:!gen_seed
    else fun () -> Bx_catalogue.Catalogue.seed ~shards:!shards ()
  in
  match Bx_server.Service.create ~config ~pages ~lenses ~seed () with
  | Error e ->
      Printf.eprintf "bxwiki: %s\n" e;
      exit 1
  | Ok service -> (
      (let applied, failed = Bx_server.Service.replay_stats service in
       if (not !quiet) && applied + failed > 0 then
         Printf.printf "bxwiki: replayed %d journaled edit(s)%s\n%!" applied
           (if failed > 0 then Printf.sprintf " (%d failed)" failed else ""));
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Bx_server.Service.shutdown service));
      (* The follower thread polls the primary and applies the stream;
         it stops by itself on shutdown or promotion. *)
      let follower =
        Option.map
          (fun up_port ->
            (* With chaos armed the follower dials the primary through
               an in-process toxic proxy named "upstream": partitions,
               latency storms and resets configured for that name hit
               the replication link and nothing else. *)
            let dial_port =
              if not chaos_armed then up_port
              else
                Bx_fault.Netchaos.port
                  (Bx_fault.Netchaos.create ~name:"upstream"
                     ~upstream_port:up_port ())
            in
            if not !quiet then
              Printf.printf "bxwiki: replicating from 127.0.0.1:%d%s\n%!"
                up_port
                (if chaos_armed then
                   Printf.sprintf " (via chaos proxy :%d)" dial_port
                 else "");
            Thread.create
              (fun () ->
                Bx_server.Service.follow service ~host:"127.0.0.1"
                  ~port:dial_port ~wait:!poll_wait ())
              ())
          upstream
      in
      let result =
        Bx_server.Service.serve service ~port:!port ~workers:!workers
          ?port_file:!port_file ~quiet:!quiet ()
      in
      Option.iter Thread.join follower;
      match result with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "bxwiki: %s\n" e;
          exit 1)

(* ------------------------------------------------------------------ *)
(* The offline scrubber: open a journal directory (without serving),
   run one unmetered scrub pass over every surface, report findings,
   exit 1 when anything is corrupt — the fsck for a bxwiki data dir. *)

let scrub_main args =
  let journal_dir = ref None in
  let shards = ref Bx_server.Service.default_config.shards in
  let gen_entries = ref 0 in
  let gen_seed = ref 1 in
  let quiet = ref false in
  let fail msg =
    Printf.eprintf "bxwiki scrub: %s\n" msg;
    exit 2
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> fail (name ^ " wants a non-negative integer, got " ^ v)
  in
  let rec parse = function
    | [] -> ()
    | "--journal" :: v :: rest -> journal_dir := Some v; parse rest
    | "--shards" :: v :: rest ->
        shards := max 1 (int_arg "--shards" v);
        parse rest
    | "--gen-entries" :: v :: rest ->
        gen_entries := int_arg "--gen-entries" v;
        parse rest
    | "--gen-seed" :: v :: rest ->
        gen_seed := int_arg "--gen-seed" v;
        parse rest
    | "--quiet" :: rest -> quiet := true; parse rest
    | v :: _ -> fail ("unexpected argument " ^ v)
  in
  parse args;
  let journal_dir =
    match !journal_dir with
    | Some d -> Some d
    | None -> fail "--journal DIR is required (the directory to check)"
  in
  let config =
    {
      Bx_server.Service.default_config with
      journal_dir;
      shards = !shards;
      compact_every = 0;
      entry_law = Some scrub_law;
    }
  in
  let seed =
    if !gen_entries > 0 then
      Bx_load.Corpus.seed_registry ~shards:!shards ~entries:!gen_entries
        ~seed:!gen_seed
    else fun () -> Bx_catalogue.Catalogue.seed ~shards:!shards ()
  in
  match
    Bx_server.Service.create ~config ~lenses:standard_lenses ~seed ()
  with
  | Error e ->
      Printf.eprintf "bxwiki scrub: %s\n" e;
      exit 1
  | Ok service ->
      let items, findings = Bx_server.Service.scrub_once service in
      if not !quiet then begin
        List.iter
          (fun (name, why) -> Printf.printf "bxwiki scrub: %s: %s\n" name why)
          findings;
        Printf.printf "bxwiki scrub: %d item(s) checked, %d finding(s)\n%!"
          items (List.length findings)
      end;
      Bx_server.Service.close service;
      if findings <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* The corpus generator, standalone: the same entries --gen-entries
   seeds a server with, printable for inspection or scripting. *)

let gen_main args =
  let entries = ref 0 in
  let seed = ref 1 in
  let format = ref `Paths in
  let fail msg =
    Printf.eprintf "bxwiki gen: %s\n" msg;
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--entries" :: v :: rest ->
        entries := (match int_of_string_opt v with
          | Some n when n > 0 -> n
          | _ -> fail "--entries wants a positive integer");
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with
          | Some n -> n
          | None -> fail "--seed wants an integer");
        parse rest
    | "--format" :: v :: rest ->
        format := (match v with
          | "titles" -> `Titles
          | "paths" -> `Paths
          | "wiki" -> `Wiki
          | _ -> fail "--format wants titles, paths or wiki");
        parse rest
    | v :: _ -> fail ("unexpected argument " ^ v)
  in
  parse args;
  if !entries = 0 then fail "--entries N is required";
  let templates = Bx_load.Corpus.generate ~entries:!entries ~seed:!seed in
  match !format with
  | `Titles ->
      List.iter (fun t -> print_endline t.Bx_repo.Template.title) templates
  | `Paths ->
      Array.iter print_endline
        (Bx_load.Corpus.wiki_paths ~entries:!entries ~seed:!seed)
  | `Wiki ->
      List.iter
        (fun t -> print_string (Bx_repo.Sync.wiki_text t))
        templates

(* ------------------------------------------------------------------ *)
(* The open-loop load generator (see Bx_load.Loadgen). *)

let loadgen_main args =
  let port = ref None in
  let port_file = ref None in
  let rate = ref 150. in
  let warmup = ref 1.0 in
  let duration = ref 5.0 in
  let domains = ref 2 in
  let profile = ref "all" in
  let pacing = ref Bx_load.Arrival.Poisson in
  let entries = ref 0 in
  let seed = ref 1 in
  let scaling = ref [] in
  let scaling_rate = ref 2000. in
  let out = ref None in
  let fail msg =
    Printf.eprintf "bxwiki loadgen: %s\n" msg;
    exit 2
  in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f when f >= 0. -> f
    | _ -> fail (name ^ " wants a non-negative number, got " ^ v)
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> fail (name ^ " wants a non-negative integer, got " ^ v)
  in
  let rec parse = function
    | [] -> ()
    | "--port" :: v :: rest -> port := int_of_string_opt v; parse rest
    | "--port-file" :: v :: rest -> port_file := Some v; parse rest
    | "--rate" :: v :: rest -> rate := float_arg "--rate" v; parse rest
    | "--warmup" :: v :: rest -> warmup := float_arg "--warmup" v; parse rest
    | "--duration" :: v :: rest ->
        duration := float_arg "--duration" v;
        parse rest
    | "--domains" :: v :: rest ->
        domains := max 1 (int_arg "--domains" v);
        parse rest
    | "--profile" :: v :: rest -> profile := v; parse rest
    | "--pacing" :: v :: rest ->
        pacing := (match Bx_load.Arrival.pacing_of_string v with
          | Some p -> p
          | None -> fail "--pacing wants constant or poisson");
        parse rest
    | "--entries" :: v :: rest -> entries := int_arg "--entries" v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--scaling" :: v :: rest ->
        scaling :=
          List.map
            (fun s ->
              match int_of_string_opt (String.trim s) with
              | Some n when n >= 1 -> n
              | _ -> fail "--scaling wants a comma-separated list of counts")
            (String.split_on_char ',' v);
        parse rest
    | "--scaling-rate" :: v :: rest ->
        scaling_rate := float_arg "--scaling-rate" v;
        parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | v :: _ -> fail ("unexpected argument " ^ v)
  in
  parse args;
  let port = resolve_port ~port:!port ~port_file:!port_file ~fail in
  (* The same paths the server serves: the catalogue, plus the generated
     corpus when the server was booted with --gen-entries. *)
  let catalogue_paths =
    List.filter_map
      (fun t ->
        match Bx_repo.Identifier.of_title t.Bx_repo.Template.title with
        | Ok id -> Some ("/" ^ Bx_repo.Identifier.wiki_path id)
        | Error _ -> None)
      (Bx_catalogue.Catalogue.all ())
  in
  let corpus_paths =
    if !entries > 0 then
      Array.to_list (Bx_load.Corpus.wiki_paths ~entries:!entries ~seed:!seed)
    else []
  in
  let targets = Array.of_list (catalogue_paths @ corpus_paths) in
  let profiles =
    match !profile with
    | "all" -> Bx_load.Workload.profiles
    | name -> (
        match Bx_load.Workload.of_name name with
        | Some p -> [ p ]
        | None -> fail ("unknown profile " ^ name))
  in
  let spec profile domains rate =
    {
      Bx_load.Loadgen.port;
      profile;
      pacing = !pacing;
      rate;
      domains;
      warmup = !warmup;
      duration = !duration;
      seed = !seed;
      targets;
    }
  in
  let failures = ref false in
  let report label (r : Bx_load.Loadgen.result) =
    let q p = Bx_obs.Hist.quantile r.latency p in
    Printf.printf
      "loadgen: %s: %.1f req/s ok=%d shed=%d err=%d transport=%d p50=%dus \
       p99=%dus p999=%dus max=%dus\n%!"
      label r.throughput r.ok r.shed r.failed r.transport (q 0.5) (q 0.99)
      (q 0.999)
      (Bx_obs.Hist.max_value r.latency);
    List.iter
      (fun l ->
        Printf.printf "loadgen:   lock %s/%s: %d acquisitions, %d contended\n%!"
          l.Bx_load.Loadgen.lock l.Bx_load.Loadgen.mode l.acquisitions
          l.contended)
      r.locks;
    List.iter
      (fun e ->
        failures := true;
        Printf.eprintf "loadgen: client domain crashed: %s\n%!" e)
      r.domain_failures;
    if r.failed > 0 || r.transport > 0 then failures := true
  in
  let run_spec label s =
    match Bx_load.Loadgen.run s with
    | Ok r ->
        report label r;
        Some r
    | Error e ->
        failures := true;
        Printf.eprintf "loadgen: %s: %s\n%!" label e;
        None
  in
  let results =
    List.filter_map
      (fun p ->
        run_spec p.Bx_load.Workload.profile_name (spec p !domains !rate))
      profiles
  in
  (* The scaling curve saturates the server (--scaling-rate is meant to
     exceed capacity) at each domain count, read-heavy, and keeps the
     lock-counter deltas: on a multicore host throughput should climb;
     where it does not, the contended counts name the blocking lock. *)
  let scaling_results =
    List.filter_map
      (fun d ->
        run_spec
          (Printf.sprintf "scaling/%d-domain" d)
          (spec Bx_load.Workload.read_heavy d !scaling_rate))
      !scaling
  in
  (match !out with
  | None -> ()
  | Some path ->
      let json =
        Bx_load.Loadgen.to_json ~results ~scaling:scaling_results
          ~warmup:!warmup ~duration:!duration ~entries:!entries ~seed:!seed
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc json);
      Printf.printf "loadgen: wrote %s\n%!" path);
  if !failures then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "client" :: rest -> client_main rest
  | _ :: "replica" :: rest -> server_main ~replica:true rest
  | _ :: "scrub" :: rest -> scrub_main rest
  | _ :: "gen" :: rest -> gen_main rest
  | _ :: "loadgen" :: rest -> loadgen_main rest
  | _ :: rest -> server_main ~replica:false rest
  | [] -> usage ()
