(* Journal-shipping replication: the wire protocol codecs, the journal
   primitives behind them (tail, reset, epoch file, snapshot install),
   the primary's stream/snapshot endpoints, the replica's apply path
   (read-only role, cache invalidation, retried prefixes, gap
   detection), promotion with epoch fencing, lag-aware readiness —
   and kill -9 failover torture at every replication seam: crash the
   primary mid-stream and promote the replica, crash the follower
   mid-apply and recover it, crash promotion itself and re-promote.
   The invariant throughout is the paper's durability story extended
   across two processes: the promoted state is the acked prefix, give
   or take at most one in-flight edit. *)

open Bx_server
module Fault = Bx_fault.Fault

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let contains ~needle hay =
  let hl = String.length hay and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let seed = Bx_catalogue.Catalogue.seed

let service ?(config = Service.default_config) ?lenses () =
  match Service.create ~config ?lenses ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config dir =
  { Service.default_config with journal_dir = Some dir; compact_every = 0 }

let replica_config dir =
  { (journal_config dir) with Service.replica = true; stream_wait = 0.2 }

let get t path = Service.handle t ~meth:"GET" ~path ~body:""
let post t path body = Service.handle t ~meth:"POST" ~path ~body

let stream t query =
  Service.handle_query t ~query ~meth:"GET" ~path:"/replication/stream"
    ~body:""

let metrics_page t = (get t "/metrics").Bx_repo.Webui.body

let isolated f () =
  Fault.clear ();
  Fun.protect ~finally:Fault.clear f

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let wait_for ?(timeout = 10.0) f =
  let deadline = Bx_obs.Clock.now () +. timeout in
  let rec go () =
    if f () then true
    else if Bx_obs.Clock.now () > deadline then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* The edit counter embedded in the celsius page text, as in
   test_fault: "temperature<k>" after the k-th edit. *)
let page_path = "/examples:celsius"
let rev_re = Str.regexp "temperature[0-9]*"

let page_body t = (get t (page_path ^ ".wiki")).Bx_repo.Webui.body

let page_rev t =
  let body = page_body t in
  ignore (Str.search_forward rev_re body 0);
  let m = Str.matched_string body in
  let digits = String.sub m 11 (String.length m - 11) in
  if digits = "" then 0 else int_of_string digits

let edited_body base i =
  Str.global_replace rev_re ("temperature" ^ string_of_int i) base

(* A fabricated stream record for the i-th edit of the page. *)
let record base ~seq i =
  { Journal.seq; path = page_path; body = edited_body base i }

let sink t = Service.replication_sink t

(* Flatten the typed apply error into the string these tests assert
   against (a gap keeps its historic "stream gap" spelling). *)
let apply t records =
  Result.map_error
    (function
      | `Fail m -> m
      | `Gap (expected, got) ->
          Printf.sprintf "stream gap: expected seq %d, got %d" expected got)
    ((sink t).Replication.apply records)

(* ------------------------------------------------------------------ *)
(* Protocol codecs *)

let sample_records =
  [
    { Journal.seq = 4; path = "/a"; body = "one" };
    { Journal.seq = 5; path = "/b"; body = "two\nlines\n" };
  ]

let records_testable =
  Alcotest.testable
    (fun ppf { Journal.seq; path; body } -> Fmt.pf ppf "%d:%s:%S" seq path body)
    ( = )

let protocol_tests =
  [
    tc "stream body round-trips, including empty batches" (fun () ->
        let body =
          Replication.stream_body ~epoch:3 ~next_seq:6 ~records:sample_records
        in
        (match Replication.parse_stream_body body with
        | Ok (Replication.Records { epoch; next_seq; records }) ->
            check Alcotest.int "epoch" 3 epoch;
            check Alcotest.int "next_seq" 6 next_seq;
            check (Alcotest.list records_testable) "records" sample_records
              records
        | Ok _ -> Alcotest.fail "expected Records"
        | Error e -> Alcotest.failf "parse: %s" e);
        match
          Replication.parse_stream_body
            (Replication.stream_body ~epoch:1 ~next_seq:9 ~records:[])
        with
        | Ok (Replication.Records { records = []; next_seq = 9; _ }) -> ()
        | _ -> Alcotest.fail "empty batch should round-trip");
    tc "reset body round-trips" (fun () ->
        match
          Replication.parse_stream_body
            (Replication.reset_body ~epoch:2 ~floor:17)
        with
        | Ok (Replication.Bootstrap { epoch = 2; floor = 17 }) -> ()
        | Ok _ -> Alcotest.fail "expected Bootstrap"
        | Error e -> Alcotest.failf "parse: %s" e);
    tc "snapshot body round-trips the file set" (fun () ->
        let files = [ ("MANIFEST-not", "seq 4\n"); ("page.wiki", "body") ] in
        match
          Replication.parse_snapshot_body
            (Replication.snapshot_body ~epoch:5 ~seq:4 ~files)
        with
        | Ok (5, 4, got) ->
            check
              Alcotest.(list (pair string string))
              "files" files got
        | Ok _ -> Alcotest.fail "header mismatch"
        | Error e -> Alcotest.failf "parse: %s" e);
    tc "a flipped byte in a frame is rejected by its CRC" (fun () ->
        let body =
          Replication.stream_body ~epoch:1 ~next_seq:6 ~records:sample_records
        in
        let corrupt = Bytes.of_string body in
        Bytes.set corrupt (Bytes.length corrupt - 1) '\xff';
        match Replication.parse_stream_body (Bytes.to_string corrupt) with
        | Error e ->
            check Alcotest.bool "names the checksum" true
              (contains ~needle:"checksum" e)
        | Ok _ -> Alcotest.fail "corrupt frame accepted");
    tc "count mismatches and garbage headers are rejected" (fun () ->
        let one =
          Replication.stream_body ~epoch:1 ~next_seq:5
            ~records:[ List.hd sample_records ]
        in
        let lying = Str.replace_first (Str.regexp " 1\n") " 2\n" one in
        (match Replication.parse_stream_body lying with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "count lie accepted");
        List.iter
          (fun bad ->
            match Replication.parse_stream_body bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" bad)
          [ ""; "no newline"; "bxrepl 9 1 1 0\n"; "bxrepl 1 x 1 0\n" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Journal primitives the protocol rides on *)

let with_log dir f =
  match Journal.open_ ~dir ~next_seq:1 with
  | Error e -> Alcotest.failf "journal open: %s" e
  | Ok j -> Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)

let append_exn j ~path ~body = ok_exn "append" (Journal.append j ~path ~body)

let journal_tests =
  [
    tc "tail returns the suffix from a sequence number" (fun () ->
        let dir = fresh_dir "bxtail" in
        with_log dir (fun j ->
            ignore (append_exn j ~path:"/a" ~body:"one");
            ignore (append_exn j ~path:"/b" ~body:"two");
            ignore (append_exn j ~path:"/c" ~body:"three"));
        let seqs from =
          List.map
            (fun r -> r.Journal.seq)
            (ok_exn "tail" (Journal.tail ~dir ~from))
        in
        check Alcotest.(list int) "from 1" [ 1; 2; 3 ] (seqs 1);
        check Alcotest.(list int) "from 2" [ 2; 3 ] (seqs 2);
        check Alcotest.(list int) "past the end" [] (seqs 9));
    tc "decode_frames reads encodes back and flags truncation" (fun () ->
        let data =
          String.concat ""
            (List.map
               (fun { Journal.seq; path; body } ->
                 Journal.encode ~seq ~path ~body)
               sample_records)
        in
        check
          (Alcotest.list records_testable)
          "round-trip" sample_records
          (ok_exn "decode" (Journal.decode_frames data ~off:0));
        match
          Journal.decode_frames
            (String.sub data 0 (String.length data - 3))
            ~off:0
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "truncated frames accepted");
    tc "reset empties the log and restarts numbering" (fun () ->
        let dir = fresh_dir "bxreset" in
        with_log dir (fun j ->
            ignore (append_exn j ~path:"/a" ~body:"one");
            ok_exn "reset" (Journal.reset j ~next_seq:5);
            check Alcotest.int "next_seq" 5 (Journal.next_seq j);
            check Alcotest.int "empty" 0 (Journal.record_count j);
            check Alcotest.int "seq resumes at 5" 5
              (append_exn j ~path:"/b" ~body:"two"));
        check Alcotest.(list int) "only the post-reset record" [ 5 ]
          (List.map
             (fun r -> r.Journal.seq)
             (ok_exn "tail" (Journal.tail ~dir ~from:1))));
    tc "the epoch file persists and defaults to zero" (fun () ->
        let dir = fresh_dir "bxepoch" in
        check Alcotest.int "unborn" 0 (Journal.read_epoch ~dir);
        ok_exn "write" (Journal.write_epoch ~dir 7);
        check Alcotest.int "written" 7 (Journal.read_epoch ~dir);
        ok_exn "overwrite" (Journal.write_epoch ~dir 8);
        check Alcotest.int "overwritten" 8 (Journal.read_epoch ~dir));
    tc "install_snapshot refuses hostile file names" (fun () ->
        let dir = fresh_dir "bxinstall" in
        with_log dir (fun j ->
            List.iter
              (fun name ->
                match
                  Journal.install_snapshot j ~seq:3 ~files:[ (name, "x") ]
                with
                | Error _ -> ()
                | Ok () -> Alcotest.failf "accepted %S" name)
              [ "MANIFEST"; "../evil"; "a/b"; ".hidden"; "" ]));
    tc "a snapshot payload without DIGESTS is refused, shipped or received"
      (fun () ->
        let refused what = function
          | Ok _ -> Alcotest.failf "%s: accepted a payload without DIGESTS" what
          | Error e ->
              check Alcotest.bool (what ^ " names DIGESTS") true
                (contains ~needle:"DIGESTS" e)
        in
        let files = [ ("a.wiki", "alpha"); ("b.wiki", "beta") ] in
        let dir = fresh_dir "bxnodigests" in
        with_log dir (fun j ->
            refused "install" (Journal.install_snapshot j ~seq:3 ~files);
            check Alcotest.int "nothing installed" 0 (Journal.snapshot_seq ~dir);
            ok_exn "install with DIGESTS"
              (Journal.install_snapshot j ~seq:3
                 ~files:
                   ((Integrity.Digests.name, Integrity.Digests.render files)
                   :: files));
            check Alcotest.int "installed" 3 (Journal.snapshot_seq ~dir);
            Sys.remove
              (Filename.concat (Journal.snapshot_dir dir) Integrity.Digests.name);
            refused "ship" (Journal.snapshot_files ~dir));
        let sdir = fresh_dir "bxnodigests" in
        match Shardlog.open_ ~dir:sdir ~shards:2 with
        | Error e -> Alcotest.failf "shardlog open: %s" e
        | Ok (log, _) ->
            Fun.protect
              ~finally:(fun () -> Shardlog.close log)
              (fun () ->
                refused "sharded install"
                  (Shardlog.install_snapshot log ~seq:3
                     ~files:
                       (List.concat_map
                          (fun k ->
                            List.map
                              (fun (n, c) -> (Printf.sprintf "shard-%03d/%s" k n, c))
                              files)
                          [ 0; 1 ]))));
  ]

(* ------------------------------------------------------------------ *)
(* The primary: stream and snapshot endpoints through handle_query *)

let edit t i =
  let body = edited_body (page_body t) i in
  check Alcotest.int
    (Printf.sprintf "edit %d" i)
    200
    (post t page_path body).Bx_repo.Webui.status

let primary_tests =
  [
    tc "the stream serves journal frames and honours the batch cap"
      (isolated (fun () ->
           let dir = fresh_dir "bxstream" in
           let config =
             { (journal_config dir) with Service.stream_max_records = 1 }
           in
           let t = service ~config () in
           check Alcotest.int "boot epoch" 1 (Service.epoch t);
           check Alcotest.int "epoch persisted at boot" 1
             (Journal.read_epoch ~dir);
           edit t 1;
           edit t 2;
           let r = stream t "from=1&epoch=0&wait=0" in
           check Alcotest.int "status" 200 r.Bx_repo.Webui.status;
           (match Replication.parse_stream_body r.Bx_repo.Webui.body with
           | Ok (Replication.Records { epoch; next_seq; records }) ->
               check Alcotest.int "epoch" 1 epoch;
               check Alcotest.int "next_seq" 3 next_seq;
               (* stream_max_records = 1: one record now, poll again for
                  the rest. *)
               check Alcotest.(list int) "capped batch" [ 1 ]
                 (List.map (fun r -> r.Journal.seq) records)
           | Ok _ -> Alcotest.fail "expected Records"
           | Error e -> Alcotest.failf "parse: %s" e);
           (match
              Replication.parse_stream_body
                (stream t "from=3&epoch=0&wait=0").Bx_repo.Webui.body
            with
           | Ok (Replication.Records { records = []; _ }) -> ()
           | _ -> Alcotest.fail "caught-up poll should be empty");
           check Alcotest.int "a poll acks everything below it" 3
             (Service.last_stream_poll t);
           check Alcotest.int "bad from is a 400" 400
             (stream t "from=x&wait=0").Bx_repo.Webui.status;
           check Alcotest.bool "streamed records counted" true
             (contains ~needle:"bxwiki_replication_streamed_records_total 1"
                (metrics_page t));
           Service.close t));
    tc "streaming requires a journal" (fun () ->
        let t = service () in
        check Alcotest.int "404" 404 (stream t "from=1").Bx_repo.Webui.status);
    tc "the snapshot endpoint appears once a snapshot exists"
      (isolated (fun () ->
           let dir = fresh_dir "bxsnapep" in
           let t = service ~config:(journal_config dir) () in
           let snap () =
             Service.handle t ~meth:"GET" ~path:"/replication/snapshot"
               ~body:""
           in
           check Alcotest.int "no snapshot yet" 404 (snap ()).Bx_repo.Webui.status;
           edit t 1;
           ignore (ok_exn "checkpoint" (Service.checkpoint t));
           let r = snap () in
           check Alcotest.int "200" 200 r.Bx_repo.Webui.status;
           (match Replication.parse_snapshot_body r.Bx_repo.Webui.body with
           | Ok (epoch, seq, files) ->
               check Alcotest.int "epoch" 1 epoch;
               check Alcotest.int "seq = snapshot floor" seq
                 (Journal.snapshot_seq ~dir);
               check Alcotest.bool "has files" true (files <> []);
               check Alcotest.bool "MANIFEST travels out of band" false
                 (List.mem_assoc "MANIFEST" files)
           | Error e -> Alcotest.failf "parse: %s" e);
           Service.close t));
    tc "a poll with a newer epoch fences the primary"
      (isolated (fun () ->
           let dir = fresh_dir "bxfence" in
           let t = service ~config:(journal_config dir) () in
           edit t 1;
           let r = stream t "from=2&epoch=5&wait=0" in
           check Alcotest.int "409" 409 r.Bx_repo.Webui.status;
           check Alcotest.bool "names the epochs" true
             (contains ~needle:"deposed: epoch 5 supersedes ours (1)"
                r.Bx_repo.Webui.body);
           check Alcotest.bool "fenced" true (Service.fenced t);
           let w = post t page_path (edited_body (page_body t) 2) in
           check Alcotest.int "writes rejected" 503 w.Bx_repo.Webui.status;
           check Alcotest.bool "says fenced" true
             (contains ~needle:"fenced: deposed by epoch 5"
                w.Bx_repo.Webui.body);
           let ready = get t "/readyz" in
           check Alcotest.int "not ready" 503 ready.Bx_repo.Webui.status;
           check Alcotest.bool "reason" true
             (contains ~needle:"fenced" ready.Bx_repo.Webui.body);
           check Alcotest.bool "gauge" true
             (contains ~needle:"bxwiki_replication_fenced 1" (metrics_page t));
           Service.close t));
  ]

(* ------------------------------------------------------------------ *)
(* The replica: read-only role, the apply path, promotion *)

let replica_tests =
  [
    tc "a replica serves reads, refuses writes, still runs lenses"
      (fun () ->
        let config = { Service.default_config with replica = true } in
        let lenses = [ ("composers", Bx_catalogue.Composers_string.lens) ] in
        let t = service ~config ~lenses () in
        check Alcotest.int "GET" 200 (get t page_path).Bx_repo.Webui.status;
        let w = post t page_path (page_body t) in
        check Alcotest.int "POST" 503 w.Bx_repo.Webui.status;
        check Alcotest.bool "explains" true
          (contains ~needle:"read-only replica" w.Bx_repo.Webui.body);
        (* Lens execution touches no registry state and keeps working. *)
        check Alcotest.int "lens POST" 200
          (post t "/slens/composers/get"
             (Bx_catalogue.Composers_string.synthetic_source 0))
            .Bx_repo.Webui.status);
    tc "apply journals, applies and invalidates the response cache"
      (isolated (fun () ->
           let dir = fresh_dir "bxapply" in
           let t = service ~config:(replica_config dir) () in
           let base = page_body t in
           (* Warm the cache, then apply a streamed record: the next read
              must see the new revision, not the cached page. *)
           ignore (get t page_path);
           ignore (get t page_path);
           let gen0 = Service.generation t in
           ok_exn "apply" (apply t [ record base ~seq:1 1 ]);
           check Alcotest.int "generation bumped per record" (gen0 + 1)
             (Service.generation t);
           check Alcotest.int "page advanced" 1 (page_rev t);
           check Alcotest.(list int) "record journaled locally" [ 1 ]
             (List.map
                (fun r -> r.Journal.seq)
                (ok_exn "tail" (Journal.tail ~dir ~from:1)));
           (* A retried prefix (the upstream resent what we hold) is
              skipped without reapplying... *)
           ok_exn "retry" (apply t [ record base ~seq:1 1 ]);
           check Alcotest.int "no double apply" (gen0 + 1)
             (Service.generation t);
           ok_exn "overlap"
             (apply t [ record base ~seq:1 1; record base ~seq:2 2 ]);
           check Alcotest.int "suffix applied" 2 (page_rev t);
           (* ...but a gap means our cursor and the stream disagree. *)
           (match apply t [ record base ~seq:9 9 ] with
           | Error e ->
               check Alcotest.bool "gap named" true
                 (contains ~needle:"stream gap" e)
           | Ok () -> Alcotest.fail "gap accepted");
           check Alcotest.bool "applied records counted" true
             (contains ~needle:"bxwiki_replication_applied_records_total 2"
                (metrics_page t));
           Service.close t));
    tc "promotion gates on sync, persists the epoch, survives restart"
      (isolated (fun () ->
           let dir = fresh_dir "bxpromote" in
           let t = service ~config:(replica_config dir) () in
           (match Service.promote t with
           | Error e ->
               check Alcotest.bool "refused before first sync" true
                 (contains ~needle:"never synced" e)
           | Ok _ -> Alcotest.fail "promoted a virgin replica");
           (sink t).Replication.note_progress ~behind:0;
           check Alcotest.int "promoted" 1 (ok_exn "promote" (Service.promote t));
           check Alcotest.bool "now primary" false (Service.is_replica t);
           check Alcotest.int "epoch persisted" 1 (Journal.read_epoch ~dir);
           edit t 1;
           (match Service.promote t with
           | Error "already primary" -> ()
           | _ -> Alcotest.fail "double promote");
           check Alcotest.int "route says conflict" 409
             (post t "/admin/promote" "").Bx_repo.Webui.status;
           Service.close t;
           (* A restarted replica that has held an epoch may be promoted
              straight away — it was a primary's successor once. *)
           let t = service ~config:(replica_config dir) () in
           check Alcotest.int "epoch recovered" 1 (Service.epoch t);
           check Alcotest.int "re-promoted" 2
             (ok_exn "promote" (Service.promote t));
           Service.close t));
    tc "lag grows from the last sync and drives readiness"
      (isolated (fun () ->
           let dir = fresh_dir "bxlag" in
           let config =
             { (replica_config dir) with Service.replica_lag_threshold = 0.05 }
           in
           let t = service ~config () in
           check Alcotest.bool "not ready before first sync" false
             (Service.ready t);
           check Alcotest.bool "names the sync" true
             (List.mem "replica_syncing" (Service.readiness t));
           (sink t).Replication.note_progress ~behind:0;
           check Alcotest.bool "synced" true (Service.replication_synced t);
           check Alcotest.bool "caught up = no lag" true
             (Service.replication_lag t = 0.);
           check Alcotest.bool "ready" true (Service.ready t);
           (* Records queueing upstream: lag runs from the last moment we
              were current, and past the threshold we stop advertising. *)
           (sink t).Replication.note_progress ~behind:3;
           Thread.delay 0.1;
           check Alcotest.int "behind" 3 (Service.replication_behind t);
           check Alcotest.bool "lagging" true
             (Service.replication_lag t > 0.05);
           check Alcotest.bool "names the lag" true
             (List.mem "replication_lag" (Service.readiness t));
           (sink t).Replication.note_progress ~behind:0;
           check Alcotest.bool "recovers" true (Service.ready t);
           Service.close t));
  ]

(* ------------------------------------------------------------------ *)
(* kill -9 failover torture.

   Shape A — crash the PRIMARY at a seam and promote the replica.  The
   forked child runs the full primary (socket server + journal) and
   edits in-process, acking each accepted edit over a pipe; before the
   next edit it waits until the replica's poll cursor covers the last
   one, so the parent-side replica is known current to within one edit.
   When the armed seam fires the child dies as if kill -9'd.  The
   parent promotes its replica and checks the promoted state is the
   acked prefix give or take the one in-flight edit — then revives the
   dead primary's directory and proves the new epoch fences it.

   Shape B — crash the FOLLOWER mid-stream (frame read or apply), then
   recover its journal directory and catch back up against the still-
   running primary.

   Shape C — crash PROMOTION itself: the ordering (persist epoch, then
   flip writable) must leave either nothing or only an advanced epoch
   behind. *)

let exit_status =
  Alcotest.testable
    (fun ppf -> function
      | Unix.WEXITED n -> Fmt.pf ppf "exit %d" n
      | Unix.WSIGNALED n -> Fmt.pf ppf "signal %d" n
      | Unix.WSTOPPED n -> Fmt.pf ppf "stopped %d" n)
    ( = )

let read_port_line fd =
  let ic = Unix.in_channel_of_descr fd in
  match int_of_string_opt (String.trim (input_line ic)) with
  | Some p -> p
  | None -> Alcotest.fail "child sent no port"

let write_port_line fd port =
  let line = string_of_int port ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

let serve_thread t =
  Thread.create
    (fun () ->
      match Service.serve t ~port:0 ~workers:2 ~quiet:true () with
      | Ok () -> ()
      | Error e -> Printf.eprintf "serve: %s\n%!" e)
    ()

(* In the forked child: no alcotest, no shared stdout; exits are the
   whole protocol (137 = the crash failpoint fired). *)
let primary_child ~dir ~site ~crash_at ~port_fd ~ack_fd =
  try
    let t =
      service ~config:{ (journal_config dir) with Service.stream_wait = 0.2 } ()
    in
    let _srv = serve_thread t in
    if not (wait_for (fun () -> Service.port t <> None)) then Unix._exit 4;
    write_port_line port_fd (Option.get (Service.port t));
    let current = ref (page_body t) in
    for i = 1 to 8 do
      if i = crash_at then Fault.set site Fault.Crash;
      let body = edited_body !current i in
      if (post t page_path body).Bx_repo.Webui.status = 200 then begin
        current := body;
        ignore (Unix.write ack_fd (Bytes.make 1 'a') 0 1)
      end;
      (* Do not race ahead of the replica: a poll at from = i+1 means
         everything through i is applied downstream. *)
      ignore (wait_for (fun () -> Service.last_stream_poll t >= i + 1))
    done;
    Unix._exit 2
  with _ -> Unix._exit 3

let drain_acks fd =
  let buf = Bytes.create 64 in
  let rec go n =
    match Unix.read fd buf 0 64 with 0 -> n | k -> go (n + k)
  in
  let n = go 0 in
  Unix.close fd;
  n

let primary_crash_case site =
  tc ("primary killed at " ^ site ^ ": promote within one edit of the acks")
    (isolated (fun () ->
         let pdir = fresh_dir "bxfo_p" and rdir = fresh_dir "bxfo_r" in
         let port_r, port_w = Unix.pipe () and ack_r, ack_w = Unix.pipe () in
         match Unix.fork () with
         | 0 ->
             Unix.close port_r;
             Unix.close ack_r;
             primary_child ~dir:pdir ~site ~crash_at:4 ~port_fd:port_w
               ~ack_fd:ack_w
         | pid ->
             Unix.close port_w;
             Unix.close ack_w;
             let port = read_port_line port_r in
             let repl = service ~config:(replica_config rdir) () in
             let follower =
               Thread.create
                 (fun () ->
                   Service.follow repl ~host:"" ~port ~wait:0.2
                     ~min_sleep:0.02 ~max_sleep:0.1 ())
                 ()
             in
             let acked = drain_acks ack_r in
             let _, status = Unix.waitpid [] pid in
             check exit_status "child died via the crash failpoint"
               (Unix.WEXITED 137) status;
             Fault.clear ();
             (* The primary is gone; flip the survivor writable. *)
             let epoch = ok_exn "promote" (Service.promote repl) in
             Thread.join follower;
             check Alcotest.bool "epoch advanced past the primary's" true
               (epoch >= 2);
             let rev = page_rev repl in
             check Alcotest.bool
               (Printf.sprintf "promoted rev %d within 1 of %d acked" rev
                  acked)
               true
               (rev >= acked - 1 && rev <= acked + 1);
             (* The promoted node takes writes... *)
             check Alcotest.int "write lands" 200
               (post repl page_path (edited_body (page_body repl) 77))
                 .Bx_repo.Webui.status;
             (* ...and the deposed primary, revived from its own journal,
                is fenced by the first poll carrying the new epoch: its
                stale acks can never contradict the promoted history. *)
             let old = service ~config:(journal_config pdir) () in
             check Alcotest.int "revival replays its journal" 409
               (stream old
                  (Printf.sprintf "from=1&epoch=%d&wait=0" epoch))
                 .Bx_repo.Webui.status;
             let w = post old page_path (edited_body (page_body old) 88) in
             check Alcotest.int "deposed writes rejected" 503
               w.Bx_repo.Webui.status;
             check Alcotest.bool "fenced" true
               (contains ~needle:"fenced" w.Bx_repo.Webui.body);
             Service.close old;
             Service.close repl))

(* The primary also runs in a forked child here: Unix.fork is illegal
   once any domain has been spawned in the process (OCaml 5), and
   Service.serve spawns worker domains — so every server involved in a
   fork-based test lives in its own child, and the test-runner process
   stays domain-free until the socket tests at the very end. *)
let storm_primary_child ~dir ~port_fd =
  try
    let t =
      service ~config:{ (journal_config dir) with Service.stream_wait = 0.2 } ()
    in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Service.shutdown t));
    let srv = serve_thread t in
    if not (wait_for (fun () -> Service.port t <> None)) then Unix._exit 4;
    write_port_line port_fd (Option.get (Service.port t));
    Thread.join srv;
    Unix._exit 0
  with _ -> Unix._exit 3

let follower_child ~dir ~site ~port_fd =
  try
    let port = read_port_line port_fd in
    let t = service ~config:(replica_config dir) () in
    Fault.set site (Fault.One_in (4, Fault.Crash));
    Service.follow t ~host:"" ~port ~wait:0.2 ~min_sleep:0.02 ~max_sleep:0.1
      ();
    Unix._exit 2
  with _ -> Unix._exit 3

let http ~port ~meth ~path ~body =
  match Replication.request ~host:"" ~port ~meth ~path ~body () with
  | Ok (status, resp) -> (status, resp)
  | Error e -> Alcotest.failf "%s %s: %s" meth path e

let follower_crash_case site =
  tc ("follower killed at " ^ site ^ ": recover the journal and catch up")
    (isolated (fun () ->
         let pdir = fresh_dir "bxfc_p" and rdir = fresh_dir "bxfc_r" in
         let pport_r, pport_w = Unix.pipe () in
         let prim_pid =
           match Unix.fork () with
           | 0 ->
               Unix.close pport_r;
               storm_primary_child ~dir:pdir ~port_fd:pport_w
           | pid ->
               Unix.close pport_w;
               pid
         in
         let port = read_port_line pport_r in
         let fport_r, fport_w = Unix.pipe () in
         match Unix.fork () with
         | 0 ->
             Unix.close fport_w;
             follower_child ~dir:rdir ~site ~port_fd:fport_r
         | pid ->
             Unix.close fport_r;
             write_port_line fport_w port;
             Unix.close fport_w;
             (* A write storm over the wire until the armed seam kills
                the follower. *)
             let status, body =
               http ~port ~meth:"GET" ~path:(page_path ^ ".wiki") ~body:""
             in
             check Alcotest.int "page fetch" 200 status;
             let current = ref body in
             let rec storm i =
               match Unix.waitpid [ Unix.WNOHANG ] pid with
               | 0, _ when i <= 200 ->
                   let body = edited_body !current i in
                   let status, _ =
                     http ~port ~meth:"POST" ~path:page_path ~body
                   in
                   check Alcotest.int "storm edit" 200 status;
                   current := body;
                   Thread.delay 0.15;
                   storm (i + 1)
               | 0, _ ->
                   Unix.kill pid Sys.sigkill;
                   ignore (Unix.waitpid [] pid);
                   Alcotest.fail "seam never fired"
               | _, status -> (status, i - 1)
             in
             let status, edits = storm 1 in
             check exit_status "child died via the crash failpoint"
               (Unix.WEXITED 137) status;
             Fault.clear ();
             (* The dead follower's directory is a crash-consistent
                prefix; reopening it replays cleanly and the survivor
                catches back up from wherever it stopped. *)
             let repl = service ~config:(replica_config rdir) () in
             let _, failed = Service.replay_stats repl in
             check Alcotest.int "no failed replays" 0 failed;
             check Alcotest.bool "recovered a prefix" true
               (page_rev repl <= edits);
             let s = sink repl in
             let rec catch_up tries =
               if tries = 0 then Alcotest.fail "never caught up"
               else
                 match Replication.poll_once ~host:"" ~port ~wait:0.2 s with
                 | Ok 0 when page_rev repl = edits -> ()
                 | _ -> catch_up (tries - 1)
             in
             catch_up 50;
             check Alcotest.int "caught up to the storm" edits (page_rev repl);
             check Alcotest.bool "synced" true (Service.replication_synced repl);
             Service.close repl;
             Unix.kill prim_pid Sys.sigterm;
             let _, pstatus = Unix.waitpid [] prim_pid in
             check exit_status "primary drained cleanly" (Unix.WEXITED 0)
               pstatus))

let promote_crash_case =
  tc "promotion killed at repl.promote: nothing lost, re-promote works"
    (isolated (fun () ->
         let dir = fresh_dir "bxpc" in
         match Unix.fork () with
         | 0 -> (
             try
               let t = service ~config:(replica_config dir) () in
               let base = page_body t in
               (match apply t [ record base ~seq:1 1 ] with
               | Ok () -> ()
               | Error _ -> Unix._exit 4);
               (sink t).Replication.note_progress ~behind:0;
               Fault.set "repl.promote" Fault.Crash;
               ignore (Service.promote t);
               Unix._exit 2
             with _ -> Unix._exit 3)
         | pid ->
             let _, status = Unix.waitpid [] pid in
             check exit_status "child died via the crash failpoint"
               (Unix.WEXITED 137) status;
             Fault.clear ();
             let t = service ~config:(replica_config dir) () in
             let _, failed = Service.replay_stats t in
             check Alcotest.int "no failed replays" 0 failed;
             check Alcotest.int "the applied record survived" 1 (page_rev t);
             check Alcotest.bool "still a replica" true (Service.is_replica t);
             (* The crash fired before the epoch was persisted, so the
                node is exactly as if promotion was never attempted; a
                re-promotion after re-syncing completes the failover. *)
             (sink t).Replication.note_progress ~behind:0;
             let e = ok_exn "re-promote" (Service.promote t) in
             check Alcotest.bool "epoch monotone" true (e >= 1);
             check Alcotest.int "writes land" 200
               (post t page_path (edited_body (page_body t) 2))
                 .Bx_repo.Webui.status;
             Service.close t))

let torture_tests =
  List.map primary_crash_case
    [
      "repl.stream.write";
      "journal.append.pre_write";
      "journal.append.pre_fsync";
      "journal.append.post_fsync";
    ]
  @ [ promote_crash_case ]
  @ List.map follower_crash_case [ "repl.frame.read"; "repl.apply" ]

(* ------------------------------------------------------------------ *)
(* Over real sockets: poll_once catch-up, snapshot bootstrap across a
   compaction, and the live follow loop ending in promotion. *)

let with_primary ?(config_of = fun dir -> journal_config dir) f =
  let pdir = fresh_dir "bxsock_p" in
  let t =
    service ~config:{ (config_of pdir) with Service.stream_wait = 0.2 } ()
  in
  let srv = serve_thread t in
  check Alcotest.bool "server up" true
    (wait_for (fun () -> Service.port t <> None));
  Fun.protect
    ~finally:(fun () ->
      Service.shutdown t;
      Thread.join srv)
    (fun () -> f t (Option.get (Service.port t)))

let socket_tests =
  [
    tc "poll_once catches a fresh replica up and follows new edits"
      (isolated (fun () ->
           with_primary (fun prim port ->
               edit prim 1;
               edit prim 2;
               edit prim 3;
               let rdir = fresh_dir "bxsock_r" in
               let repl = service ~config:(replica_config rdir) () in
               let s = sink repl in
               check Alcotest.int "caught up in one poll" 0
                 (ok_exn "poll" (Replication.poll_once ~host:"" ~port ~wait:0.2 s));
               check Alcotest.int "state streamed" 3 (page_rev repl);
               check Alcotest.int "epoch observed" 1 (Service.epoch repl);
               check Alcotest.bool "replica ready" true (Service.ready repl);
               edit prim 4;
               check Alcotest.int "incremental poll" 0
                 (ok_exn "poll" (Replication.poll_once ~host:"" ~port ~wait:0.2 s));
               check Alcotest.int "tail applied" 4 (page_rev repl);
               check Alcotest.bool "primary counted the stream" true
                 (contains
                    ~needle:"bxwiki_replication_streamed_records_total 4"
                    (metrics_page prim));
               Service.close repl)));
    tc "catch-up across a compaction bootstraps from the snapshot"
      (isolated (fun () ->
           with_primary
             ~config_of:(fun dir ->
               { (journal_config dir) with Service.compact_every = 2 })
             (fun prim port ->
               for i = 1 to 5 do
                 edit prim i
               done;
               (* Edits 1-4 were compacted into the snapshot; a replica
                  starting from seq 1 cannot be served from the log. *)
               let rdir = fresh_dir "bxsock_b" in
               let repl = service ~config:(replica_config rdir) () in
               let s = sink repl in
               ignore
                 (ok_exn "bootstrap poll"
                    (Replication.poll_once ~host:"" ~port ~wait:0.2 s));
               check Alcotest.int "snapshot installed" 4 (page_rev repl);
               check Alcotest.int "tail poll" 0
                 (ok_exn "poll" (Replication.poll_once ~host:"" ~port ~wait:0.2 s));
               check Alcotest.int "fully caught up" 5 (page_rev repl);
               check Alcotest.bool "bootstrap counted" true
                 (contains
                    ~needle:"bxwiki_replication_snapshot_bootstraps_total 1"
                    (metrics_page repl));
               check Alcotest.bool "lag settled to zero" true
                 (Service.replication_lag repl = 0.);
               check Alcotest.bool "ready" true (Service.ready repl);
               Service.close repl)));
    tc "the follow loop keeps a hot standby; promotion fences the wire"
      (isolated (fun () ->
           with_primary (fun prim port ->
               let rdir = fresh_dir "bxsock_f" in
               let repl = service ~config:(replica_config rdir) () in
               let follower =
                 Thread.create
                   (fun () ->
                     Service.follow repl ~host:"" ~port ~wait:0.2
                       ~min_sleep:0.02 ~max_sleep:0.1 ())
                   ()
               in
               check Alcotest.bool "replica syncs" true
                 (wait_for (fun () -> Service.replication_synced repl));
               edit prim 1;
               edit prim 2;
               check Alcotest.bool "edits replicate" true
                 (wait_for (fun () -> page_rev repl = 2));
               let epoch = ok_exn "promote" (Service.promote repl) in
               (* Promotion stops the follower on its own. *)
               Thread.join follower;
               check Alcotest.int "epoch bumped past the primary's" 2 epoch;
               (* A poll carrying the new epoch reaches the old primary
                  over the wire and fences it. *)
               (match
                  Replication.request ~host:"" ~port ~meth:"GET"
                    ~path:
                      (Printf.sprintf "/replication/stream?from=3&epoch=%d&wait=0"
                         epoch)
                    ~body:"" ()
                with
               | Ok (409, _) -> ()
               | Ok (st, _) -> Alcotest.failf "expected 409, got %d" st
               | Error e -> Alcotest.failf "request: %s" e);
               check Alcotest.bool "old primary fenced" true
                 (Service.fenced prim);
               check Alcotest.int "its writes now bounce" 503
                 (post prim page_path (edited_body (page_body prim) 9))
                   .Bx_repo.Webui.status;
               check Alcotest.int "the promoted node's land" 200
                 (post repl page_path (edited_body (page_body repl) 3))
                   .Bx_repo.Webui.status;
               Service.close repl)));
  ]

let () =
  Alcotest.run "bx_replication"
    [
      ("protocol", protocol_tests);
      ("journal", journal_tests);
      ("primary", primary_tests);
      ("replica", replica_tests);
      ("failover torture", torture_tests);
      ("sockets", socket_tests);
    ]
