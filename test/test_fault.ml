(* The robustness story: the failpoint subsystem itself, the CRC-framed
   v2 journal (torn tails, bit flips, v1 migration), crash-recovery
   torture at every journal failpoint seam (fork + simulated kill -9 +
   restart), QCheck random corruption of the log tail, and the service's
   overload behaviour — health/readiness probes, the failpoint admin
   route, and load shedding with 503 + Retry-After. *)

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

let service ?(config = Service.default_config) () =
  match Service.create ~config ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config dir =
  { Service.default_config with journal_dir = Some dir; compact_every = 0 }

let get t path = Service.handle t ~meth:"GET" ~path ~body:""
let post t path body = Service.handle t ~meth:"POST" ~path ~body

(* Every test leaves the failpoint table clean — the whole binary shares
   one table, and a leaked rule would poison unrelated tests. *)
let isolated f () =
  Fault.clear ();
  Fun.protect ~finally:Fault.clear f

(* ------------------------------------------------------------------ *)
(* The failpoint subsystem *)

let roundtrip spec =
  match Fault.configure spec with
  | Ok () -> Fault.describe ()
  | Error e -> Alcotest.failf "configure %S: %s" spec e

let fault_tests =
  [
    tc "disabled is the default; point is a no-op"
      (isolated (fun () ->
           check Alcotest.bool "enabled" false (Fault.enabled ());
           Fault.point "nowhere.in.particular"));
    tc "action grammar parses and canonicalises"
      (isolated (fun () ->
           check Alcotest.string "spec"
             "a=crash\nb=delay(25)\nc=error\nd=error(disk full)\n\
              e=one_in(3,error)\nf=times(2,delay(5))"
             (roundtrip
                "a=crash; b=delay(25);c=error;d=error(disk full);\
                 e=one_in(3,error); f=times(2,delay(5))");
           check Alcotest.bool "armed" true (Fault.enabled ());
           check Alcotest.string "empty spec clears" "" (roundtrip "  ");
           check Alcotest.bool "disarmed" false (Fault.enabled ())));
    tc "malformed specs are rejected and leave rules untouched"
      (isolated (fun () ->
           ignore (roundtrip "keep=error");
           List.iter
             (fun bad ->
               match Fault.configure bad with
               | Ok () -> Alcotest.failf "accepted %S" bad
               | Error _ -> ())
             [ "nonsense"; "=error"; "a=explode"; "a=one_in(0,error)";
               "a=delay(x)"; "a=times(2)" ];
           check Alcotest.string "previous rules intact" "keep=error"
             (Fault.describe ())));
    tc "error raises Injected with the site name"
      (isolated (fun () ->
           Fault.set "s" (Fault.Error "boom");
           (match Fault.point "s" with
           | () -> Alcotest.fail "expected Injected"
           | exception Fault.Injected m ->
               check Alcotest.string "message" "s: boom" m);
           Fault.point "someone.else" (* other sites unaffected *)));
    tc "one_in fires deterministically on every nth hit"
      (isolated (fun () ->
           Fault.set "s" (Fault.One_in (3, Fault.Error "injected"));
           let fired = ref 0 in
           for _ = 1 to 9 do
             try Fault.point "s" with Fault.Injected _ -> incr fired
           done;
           check Alcotest.int "fired 3 of 9" 3 !fired;
           check
             Alcotest.(list (triple string int int))
             "stats" [ ("s", 9, 3) ] (Fault.stats ())));
    tc "times fires n times then heals — the retry-demo shape"
      (isolated (fun () ->
           Fault.set "s" (Fault.Times (2, Fault.Error "injected"));
           let outcomes =
             List.init 5 (fun _ ->
                 match Fault.point "s" with
                 | () -> "ok"
                 | exception Fault.Injected _ -> "fail")
           in
           check
             Alcotest.(list string)
             "first two fail" [ "fail"; "fail"; "ok"; "ok"; "ok" ] outcomes));
    tc "delay sleeps roughly the configured time"
      (isolated (fun () ->
           Fault.set "s" (Fault.Delay 0.05);
           let t0 = Unix.gettimeofday () in
           Fault.point "s";
           check Alcotest.bool "slept >= 40ms" true
             (Unix.gettimeofday () -. t0 >= 0.04)));
    tc "set Off removes a single site"
      (isolated (fun () ->
           Fault.set "a" (Fault.Error "injected");
           Fault.set "b" (Fault.Error "injected");
           Fault.set "a" Fault.Off;
           check Alcotest.string "only b" "b=error" (Fault.describe ());
           Fault.point "a"));
  ]

(* ------------------------------------------------------------------ *)
(* Journal v2 framing, recovery and v1 migration *)

let with_log dir f =
  match Journal.open_ ~dir ~next_seq:1 with
  | Error e -> Alcotest.failf "journal open: %s" e
  | Ok j -> Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)

let append_exn j ~path ~body =
  match Journal.append j ~path ~body with
  | Ok seq -> seq
  | Error e -> Alcotest.failf "append: %s" e

let read_exn dir =
  match Journal.read ~dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "read: %s" e

let log_size dir = (Unix.stat (Journal.log_file dir)).Unix.st_size

let entry = Alcotest.testable
    (fun ppf { Journal.seq; path; body } ->
      Fmt.pf ppf "%d:%s:%S" seq path body)
    ( = )

let clobber_byte file pos byte =
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 byte) 0 1);
  Unix.close fd

let journal_tests =
  [
    tc "crc32 matches the IEEE check value" (fun () ->
        check Alcotest.int "empty" 0 (Journal.crc32 "");
        check Alcotest.int "123456789" 0xCBF43926 (Journal.crc32 "123456789"));
    tc "fresh log carries the v2 magic and round-trips records" (fun () ->
        let dir = fresh_dir "bxj2" in
        with_log dir (fun j ->
            check Alcotest.int "seq 1" 1 (append_exn j ~path:"/a" ~body:"one");
            check Alcotest.int "seq 2" 2
              (append_exn j ~path:"/b" ~body:"two\nlines"));
        let r = read_exn dir in
        check Alcotest.int "version" 2 r.Journal.version;
        check Alcotest.bool "not torn" false r.Journal.torn;
        check Alcotest.int "no crc errors" 0 r.Journal.crc_errors;
        check (Alcotest.list entry) "entries"
          [
            { Journal.seq = 1; path = "/a"; body = "one" };
            { Journal.seq = 2; path = "/b"; body = "two\nlines" };
          ]
          r.Journal.entries);
    tc "a torn tail is reported, then truncated away by open_" (fun () ->
        let dir = fresh_dir "bxtorn" in
        with_log dir (fun j -> ignore (append_exn j ~path:"/a" ~body:"one"));
        let intact = log_size dir in
        (* Half a record: a plausible length prefix and nothing else —
           what a kill -9 mid-write leaves behind. *)
        let fd =
          Unix.openfile (Journal.log_file dir) [ Unix.O_WRONLY; Unix.O_APPEND ] 0
        in
        ignore (Unix.write_substring fd "\x00\x00\x00\x30partial" 0 11);
        Unix.close fd;
        let r = read_exn dir in
        check Alcotest.bool "torn" true r.Journal.torn;
        check Alcotest.int "crc errors" 0 r.Journal.crc_errors;
        check Alcotest.int "one intact entry" 1 (List.length r.Journal.entries);
        check Alcotest.int "valid prefix" intact r.Journal.valid_bytes;
        with_log dir (fun _ -> ());
        check Alcotest.int "open_ truncated the tail" intact (log_size dir);
        check Alcotest.bool "clean after truncation" false
          (read_exn dir).Journal.torn);
    tc "a bit flip inside a record is a crc error, not silent garbage"
      (fun () ->
        let dir = fresh_dir "bxflip" in
        with_log dir (fun j ->
            ignore (append_exn j ~path:"/a" ~body:"one");
            ignore (append_exn j ~path:"/b" ~body:"two"));
        let size = log_size dir in
        (* Flip a byte in the last record's payload. *)
        clobber_byte (Journal.log_file dir) (size - 1) '\xff';
        let r = read_exn dir in
        check Alcotest.int "crc errors" 1 r.Journal.crc_errors;
        check (Alcotest.list entry) "prefix survives"
          [ { Journal.seq = 1; path = "/a"; body = "one" } ]
          r.Journal.entries;
        (* open_ truncates the corrupt record and appending resumes. *)
        with_log dir (fun j ->
            ignore (append_exn j ~path:"/c" ~body:"three"));
        let r = read_exn dir in
        check Alcotest.int "healed" 0 r.Journal.crc_errors;
        check
          Alcotest.(list string)
          "paths" [ "/a"; "/c" ]
          (List.map (fun e -> e.Journal.path) r.Journal.entries));
    tc "a v1 log is read and migrated to v2 in place" (fun () ->
        let dir = fresh_dir "bxv1" in
        let oc = open_out_bin (Journal.log_file dir) in
        output_string oc (Journal.encode_v1 ~seq:1 ~path:"/a" ~body:"one");
        output_string oc (Journal.encode_v1 ~seq:2 ~path:"/b" ~body:"two");
        close_out oc;
        check Alcotest.int "reads as v1" 1 (read_exn dir).Journal.version;
        with_log dir (fun j ->
            (* open_ migrated before appending, so this append is v2. *)
            ignore (append_exn j ~path:"/c" ~body:"three"));
        let r = read_exn dir in
        check Alcotest.int "now v2" 2 r.Journal.version;
        check
          Alcotest.(list string)
          "all three records" [ "/a"; "/b"; "/c" ]
          (List.map (fun e -> e.Journal.path) r.Journal.entries);
        let ic = open_in_bin (Journal.log_file dir) in
        let head = really_input_string ic (String.length Journal.magic) in
        close_in ic;
        check Alcotest.string "magic on disk" Journal.magic head);
    tc "an empty log file is adopted as a fresh v2 segment" (fun () ->
        (* A crash can leave journal.log created but zero bytes long —
           before even the magic was written.  That is a fresh log, not
           a corrupt one. *)
        let dir = fresh_dir "bxempty" in
        close_out (open_out_bin (Journal.log_file dir));
        check Alcotest.int "zero bytes" 0 (log_size dir);
        let r = read_exn dir in
        check Alcotest.int "reads as v2" 2 r.Journal.version;
        check Alcotest.bool "not torn" false r.Journal.torn;
        with_log dir (fun j -> ignore (append_exn j ~path:"/a" ~body:"one"));
        let r = read_exn dir in
        check Alcotest.int "header stamped, record landed" 1
          (List.length r.Journal.entries);
        let ic = open_in_bin (Journal.log_file dir) in
        let head = really_input_string ic (String.length Journal.magic) in
        close_in ic;
        check Alcotest.string "magic on disk" Journal.magic head);
    tc "a v1 log ending exactly on a record boundary migrates whole"
      (fun () ->
        let dir = fresh_dir "bxv1edge" in
        let oc = open_out_bin (Journal.log_file dir) in
        output_string oc (Journal.encode_v1 ~seq:1 ~path:"/a" ~body:"one");
        close_out oc;
        let r = read_exn dir in
        check Alcotest.int "v1" 1 r.Journal.version;
        check Alcotest.bool "clean boundary is not torn" false r.Journal.torn;
        (* Open purely for the side effect: migrate, append nothing. *)
        with_log dir (fun _ -> ());
        let r = read_exn dir in
        check Alcotest.int "v2 after open" 2 r.Journal.version;
        check (Alcotest.list entry) "the record survived intact"
          [ { Journal.seq = 1; path = "/a"; body = "one" } ]
          r.Journal.entries);
    tc "reopening a migrated log is idempotent" (fun () ->
        let dir = fresh_dir "bxv1twice" in
        let oc = open_out_bin (Journal.log_file dir) in
        output_string oc (Journal.encode_v1 ~seq:1 ~path:"/a" ~body:"one");
        output_string oc (Journal.encode_v1 ~seq:2 ~path:"/b" ~body:"two");
        close_out oc;
        with_log dir (fun _ -> ());
        let migrated = log_size dir in
        (* The second open must neither re-migrate nor truncate. *)
        with_log dir (fun _ -> ());
        check Alcotest.int "size unchanged" migrated (log_size dir);
        let r = read_exn dir in
        check Alcotest.int "still v2" 2 r.Journal.version;
        check
          Alcotest.(list string)
          "both records, once each" [ "/a"; "/b" ]
          (List.map (fun e -> e.Journal.path) r.Journal.entries));
    tc "checkpoint resets the log to a bare segment header" (fun () ->
        let dir = fresh_dir "bxck" in
        let t = service ~config:(journal_config dir) () in
        let page = get t "/examples:celsius.wiki" in
        check Alcotest.int "GET" 200 page.Bx_repo.Webui.status;
        let saved = post t "/examples:celsius" page.Bx_repo.Webui.body in
        check Alcotest.int "POST" 200 saved.Bx_repo.Webui.status;
        (match Service.checkpoint t with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "checkpoint: %s" e);
        check Alcotest.int "log = magic only" (String.length Journal.magic)
          (log_size dir);
        Service.close t);
  ]

(* ------------------------------------------------------------------ *)
(* Crash-recovery torture: fork a child that arms a crash failpoint at
   one journal seam, edits until the simulated kill -9 fires, and
   reports each acknowledged edit over a pipe.  The parent then reopens
   the journal directory and checks the recovered store: every acked
   edit survived, plus at most the one in-flight edit that had reached
   the log but whose ack never left (a crash after the write/fsync). *)

let page_path = "/examples:celsius"
let rev_re = Str.regexp "temperature[0-9]*"

let page_rev t =
  (* The edit counter the torture child embeds in the page text:
     "temperature<k>" after k edits, bare "temperature" before any. *)
  let body = (get t (page_path ^ ".wiki")).Bx_repo.Webui.body in
  ignore (Str.search_forward rev_re body 0);
  let m = Str.matched_string body in
  let digits = String.sub m 11 (String.length m - 11) in
  if digits = "" then 0 else int_of_string digits

let torture_child ~dir ~ack_fd ~run =
  (* In the forked child: no alcotest, no printing, exit only via the
     crash failpoint (or _exit 2 if it never fired — the parent treats
     that as a test failure). *)
  try
    let t = service ~config:(journal_config dir) () in
    let current = ref (get t (page_path ^ ".wiki")).Bx_repo.Webui.body in
    run t current ack_fd;
    Unix._exit 2
  with _ -> Unix._exit 3

let edit_once t current i ack_fd =
  let body =
    Str.global_replace rev_re ("temperature" ^ string_of_int i) !current
  in
  let resp = post t page_path body in
  if resp.Bx_repo.Webui.status = 200 then begin
    current := body;
    ignore (Unix.write ack_fd (Bytes.make 1 'a') 0 1)
  end

let run_torture ~run =
  let dir = fresh_dir "bxcrash" in
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      torture_child ~dir ~ack_fd:w ~run
  | pid ->
      Unix.close w;
      let acked = ref 0 in
      let buf = Bytes.create 64 in
      let rec drain () =
        match Unix.read r buf 0 64 with
        | 0 -> ()
        | n ->
            acked := !acked + n;
            drain ()
      in
      drain ();
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      check
        (Alcotest.testable
           (fun ppf -> function
             | Unix.WEXITED n -> Fmt.pf ppf "exit %d" n
             | Unix.WSIGNALED n -> Fmt.pf ppf "signal %d" n
             | Unix.WSTOPPED n -> Fmt.pf ppf "stopped %d" n)
           ( = ))
        "child died via the crash failpoint" (Unix.WEXITED 137) status;
      (dir, !acked)

let recover dir =
  let t = service ~config:(journal_config dir) () in
  let applied, failed = Service.replay_stats t in
  check Alcotest.int "no failed replays" 0 failed;
  (t, applied)

let append_seam_case site =
  tc ("crash at " ^ site ^ " loses at most the in-flight edit")
    (isolated (fun () ->
         let crash_at = 3 in
         let dir, acked =
           run_torture ~run:(fun t current ack_fd ->
               for i = 1 to 10 do
                 if i = crash_at then Fault.set site Fault.Crash;
                 edit_once t current i ack_fd
               done)
         in
         Fault.clear ();
         let t, applied = recover dir in
         check Alcotest.bool
           (Printf.sprintf "recovered %d of %d acked (+<=1)" applied acked)
           true
           (applied = acked || applied = acked + 1);
         check Alcotest.int "page text matches the recovered edit count"
           applied (page_rev t);
         Service.close t))

let checkpoint_seam_case site =
  tc ("crash at " ^ site ^ " loses nothing already acked")
    (isolated (fun () ->
         let edits = 3 in
         let dir, acked =
           run_torture ~run:(fun t current ack_fd ->
               for i = 1 to edits do
                 edit_once t current i ack_fd
               done;
               Fault.set site Fault.Crash;
               ignore (Service.checkpoint t))
         in
         Fault.clear ();
         check Alcotest.int "all edits acked before the crash" edits acked;
         let t, _applied = recover dir in
         (* Whatever mix of snapshot and log survived, replay must
            reconstruct exactly the acked state — and never double-apply
            an edit that made it into both. *)
         check Alcotest.int "recovered state = last acked state" edits
           (page_rev t);
         Service.close t))

let torture_tests =
  List.map append_seam_case
    [
      "journal.append.pre_write";
      "journal.append.pre_fsync";
      "journal.append.post_fsync";
    ]
  @ List.map checkpoint_seam_case
      [
        "journal.checkpoint.pre_save";
        "journal.checkpoint.pre_manifest";
        "journal.checkpoint.pre_swap";
        "journal.checkpoint.pre_truncate";
      ]

(* ------------------------------------------------------------------ *)
(* QCheck: a random byte clobbered anywhere after the segment header
   never yields garbage entries — recovery returns a strict prefix of
   what was written, and any shortfall is flagged torn or crc-failed. *)

let prefix_of ~full prefix =
  List.length prefix <= List.length full
  && List.for_all2 ( = ) prefix
       (List.filteri (fun i _ -> i < List.length prefix) full)

let corruption_gen =
  QCheck2.Gen.(triple (1 -- 6) (0 -- 10_000) (0 -- 255))

let corruption_test =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"random tail corruption recovers a prefix"
       corruption_gen (fun (n, pos_seed, byte) ->
         let dir = fresh_dir "bxq" in
         let entries =
           List.init n (fun i ->
               {
                 Journal.seq = i + 1;
                 path = Printf.sprintf "/p%d" i;
                 body = String.concat "\n" (List.init (i + 1) string_of_int);
               })
         in
         let oc = open_out_bin (Journal.log_file dir) in
         output_string oc Journal.magic;
         List.iter
           (fun { Journal.seq; path; body } ->
             output_string oc (Journal.encode ~seq ~path ~body))
           entries;
         close_out oc;
         let size = log_size dir in
         let header = String.length Journal.magic in
         let pos = header + (pos_seed mod (size - header)) in
         clobber_byte (Journal.log_file dir) pos (Char.chr byte);
         let r = read_exn dir in
         let ok =
           prefix_of ~full:entries r.Journal.entries
           && (List.length r.Journal.entries = n
              || r.Journal.torn || r.Journal.crc_errors > 0)
         in
         Sys.remove (Journal.log_file dir);
         Unix.rmdir dir;
         ok))

(* ------------------------------------------------------------------ *)
(* Service-level fault handling: health probes, the admin route, seam
   injection surfacing as 503/500, compaction failure accounting. *)

let service_tests =
  [
    tc "healthz is always 200; readyz follows the journal's health"
      (isolated (fun () ->
           let dir = fresh_dir "bxready" in
           let t = service ~config:(journal_config dir) () in
           check Alcotest.int "healthz" 200 (get t "/healthz").Bx_repo.Webui.status;
           check Alcotest.string "healthz body" "ok\n"
             (get t "/healthz").Bx_repo.Webui.body;
           check Alcotest.int "readyz" 200 (get t "/readyz").Bx_repo.Webui.status;
           check Alcotest.bool "ready" true (Service.ready t);
           Fault.set "journal.append.pre_write" (Fault.Error "disk gone");
           let page = (get t (page_path ^ ".wiki")).Bx_repo.Webui.body in
           check Alcotest.int "append failure surfaces as 500" 500
             (post t page_path page).Bx_repo.Webui.status;
           let ready = get t "/readyz" in
           check Alcotest.int "readyz flips" 503 ready.Bx_repo.Webui.status;
           check Alcotest.bool "names the journal" true
             (contains ~needle:"journal_unwritable" ready.Bx_repo.Webui.body);
           Fault.clear ();
           check Alcotest.int "healed append" 200
             (post t page_path page).Bx_repo.Webui.status;
           check Alcotest.int "ready again" 200
             (get t "/readyz").Bx_repo.Webui.status;
           Service.close t));
    tc "injected lock faults surface as 503 and heal"
      (isolated (fun () ->
           let t = service () in
           Fault.set "service.lock.read" (Fault.Times (1, Fault.Error "injected"));
           let r = get t "/examples:celsius" in
           check Alcotest.int "injected GET" 503 r.Bx_repo.Webui.status;
           check Alcotest.bool "names the site" true
             (contains ~needle:"service.lock.read" r.Bx_repo.Webui.body);
           check Alcotest.int "healed" 200
             (get t "/examples:celsius").Bx_repo.Webui.status;
           Fault.set "service.lock.write" (Fault.Times (1, Fault.Error "injected"));
           let page = (get t (page_path ^ ".wiki")).Bx_repo.Webui.body in
           check Alcotest.int "injected POST" 503
             (post t page_path page).Bx_repo.Webui.status;
           check Alcotest.int "healed POST" 200
             (post t page_path page).Bx_repo.Webui.status));
    tc "slens batch workers propagate injection without leaking domains"
      (isolated (fun () ->
           let lens = Bx_catalogue.Composers_string.lens in
           let sources =
             List.init 6 Bx_catalogue.Composers_string.synthetic_source
           in
           Fault.set "slens.batch.worker" (Fault.Times (1, Fault.Error "injected"));
           (match Bx_strlens.Slens.get_all ~workers:3 lens sources with
           | _ -> Alcotest.fail "expected Injected"
           | exception Fault.Injected _ -> ());
           (* The table healed; the same fan-out now succeeds, which also
              means every helper domain from the failed run was joined. *)
           check Alcotest.int "batch answers after healing" 6
             (List.length (Bx_strlens.Slens.get_all ~workers:3 lens sources))));
    tc "failpoint admin route configures, reports and clears"
      (isolated (fun () ->
           let config =
             { Service.default_config with failpoints_admin = true }
           in
           let t = service ~config () in
           let put body =
             Service.handle t ~meth:"PUT" ~path:"/debug/failpoints" ~body
           in
           check Alcotest.int "GET empty" 200
             (get t "/debug/failpoints").Bx_repo.Webui.status;
           let r = put "service.lock.read=times(1,error)" in
           check Alcotest.int "PUT" 200 r.Bx_repo.Webui.status;
           check Alcotest.bool "describes the rule" true
             (contains ~needle:"service.lock.read=times(1,error)"
                r.Bx_repo.Webui.body);
           check Alcotest.int "rule is live" 503
             (get t "/examples:celsius").Bx_repo.Webui.status;
           check Alcotest.int "bad spec" 400 (put "garbage").Bx_repo.Webui.status;
           check Alcotest.bool "bad spec left rules alone" true
             (Fault.enabled ());
           check Alcotest.int "empty body clears" 200 (put "").Bx_repo.Webui.status;
           check Alcotest.bool "cleared" false (Fault.enabled ())));
    tc "admin route is 404 unless enabled"
      (isolated (fun () ->
           let config =
             { Service.default_config with failpoints_admin = false }
           in
           let t = service ~config () in
           check Alcotest.int "GET" 404
             (get t "/debug/failpoints").Bx_repo.Webui.status));
    tc "failed compaction is counted and the service keeps serving"
      (isolated (fun () ->
           let dir = fresh_dir "bxcompact" in
           let t = service ~config:(journal_config dir) () in
           let page = (get t (page_path ^ ".wiki")).Bx_repo.Webui.body in
           check Alcotest.int "edit" 200 (post t page_path page).Bx_repo.Webui.status;
           Fault.set "journal.checkpoint.pre_save" (Fault.Error "no space");
           (match Service.checkpoint t with
           | Ok _ -> Alcotest.fail "checkpoint should have failed"
           | Error _ -> ());
           Fault.clear ();
           let m = Service.metrics_text t in
           check Alcotest.bool "failure counted" true
             (contains
                ~needle:"bxwiki_journal_compactions_total{result=\"error\"} 1" m);
           check Alcotest.bool "gauge shows last failure" true
             (contains ~needle:"bxwiki_journal_last_compaction_ok 0" m);
           check Alcotest.int "still serving" 200
             (get t "/examples:celsius").Bx_repo.Webui.status;
           (match Service.checkpoint t with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "healed checkpoint: %s" e);
           check Alcotest.bool "gauge recovers" true
             (contains
                ~needle:"bxwiki_journal_last_compaction_ok 1"
                (Service.metrics_text t));
           Service.close t));
    tc "torn-tail recovery is surfaced in /metrics"
      (isolated (fun () ->
           let dir = fresh_dir "bxtornm" in
           with_log dir (fun j -> ignore (append_exn j ~path:"/a" ~body:"x"));
           let fd =
             Unix.openfile (Journal.log_file dir)
               [ Unix.O_WRONLY; Unix.O_APPEND ]
               0
           in
           ignore (Unix.write_substring fd "\x00\x00\x01\x00oops" 0 8);
           Unix.close fd;
           let t = service ~config:(journal_config dir) () in
           check Alcotest.bool "torn tail counted" true
             (contains ~needle:"bxwiki_journal_torn_tail_total 1"
                (Service.metrics_text t));
           Service.close t));
    tc "fault counters appear in /metrics"
      (isolated (fun () ->
           let t = service () in
           Fault.set "service.lock.read" (Fault.Times (1, Fault.Error "injected"));
           ignore (get t "/examples:celsius");
           ignore (get t "/examples:celsius");
           let m = Service.metrics_text t in
           check Alcotest.bool "hits" true
             (contains
                ~needle:"bxwiki_fault_hits_total{site=\"service.lock.read\"} 2" m);
           check Alcotest.bool "fired" true
             (contains
                ~needle:"bxwiki_fault_fired_total{site=\"service.lock.read\"} 1" m)));
    tc "the batch failpoint fires on the serving worker's inline path"
      (isolated (fun () ->
           let module CS = Bx_catalogue.Composers_string in
           let t =
             match
               Service.create ~lenses:[ ("composers", CS.lens) ] ~seed ()
             with
             | Ok t -> t
             | Error e -> Alcotest.fail e
           in
           let body =
             String.concat "\x1e" (List.init 4 (fun i -> CS.synthetic_source (i + 1)))
           in
           let batch () = post t "/slens/composers/get_batch" body in
           Fault.set "slens.batch.worker" (Fault.Times (1, Fault.Error "injected"));
           let r = batch () in
           check Alcotest.int "injected batch" 503 r.Bx_repo.Webui.status;
           check Alcotest.bool "names the site" true
             (contains ~needle:"slens.batch.worker" r.Bx_repo.Webui.body);
           check Alcotest.int "healed batch" 200 (batch ()).Bx_repo.Webui.status));
  ]

(* ------------------------------------------------------------------ *)
(* Load shedding over real sockets: a slow worker (injected read delay),
   a tiny queue, and a burst of twice the queue capacity.  The excess
   must be answered immediately with 503 + Retry-After, and /readyz must
   flip while the queue sits at its high-water mark. *)

let raw_request port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = "GET /examples:celsius HTTP/1.1\r\nConnection: close\r\n\r\n" in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Bytes.create 65536 in
      let out = Buffer.create 1024 in
      let rec drain () =
        match Unix.read sock buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out buf 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      Buffer.contents out)

let wait_for ?(timeout = 5.0) f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let shedding_tests =
  [
    tc "overload sheds 503 + Retry-After and flips /readyz"
      (isolated (fun () ->
           (* Each request parks its worker for 300 ms at the read seam;
              with one worker and a queue of two, a burst of 2x queue
              capacity + in-flight must shed. *)
           Fault.set "httpd.read" (Fault.Delay 0.3);
           let config =
             { Service.default_config with queue_capacity = 2; brownout = false }
           in
           let t = service ~config () in
           let server =
             Thread.create
               (fun () ->
                 match Service.serve t ~port:0 ~workers:1 ~quiet:true () with
                 | Ok () -> ()
                 | Error e -> Printf.eprintf "serve: %s\n%!" e)
               ()
           in
           check Alcotest.bool "server came up" true
             (wait_for (fun () -> Service.port t <> None));
           let port = Option.get (Service.port t) in
           let n = 8 in
           let results = Array.make n "" in
           let clients =
             List.init n (fun i ->
                 Thread.create (fun () -> results.(i) <- raw_request port) ())
           in
           let flipped = wait_for (fun () -> not (Service.ready t)) in
           List.iter Thread.join clients;
           let shed, served =
             Array.fold_left
               (fun (shed, served) r ->
                 if contains ~needle:"503" r && contains ~needle:"Retry-After" r
                 then (shed + 1, served)
                 else if contains ~needle:"200" r then (shed, served + 1)
                 else (shed, served))
               (0, 0) results
           in
           check Alcotest.bool
             (Printf.sprintf "some of %d requests shed (got %d)" n shed)
             true (shed >= 1);
           check Alcotest.bool "some requests served" true (served >= 1);
           check Alcotest.bool "readyz flipped under load" true flipped;
           check Alcotest.bool "sheds counted" true
             (contains ~needle:"bxwiki_shed_total{reason=\"queue_full\"}"
                (Service.metrics_text t));
           Fault.clear ();
           check Alcotest.bool "ready again once drained" true
             (wait_for (fun () -> Service.ready t));
           Service.shutdown t;
           Thread.join server));
  ]

let () =
  Alcotest.run "bx_fault"
    [
      ("fault points", fault_tests);
      ("journal v2", journal_tests);
      ("crash torture", torture_tests);
      ("corruption", [ corruption_test ]);
      ("service faults", service_tests);
      ("shedding", shedding_tests);
    ]
