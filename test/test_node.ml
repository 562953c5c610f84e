(* The replication role state machine: every transition on its own,
   with explicit clocks, and the monotonic ones under two domains. *)

open Bx_server

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let replica ?(now = 0.) () = Node.create ~dir:None ~replica:true ~wait:2. ~now
let primary () = Node.create ~dir:None ~replica:false ~wait:2. ~now:0.

(* A journal directory that cannot be written: a regular file. *)
let unwritable_dir () =
  let file = Filename.temp_file "bxnode" ".notadir" in
  at_exit (fun () -> try Sys.remove file with Sys_error _ -> ());
  file

let temp_dir () =
  let dir = Filename.temp_file "bxnode" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> Bx_repo.Fsio.remove_tree dir);
  dir

let state n = (Node.is_replica n, Node.epoch n, Node.fenced n)
let role = Alcotest.(triple bool int bool)

let boot_tests =
  [
    tc "a primary boots at epoch 1 and persists it" (fun () ->
        let dir = temp_dir () in
        let n = Node.create ~dir:(Some dir) ~replica:false ~wait:2. ~now:0. in
        check role "primary, epoch 1" (false, 1, false) (state n);
        check Alcotest.int "persisted" 1 (Journal.read_epoch ~dir));
    tc "a replica boots at its persisted epoch" (fun () ->
        let dir = temp_dir () in
        let boot () = Node.create ~dir:(Some dir) ~replica:true ~wait:2. ~now:0. in
        check role "nothing persisted: epoch 0" (true, 0, false) (state (boot ()));
        Node.observe_epoch (boot ()) 4;
        check role "replica, epoch 4" (true, 4, false) (state (boot ())));
  ]

let transition_tests =
  [
    tc "observe_epoch only raises the epoch" (fun () ->
        let n = replica () in
        Node.observe_epoch n 5;
        Node.observe_epoch n 3;
        check Alcotest.int "kept 5" 5 (Node.epoch n);
        Node.observe_epoch n 7;
        check Alcotest.int "raised to 7" 7 (Node.epoch n));
    tc "observe_epoch persists what it raises to" (fun () ->
        let dir = temp_dir () in
        let n = Node.create ~dir:(Some dir) ~replica:true ~wait:2. ~now:0. in
        Node.observe_epoch n 6;
        Node.observe_epoch n 2;
        check Alcotest.int "on disk" 6 (Journal.read_epoch ~dir));
    tc "fence only raises the fencing epoch" (fun () ->
        let n = primary () in
        check Alcotest.bool "not fenced" false (Node.fenced n);
        Node.fence n 4;
        Node.fence n 2;
        check (Alcotest.option Alcotest.string) "barrier names the higher epoch"
          (Some "fenced: deposed by epoch 4, writes rejected\n")
          (Node.write_barrier n));
    tc "note_poll only raises the acknowledged cursor" (fun () ->
        let n = primary () in
        Node.note_poll n 9;
        Node.note_poll n 4;
        check Alcotest.int "kept 9" 9 (Node.last_stream_from n));
    tc "note_progress marks synced only when caught up" (fun () ->
        let n = replica () in
        Node.note_progress n ~now:1. ~behind:3;
        check Alcotest.(pair bool int) "behind, unsynced" (false, 3)
          (Node.synced n, Node.behind n);
        Node.note_progress n ~now:2. ~behind:0;
        check Alcotest.(pair bool int) "synced" (true, 0)
          (Node.synced n, Node.behind n);
        Node.note_progress n ~now:3. ~behind:2;
        check Alcotest.bool "stays synced" true (Node.synced n));
    tc "lag counts from birth, then from the last sync, less the hold"
      (fun () ->
        let n = replica ~now:100. () in
        let lag now = Node.lag n ~now in
        check (Alcotest.float 1e-9) "never synced" 5. (lag 105.);
        Node.note_progress n ~now:110. ~behind:0;
        (* wait = 2 s: an idle replica is allowed 3 s *)
        check (Alcotest.float 1e-9) "within the hold" 0. (lag 112.);
        check (Alcotest.float 1e-9) "past the hold" 4. (lag 117.);
        Node.set_allowance n ~wait:10.;
        check (Alcotest.float 1e-9) "a longer hold" 0. (lag 117.);
        Node.note_progress n ~now:118. ~behind:4;
        check (Alcotest.float 1e-9) "behind: since the last sync" 10. (lag 120.);
        check (Alcotest.float 1e-9) "a primary never lags" 0.
          (Node.lag (primary ()) ~now:1e6));
    tc "readiness reasons follow the role" (fun () ->
        let n = replica ~now:0. () in
        let ready now = Node.readiness n ~now ~lag_threshold:5. in
        check Alcotest.(list string) "syncing" [ "replica_syncing" ] (ready 1.);
        Node.note_progress n ~now:10. ~behind:0;
        check Alcotest.(list string) "caught up" [] (ready 12.);
        check Alcotest.(list string) "lagging" [ "replication_lag" ] (ready 30.);
        let p = primary () in
        check Alcotest.(list string) "primary" []
          (Node.readiness p ~now:1e6 ~lag_threshold:0.);
        Node.fence p 3;
        check Alcotest.(list string) "fenced" [ "fenced" ]
          (Node.readiness p ~now:0. ~lag_threshold:0.));
    tc "the write barrier refuses on a replica only" (fun () ->
        check (Alcotest.option Alcotest.string) "replica"
          (Some "read-only replica: writes go to the primary\n")
          (Node.write_barrier (replica ()));
        check (Alcotest.option Alcotest.string) "primary" None
          (Node.write_barrier (primary ())));
  ]

let promote_tests =
  [
    tc "promote refuses a never-synced replica at epoch 0" (fun () ->
        let n = replica () in
        check Alcotest.(result int string) "refused"
          (Error "replica has never synced with a primary") (Node.promote n);
        check role "unchanged" (true, 0, false) (state n));
    tc "promote refuses a primary" (fun () ->
        let n = primary () in
        check Alcotest.(result int string) "refused" (Error "already primary")
          (Node.promote n);
        check role "unchanged" (false, 1, false) (state n));
    tc "promote a synced replica: epoch + 1, persisted, writable" (fun () ->
        let dir = temp_dir () in
        let n = Node.create ~dir:(Some dir) ~replica:true ~wait:2. ~now:0. in
        Node.note_progress n ~now:1. ~behind:0;
        check Alcotest.(result int string) "epoch 1" (Ok 1) (Node.promote n);
        check role "primary" (false, 1, false) (state n);
        check Alcotest.int "persisted" 1 (Journal.read_epoch ~dir);
        check (Alcotest.option Alcotest.string) "writable" None
          (Node.write_barrier n));
    tc "promote an unsynced replica that has seen an epoch" (fun () ->
        let n = replica () in
        Node.observe_epoch n 3;
        check Alcotest.(result int string) "epoch 4" (Ok 4) (Node.promote n);
        check role "primary" (false, 4, false) (state n));
    tc "a failed persist leaves the role as it was" (fun () ->
        let n =
          Node.create ~dir:(Some (unwritable_dir ())) ~replica:true ~wait:2.
            ~now:0.
        in
        Node.note_progress n ~now:1. ~behind:0;
        (match Node.promote n with
        | Ok e -> Alcotest.failf "promoted to %d without persisting" e
        | Error e ->
            check Alcotest.bool "names the persist" true
              (String.starts_with ~prefix:"epoch persist: " e));
        check role "still a replica at epoch 0" (true, 0, false) (state n));
    tc "promote at the failpoint leaves the role as it was" (fun () ->
        let n = replica () in
        Node.observe_epoch n 2;
        Bx_fault.Fault.set "repl.promote" (Bx_fault.Fault.Error "injected");
        let r =
          Fun.protect ~finally:Bx_fault.Fault.clear (fun () -> Node.promote n)
        in
        check Alcotest.(result int string) "refused"
          (Error "repl.promote: injected") r;
        check role "unchanged" (true, 2, false) (state n));
  ]

(* Two domains feed interleaved raises; whatever the interleaving, each
   value ends at the maximum fed in. *)
let concurrency_tests =
  [
    tc "observe_epoch, fence and note_poll end at the maximum under two domains"
      (fun () ->
        let n = primary () in
        (* Each domain returns the maximum it fed of each kind. *)
        let feed seed () =
          let rng = Random.State.make [| seed |] in
          let top = Array.make 3 0 in
          for _ = 1 to 10_000 do
            let v = Random.State.int rng 1_000_000 in
            let kind = Random.State.int rng 3 in
            top.(kind) <- max top.(kind) v;
            match kind with
            | 0 -> Node.observe_epoch n v
            | 1 -> Node.fence n v
            | _ -> Node.note_poll n v
          done;
          top
        in
        let d = Domain.spawn (feed 1) in
        let mine = feed 2 () in
        let theirs = Domain.join d in
        let max_of kind = max mine.(kind) theirs.(kind) in
        check Alcotest.int "epoch" (max 1 (max_of 0)) (Node.epoch n);
        check (Alcotest.option Alcotest.string) "fence"
          (Some
             (Printf.sprintf "fenced: deposed by epoch %d, writes rejected\n"
                (max_of 1)))
          (Node.write_barrier n);
        check Alcotest.int "poll cursor" (max_of 2) (Node.last_stream_from n));
  ]

let () =
  Alcotest.run "node"
    [
      ("node boot", boot_tests);
      ("node transitions", transition_tests);
      ("node promote", promote_tests);
      ("node concurrency", concurrency_tests);
    ]
