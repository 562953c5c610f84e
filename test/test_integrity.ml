(* End-to-end integrity: the CRC32 and DIGESTS manifest codecs, the
   order-insensitive per-shard digest algebra (live incremental
   maintenance vs. full recomputation, and across close/reopen), the
   quarantine's flag-once / serve-under-Warning / 410 semantics, a
   clean-store scrub with zero false positives, and the QCheck
   single-bit-flip torture: flip one bit anywhere in a segment log, a
   snapshot page, DOCS.bxdocs or a MANIFEST, then boot and scrub — the
   store must recover a clean prefix or quarantine the damage, never
   serve corrupted bytes, and count each distinct finding exactly
   once. *)

open Bx_server
module Registry = Bx_repo.Registry
module Identifier = Bx_repo.Identifier
module Q = Integrity.Quarantine

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

let service_lenses = [ ("composers", Bx_catalogue.Composers_string.lens) ]

let service ?(config = Service.default_config) () =
  match Service.create ~config ~lenses:service_lenses ~seed () with
  | Ok t -> t
  | Error e -> Alcotest.failf "service create: %s" e

let journal_config ?(shards = 1) dir =
  {
    Service.default_config with
    journal_dir = Some dir;
    shards;
    compact_every = 0;
  }

let get t path = Service.handle t ~meth:"GET" ~path ~body:""
let post t path body = Service.handle t ~meth:"POST" ~path ~body
let ok_exn what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

(* A page edit that survives the wiki round trip: inject a sentence
   into the Description section of the fetched source. *)
let inject page sentence =
  let marker = "== Description ==\n" in
  match Str.search_forward (Str.regexp_string marker) page 0 with
  | exception Not_found -> page ^ "\n" ^ sentence ^ "\n"
  | i ->
      let at = i + String.length marker in
      String.sub page 0 at ^ sentence ^ "\n"
      ^ String.sub page at (String.length page - at)

let wiki_paths t =
  Service.with_registry t (fun reg ->
      List.map (fun id -> "/" ^ Identifier.wiki_path id) (Registry.ids reg))

(* ------------------------------------------------------------------ *)
(* Codecs. *)

let codec_tests =
  [
    tc "crc32 matches the IEEE check vector" (fun () ->
        check Alcotest.int "123456789" 0xCBF43926 (Integrity.crc32 "123456789");
        check Alcotest.int "empty" 0 (Integrity.crc32 "");
        let s = "xx123456789yy" in
        check Alcotest.int "crc32_sub agrees with the copy" 0xCBF43926
          (Integrity.crc32_sub s 2 9));
    tc "crc32_sub checks its range before reading" (fun () ->
        check Alcotest.int "empty" 0 (Integrity.crc32_sub "" 0 0);
        check Alcotest.int "empty tail" 0 (Integrity.crc32_sub "abc" 3 0);
        List.iter
          (fun (s, off, len) ->
            match Integrity.crc32_sub s off len with
            | _ -> Alcotest.failf "crc32_sub %S %d %d did not raise" s off len
            | exception Invalid_argument _ -> ())
          [ ("", 1, 0); ("", 0, 1); ("abc", -1, 1); ("abc", 1, -1);
            ("abc", 2, 2); ("abc", 4, 0); ("abcdefghij", 1, max_int) ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:2000 ~long_factor:50
         ~name:"crc32_sub equals the bytewise table on any range"
         ~print:QCheck2.Print.(triple string int int)
         QCheck2.Gen.(
           string_size (0 -- 200) >>= fun s ->
           let n = String.length s in
           triple (pure s) (-2 -- (n + 2)) (-2 -- (n + 2)))
         (fun (s, off, len) ->
           let n = String.length s in
           if off >= 0 && len >= 0 && off + len <= n then
             Integrity.crc32_sub s off len
             = Bx_markup_ref.Markup_ref.crc32_sub s off len
           else
             match Integrity.crc32_sub s off len with
             | _ -> false
             | exception Invalid_argument _ -> true));
    tc "DIGESTS manifest round trips and names every damage mode" (fun () ->
        let files =
          [ ("b.wiki", "bravo"); ("a.wiki", "alpha"); ("DOCS.bxdocs", "d") ]
        in
        let text = Integrity.Digests.render files in
        let manifest = ok_exn "parse" (Integrity.Digests.parse text) in
        check Alcotest.int "covers the three files" 3 (List.length manifest);
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "clean payload verifies" []
          (Integrity.Digests.verify_files ~manifest files);
        let flipped = ("a.wiki", "alphA") :: List.remove_assoc "a.wiki" files in
        (match Integrity.Digests.verify_files ~manifest flipped with
        | [ (file, why) ] ->
            check Alcotest.string "mismatch names the file" "a.wiki" file;
            check Alcotest.bool "mismatch named" true
              (contains ~needle:"mismatch" why)
        | rows -> Alcotest.failf "expected one mismatch, got %d" (List.length rows));
        (match
           Integrity.Digests.verify_files ~manifest
             (List.remove_assoc "a.wiki" files)
         with
        | [ ("a.wiki", why) ] ->
            check Alcotest.bool "missing named" true
              (contains ~needle:"missing" why)
        | rows -> Alcotest.failf "expected one missing, got %d" (List.length rows));
        match
          Integrity.Digests.verify_files ~manifest (("extra.wiki", "?") :: files)
        with
        | [ ("extra.wiki", _) ] -> ()
        | rows -> Alcotest.failf "expected one unlisted, got %d" (List.length rows));
    tc "MANIFEST and the manifest itself are not covered" (fun () ->
        check Alcotest.bool "MANIFEST" false (Integrity.Digests.covered "MANIFEST");
        check Alcotest.bool "DIGESTS" false
          (Integrity.Digests.covered Integrity.Digests.name);
        check Alcotest.bool "pages are" true (Integrity.Digests.covered "a.wiki"));
    tc "wire digests round trip" (fun () ->
        let rows = [ (0, 0x1a235566); (1, 0); (2, 0xffffffff) ] in
        let body = Integrity.render_digests ~epoch:7 rows in
        let epoch, rows' = ok_exn "parse" (Integrity.parse_digests body) in
        check Alcotest.int "epoch" 7 epoch;
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "rows" rows rows';
        (match Integrity.parse_digests "bxdigest 2 0 1\n0 00000000\n" with
        | Error e ->
            check Alcotest.bool "header named" true (contains ~needle:"header" e)
        | Ok _ -> Alcotest.fail "future version accepted");
        match Integrity.parse_digests "not a digest" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage accepted");
  ]

(* ------------------------------------------------------------------ *)
(* Digest algebra: the incrementally-maintained shard digests must
   always equal what a full walk computes, and what a fresh boot from
   the same journal recomputes. *)

let digest_tests =
  [
    tc "live digests equal a full recomputation" (fun () ->
        let t = service ~config:{ Service.default_config with shards = 3 } () in
        let paths = wiki_paths t in
        List.iteri
          (fun i path ->
            if i mod 2 = 0 then begin
              let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
              check Alcotest.int "edit" 200
                (post t path (inject page (Printf.sprintf "Digest probe %d." i)))
                  .Bx_repo.Webui.status
            end)
          paths;
        let live = Service.shard_digests t in
        check Alcotest.int "one row per shard" 3 (List.length live);
        Service.with_registry t (fun reg ->
            List.iter
              (fun (k, d) ->
                check Alcotest.int
                  (Printf.sprintf "shard %d" k)
                  (Integrity.shard_digest_of reg k)
                  d)
              live);
        Service.close t);
    tc "digests survive close and reopen, documents included" (fun () ->
        let dir = fresh_dir "bxdigest" in
        let t = service ~config:(journal_config ~shards:2 dir) () in
        let path = List.hd (wiki_paths t) in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "edit" 200
          (post t path (inject page "Reopen digest probe.")).Bx_repo.Webui.status;
        check Alcotest.int "doc create" 200
          (post t "/slens/composers/doc/d1"
             (Bx_catalogue.Composers_string.synthetic_source 3))
            .Bx_repo.Webui.status;
        let live = Service.shard_digests t in
        Service.close t;
        let t' = service ~config:(journal_config ~shards:2 dir) () in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "recomputed digests match the incrementally-maintained ones" live
          (Service.shard_digests t');
        Service.close t');
  ]

(* ------------------------------------------------------------------ *)
(* Quarantine semantics. *)

let quarantine_tests =
  [
    tc "flag counts once, clear forgets, counts split by kind" (fun () ->
        let q = Q.create () in
        check Alcotest.bool "first flag is fresh" true
          (Q.flag q (Q.Entry "e") ~reason:"r1");
        check Alcotest.bool "second flag is not" false
          (Q.flag q (Q.Entry "e") ~reason:"r2");
        check (Alcotest.option Alcotest.string) "first reason kept" (Some "r1")
          (Q.find q (Q.Entry "e"));
        ignore (Q.flag q (Q.Doc ("composers", "d")) ~reason:"rd");
        ignore (Q.flag q (Q.File "f.wiki") ~reason:"rf");
        let e, d, f = Q.counts q in
        check Alcotest.int "entries" 1 e;
        check Alcotest.int "docs" 1 d;
        check Alcotest.int "files" 1 f;
        Q.clear q (Q.Entry "e");
        check (Alcotest.option Alcotest.string) "cleared" None
          (Q.find q (Q.Entry "e"));
        check Alcotest.int "size" 2 (Q.size q));
    tc "a quarantined entry serves with a Warning header" (fun () ->
        let t = service () in
        let path = List.hd (wiki_paths t) in
        let id =
          Service.with_registry t (fun reg ->
              Identifier.to_string (List.hd (Registry.ids reg)))
        in
        let clean = get t path in
        check Alcotest.int "clean 200" 200 clean.Bx_repo.Webui.status;
        check Alcotest.bool "no warning when healthy" false
          (List.mem_assoc "Warning" clean.Bx_repo.Webui.headers);
        ignore
          (Q.flag (Service.quarantine t) (Q.Entry id) ~reason:"law violation");
        let r = get t path in
        check Alcotest.int "still 200" 200 r.Bx_repo.Webui.status;
        (match List.assoc_opt "Warning" r.Bx_repo.Webui.headers with
        | Some w ->
            check Alcotest.bool "299 quarantined" true
              (contains ~needle:"299" w && contains ~needle:"quarantined" w)
        | None -> Alcotest.fail "no Warning header on quarantined entry");
        Service.close t);
    tc "a quarantined document answers 410" (fun () ->
        let t = service () in
        check Alcotest.int "doc create" 200
          (post t "/slens/composers/doc/d1"
             (Bx_catalogue.Composers_string.synthetic_source 2))
            .Bx_repo.Webui.status;
        ignore
          (Q.flag (Service.quarantine t)
             (Q.Doc ("composers", "d1"))
             ~reason:"view mismatch");
        let r = get t "/slens/composers/doc/d1" in
        check Alcotest.int "410" 410 r.Bx_repo.Webui.status;
        check Alcotest.bool "reason served" true
          (contains ~needle:"quarantined" r.Bx_repo.Webui.body);
        Service.close t);
  ]

(* ------------------------------------------------------------------ *)
(* Scrub: a clean store yields zero findings — the false-positive
   budget is exactly zero. *)

let scrub_tests =
  [
    tc "scrubbing a clean store finds nothing" (fun () ->
        let dir = fresh_dir "bxscrubclean" in
        let t = service ~config:(journal_config ~shards:2 dir) () in
        let path = List.hd (wiki_paths t) in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "edit" 200
          (post t path (inject page "Scrub probe.")).Bx_repo.Webui.status;
        check Alcotest.int "doc create" 200
          (post t "/slens/composers/doc/d1"
             (Bx_catalogue.Composers_string.synthetic_source 2))
            .Bx_repo.Webui.status;
        ignore (ok_exn "checkpoint" (Service.checkpoint t));
        let items, findings = Service.scrub_once t in
        check Alcotest.bool "walked the store" true (items > 0);
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "no findings" [] findings;
        check Alcotest.int "nothing quarantined" 0 (Q.size (Service.quarantine t));
        let passes, scrubbed, corruptions =
          Metrics.scrub_counts (Service.metrics t)
        in
        check Alcotest.int "one pass" 1 passes;
        check Alcotest.int "items counted" items scrubbed;
        check Alcotest.int "zero false positives" 0 corruptions;
        Service.close t);
    tc "an injected entry-law failure is quarantined, then acquitted"
      (fun () ->
        (* A law that rejects one title: the scrubber must flag exactly
           that entry, keep serving it under Warning, and clear the flag
           on the next pass once the law passes again. *)
        let poison = ref "" in
        let law (tpl : Bx_repo.Template.t) =
          if tpl.Bx_repo.Template.title = !poison then Error "poisoned title"
          else Ok ()
        in
        let config = { Service.default_config with entry_law = Some law } in
        let t = service ~config () in
        let id, title =
          Service.with_registry t (fun reg ->
              let id = List.hd (Registry.ids reg) in
              let tpl =
                match Registry.latest reg id with
                | Ok tpl -> tpl
                | Error e ->
                    Alcotest.failf "latest: %s" (Registry.error_message e)
              in
              (Identifier.to_string id, tpl.Bx_repo.Template.title))
        in
        poison := title;
        let _, findings = Service.scrub_once t in
        check Alcotest.bool "the poisoned entry is found" true
          (List.exists (fun (k, _) -> contains ~needle:id k) findings);
        check Alcotest.bool "quarantined" true
          (Option.is_some (Q.find (Service.quarantine t) (Q.Entry id)));
        poison := "";
        let _, findings' = Service.scrub_once t in
        check Alcotest.int "healthy pass acquits" 0 (List.length findings');
        check (Alcotest.option Alcotest.string) "flag cleared" None
          (Q.find (Service.quarantine t) (Q.Entry id));
        Service.close t);
    tc "a sealed segment without DIGESTS is a finding until a checkpoint"
      (fun () ->
        let dir = fresh_dir "bxnodigests" in
        let config = journal_config ~shards:2 dir in
        let t = service ~config () in
        let path = List.hd (wiki_paths t) in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        let edited =
          Str.replace_first (Str.regexp_string "++ Overview\n\n")
            "++ Overview\n\nDigest probe. " page
        in
        check Alcotest.int "edit" 200 (post t path edited).Bx_repo.Webui.status;
        ignore (ok_exn "checkpoint" (Service.checkpoint t));
        Service.close t;
        List.iter
          (fun k ->
            Sys.remove
              (Filename.concat dir
                 (Printf.sprintf "shard-%03d/snapshot/DIGESTS" k)))
          [ 0; 1 ];
        let t = service ~config () in
        check Alcotest.bool "pages still load" true
          (contains ~needle:"Digest probe."
             (get t (path ^ ".wiki")).Bx_repo.Webui.body);
        check Alcotest.bool "boot flagged it" true
          (Option.is_some
             (Q.find (Service.quarantine t) (Q.File "shard-000/DIGESTS")));
        let _, findings = Service.scrub_once t in
        check
          Alcotest.(list string)
          "scrub names each missing DIGESTS"
          [ "file shard-000/DIGESTS"; "file shard-001/DIGESTS" ]
          (List.sort compare (List.map fst findings));
        ignore (ok_exn "checkpoint" (Service.checkpoint t));
        let _, findings = Service.scrub_once t in
        check Alcotest.int "a checkpoint rewrites it" 0 (List.length findings);
        check Alcotest.int "and acquits it" 0 (Q.size (Service.quarantine t));
        Service.close t);
    tc "a flipped journal header bit is a finding, not a clean log"
      (fun () ->
        let dir = fresh_dir "bxscrubhdr" in
        let t = service ~config:(journal_config dir) () in
        let path = List.hd (wiki_paths t) in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "edit" 200
          (post t path (inject page "Header probe.")).Bx_repo.Webui.status;
        let log = Journal.log_file dir in
        let data = Bytes.of_string (Bx_repo.Fsio.read_file log) in
        Bytes.set data 3 (Char.chr (Char.code (Bytes.get data 3) lxor 1));
        let oc = open_out_bin log in
        output_bytes oc data;
        close_out oc;
        let _, findings = Service.scrub_once t in
        check
          Alcotest.(list string)
          "the segment is flagged" [ "file journal.log" ] (List.map fst findings);
        check Alcotest.bool "quarantined" true
          (Option.is_some (Q.find (Service.quarantine t) (Q.File "journal.log")));
        Service.close t);
    tc "a torn journal tail at rest is a finding, on a full or empty segment"
      (fun () ->
        let rewrite file f =
          let data = Bx_repo.Fsio.read_file file in
          let oc = open_out_bin file in
          output_string oc (f data);
          close_out oc
        in
        let flagged t =
          let _, findings = Service.scrub_once t in
          List.map fst findings
        in
        (* Records, then half a record: what a crash mid-append leaves,
           but found while the segment is at rest. *)
        let dir = fresh_dir "bxscrubtorn" in
        let t = service ~config:(journal_config dir) () in
        let path = List.hd (wiki_paths t) in
        let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        check Alcotest.int "edit" 200
          (post t path (inject page "Tail probe.")).Bx_repo.Webui.status;
        rewrite (Journal.log_file dir) (fun data -> data ^ "\x00\x00\x00\x40oops");
        check
          Alcotest.(list string)
          "the torn segment is flagged" [ "file journal.log" ] (flagged t);
        Service.close t;
        (* A record-less segment is its 12-byte header alone; a damaged
           one reads as an empty torn log. *)
        let dir = fresh_dir "bxscrubempty" in
        let t = service ~config:(journal_config dir) () in
        let log = Journal.log_file dir in
        check Alcotest.int "header only" 12
          (String.length (Bx_repo.Fsio.read_file log));
        rewrite log (fun data ->
            String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) data);
        check
          Alcotest.(list string)
          "the damaged empty segment is flagged" [ "file journal.log" ] (flagged t);
        Service.close t);
    tc "the scrub bucket paces a pass of fewer items than its rate" (fun () ->
        (* A fresh bucket holds a tenth of a second of rate: of 50 items
           at 100/s, 10 pass at once and 40 wait for refill. *)
        let t0 = Bx_obs.Clock.now () in
        let bucket = Integrity.Bucket.create ~rate:100. in
        for _ = 1 to 50 do
          Integrity.Bucket.take bucket 1.
        done;
        let elapsed = Bx_obs.Clock.now () -. t0 in
        check Alcotest.bool
          (Printf.sprintf "50 tokens at 100/s took %.3f s, want >= 0.4" elapsed)
          true (elapsed >= 0.4));
  ]

(* ------------------------------------------------------------------ *)
(* The single-bit-flip torture.  One trial: build a small sharded
   store with a checkpointed snapshot, a post-checkpoint edit and a
   lens document; record every body the server has legitimately held;
   flip one bit in one storage file; boot and scrub.  The store must
   either refuse to boot, or serve only bodies it legitimately held
   (a clean prefix), with the damage detected — and each distinct
   finding counted exactly once. *)

let flip_bit file bit =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n |> Bytes.of_string in
  close_in ic;
  let bit = bit mod (n * 8) in
  let byte = bit / 8 in
  Bytes.set bytes byte
    (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl (bit mod 8))));
  let oc = open_out_bin file in
  output_bytes oc bytes;
  close_out oc;
  byte

(* The ISSUE's torture targets: segment logs, snapshot pages,
   DOCS.bxdocs and MANIFEST — not DIGESTS (flipping the manifest of
   checksums is the snapshot-page case seen from the other side, and
   quarantines the manifest itself). *)
let torture_targets dir shards =
  List.concat_map
    (fun k ->
      let seg = Filename.concat dir (Printf.sprintf "shard-%03d" k) in
      let snap = Filename.concat seg "snapshot" in
      let cold =
        Sys.readdir snap |> Array.to_list
        |> List.filter (fun f ->
               f = "MANIFEST" || f = "DOCS.bxdocs"
               || Filename.check_suffix f ".wiki")
        |> List.map (Filename.concat snap)
      in
      let log = Filename.concat seg "journal.log" in
      if Sys.file_exists log then log :: cold else cold)
    (List.init shards Fun.id)

let torture_trial (file_choice, bit_choice) =
  let dir = fresh_dir "bxflip" in
  let config = journal_config ~shards:2 dir in
  let t = service ~config () in
  (* Every body the store has legitimately held, per page. *)
  let known = Hashtbl.create 32 in
  let snap_bodies t =
    List.iter
      (fun path ->
        let body = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
        let prior = Option.value ~default:[] (Hashtbl.find_opt known path) in
        if not (List.mem body prior) then Hashtbl.replace known path (body :: prior))
      (wiki_paths t)
  in
  snap_bodies t;
  let path = List.hd (wiki_paths t) in
  let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
  assert (200 = (post t path (inject page "Torture v1.")).Bx_repo.Webui.status);
  let doc_source = Bx_catalogue.Composers_string.synthetic_source 3 in
  assert (200 = (post t "/slens/composers/doc/d1" doc_source).Bx_repo.Webui.status);
  snap_bodies t;
  (match Service.checkpoint t with
  | Ok _ -> ()
  | Error e -> failwith ("checkpoint: " ^ e));
  let page' = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
  assert (200 = (post t path (inject page' "Torture v2.")).Bx_repo.Webui.status);
  snap_bodies t;
  Service.close t;
  let targets = torture_targets dir 2 in
  assert (targets <> []);
  let file = List.nth targets (file_choice mod List.length targets) in
  ignore (flip_bit file bit_choice);
  match Service.create ~config ~lenses:service_lenses ~seed () with
  | Error _ -> true (* refusing to boot serves nothing corrupted *)
  | Ok t -> (
      Fun.protect
        ~finally:(fun () -> Service.close t)
        (fun () ->
          (* Never serve corrupted bytes: every 200 is a body the store
             legitimately held; anything else vanished (the clean
             prefix) — both fine, silently serving mutated bytes is
             not. *)
          List.iter
            (fun p ->
              let r = get t (p ^ ".wiki") in
              match r.Bx_repo.Webui.status with
              | 200 ->
                  let ok =
                    match Hashtbl.find_opt known p with
                    | Some bodies -> List.mem r.Bx_repo.Webui.body bodies
                    | None -> false
                  in
                  if not ok then
                    QCheck2.Test.fail_reportf
                      "%s: served a body the store never held (flipped %s)" p
                      file
              | 404 -> ()
              | s -> QCheck2.Test.fail_reportf "%s: unexpected status %d" p s)
            (wiki_paths t);
          (let r = get t "/slens/composers/doc/d1" in
           match r.Bx_repo.Webui.status with
           | 200 ->
               if not (contains ~needle:doc_source r.Bx_repo.Webui.body) then
                 QCheck2.Test.fail_reportf
                   "doc d1: served mutated source (flipped %s)" file
           | 404 | 410 -> ()
           | s -> QCheck2.Test.fail_reportf "doc d1: unexpected status %d" s);
          let _ = Service.scrub_once t in
          let _, _, after_one = Metrics.scrub_counts (Service.metrics t) in
          let _ = Service.scrub_once t in
          let _, _, after_two = Metrics.scrub_counts (Service.metrics t) in
          if after_one <> after_two then
            QCheck2.Test.fail_reportf
              "re-scrubbing recounted corruption: %d then %d (flipped %s)"
              after_one after_two file;
          (* Each distinct finding is counted exactly once, whether boot
             or the scrubber flagged it. *)
          if after_two <> Q.size (Service.quarantine t) then
            QCheck2.Test.fail_reportf
              "corruption counter %d disagrees with quarantine %d (flipped %s)"
              after_two
              (Q.size (Service.quarantine t))
              file;
          (* The flip must not go entirely unnoticed: quarantine, a
             journal checksum reject, or a truncated torn tail. *)
          let torn, crc = Metrics.journal_recovery_counts (Service.metrics t) in
          if Q.size (Service.quarantine t) = 0 && torn = 0 && crc = 0 then
            QCheck2.Test.fail_reportf "flip of %s went undetected" file;
          true))

let torture_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:20 ~name:"single bit flip: clean prefix or quarantine"
         ~print:(fun (f, b) -> Printf.sprintf "(file %d, bit %d)" f b)
         QCheck2.Gen.(
           pair (0 -- 1_000) (0 -- 10_000_000))
         torture_trial);
  ]

(* ------------------------------------------------------------------ *)
(* The write path as a property.  A random mix of entry edits, rejected
   writes, document puts (some ill-typed) and patches at current and
   stale generations runs against a journaled 3-shard primary that
   compacts every few records.  Each accepted write journals exactly one
   record; a rejected one moves no generation, digest or record.  A
   fresh boot from the journal, and a replica fed the accepted records,
   must both land on the primary's digests. *)

type write_op =
  | Edit of int * int (* entry index, revision *)
  | Rejected of int (* 0 unknown entry, 1 unroutable, 2 unparsable page *)
  | Doc_put of int * int option (* docid, records (None: ill-typed) *)
  | Patch of int * bool * bool * int
      (* docid, source side, stale generation, target records *)

let print_write_op = function
  | Edit (e, r) -> Printf.sprintf "Edit(%d,%d)" e r
  | Rejected k -> Printf.sprintf "Rejected %d" k
  | Doc_put (d, n) ->
      Printf.sprintf "Doc_put(%d,%s)" d
        (Option.fold ~none:"ill-typed" ~some:string_of_int n)
  | Patch (d, src, stale, n) ->
      Printf.sprintf "Patch(%d,%s,%s,%d)" d
        (if src then "source" else "view")
        (if stale then "stale" else "current")
        n

let write_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map2 (fun e r -> Edit (e, r)) (0 -- 7) (0 -- 999));
        (2, map (fun k -> Rejected k) (0 -- 2));
        (3, map2 (fun d n -> Doc_put (d, n)) (0 -- 1) (opt (1 -- 6)));
        ( 4,
          map
            (fun (d, src, stale, n) -> Patch (d, src, stale, n))
            (tup4 (0 -- 1) bool bool (1 -- 6)) );
      ])

let composers = Bx_catalogue.Composers_string.lens

(* The request an op sends, read against the primary's current state. *)
let write_request t = function
  | Edit (e, r) ->
      let paths = wiki_paths t in
      let path = List.nth paths (e mod List.length paths) in
      let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
      (path, inject page (Printf.sprintf "Revision %d." r))
  | Rejected 0 -> ("/examples:no-such-entry", "== Nothing ==\n")
  | Rejected 1 -> ("/", "unroutable\n")
  | Rejected _ -> (List.hd (wiki_paths t), "no title heading\n")
  | Doc_put (d, n) ->
      ( Printf.sprintf "/slens/composers/doc/d%d" d,
        match n with
        | Some n -> Bx_catalogue.Composers_string.synthetic_source n
        | None -> "not a composers document\n" )
  | Patch (d, src, stale, n) ->
      let docid = Printf.sprintf "d%d" d in
      let path = "/slens/composers/doc/" ^ docid in
      let r =
        Service.handle_query t
          ~query:(if src then "" else "as=view")
          ~meth:"GET" ~path ~body:""
      in
      let gen, doc =
        match String.index_opt r.Bx_repo.Webui.body '\x1e' with
        | Some i when r.Bx_repo.Webui.status = 200 ->
            let body = r.Bx_repo.Webui.body in
            ( int_of_string (String.sub body 0 i),
              String.sub body (i + 1) (String.length body - i - 1) )
        | _ -> (1, "")
      in
      let source = Bx_catalogue.Composers_string.synthetic_source n in
      let target = if src then source else composers.Bx_strlens.Slens.get source in
      let edit = Bx_strlens.Sdiff.diff doc target in
      ( (if src then "/slens/composers/patch_source" else "/slens/composers/patch"),
        String.concat "\x1e"
          [
            docid;
            string_of_int (if stale then gen - 1 else gen);
            Bx_strlens.Sdiff.encode edit;
          ] )

let write_path_trial ops =
  let dir = fresh_dir "bxwritepath" in
  let config = { (journal_config ~shards:3 dir) with compact_every = 3 } in
  let t = service ~config () in
  let next_seq t = (Service.replication_sink t).Replication.next_seq () in
  let accepted = ref [] in
  List.iter
    (fun op ->
      let path, body = write_request t op in
      let gen0 = Service.generation t in
      let digests0 = Service.shard_digests t in
      let seq0 = next_seq t in
      match (post t path body).Bx_repo.Webui.status with
      | 200 ->
          accepted := { Journal.seq = seq0; path; body } :: !accepted;
          if next_seq t <> seq0 + 1 then
            QCheck2.Test.fail_reportf "%s: journaled %d records"
              (print_write_op op) (next_seq t - seq0)
      | s when s >= 400 && s < 500 ->
          if Service.generation t <> gen0 then
            QCheck2.Test.fail_reportf "%s (%d) moved the generation"
              (print_write_op op) s;
          if Service.shard_digests t <> digests0 then
            QCheck2.Test.fail_reportf "%s (%d) moved a digest"
              (print_write_op op) s;
          if next_seq t <> seq0 then
            QCheck2.Test.fail_reportf "%s (%d) journaled a record"
              (print_write_op op) s
      | s -> QCheck2.Test.fail_reportf "%s: status %d" (print_write_op op) s)
    ops;
  let live = Service.shard_digests t in
  Service.close t;
  let booted = service ~config () in
  let rebooted = Service.shard_digests booted in
  Service.close booted;
  if rebooted <> live then
    QCheck2.Test.fail_reportf "a fresh boot's digests differ from the live ones";
  let replica =
    service
      ~config:{ config with journal_dir = Some (fresh_dir "bxwritepathr"); replica = true }
      ()
  in
  (* In stream-sized batches, as the follower would receive them. *)
  let rec feed = function
    | [] -> ()
    | records ->
        let batch = List.filteri (fun i _ -> i < 4) records in
        (match (Service.replication_sink replica).Replication.apply batch with
        | Ok () -> ()
        | Error _ -> QCheck2.Test.fail_reportf "replica refused a batch");
        feed (List.filteri (fun i _ -> i >= 4) records)
  in
  feed (List.rev !accepted);
  let replicated = Service.shard_digests replica in
  Service.close replica;
  if replicated <> live then
    QCheck2.Test.fail_reportf "the replica's digests differ from the primary's";
  true

let write_path_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30
         ~name:"every write path lands on the same digests"
         ~print:(fun ops -> String.concat "; " (List.map print_write_op ops))
         QCheck2.Gen.(list_size (10 -- 30) write_op_gen)
         write_path_trial);
  ]

(* ------------------------------------------------------------------ *)
(* Digests on demand: nothing is hashed until a digest is asked for;
   the first request folds each shard once, and a write on a folded
   shard XORs its item's hash out before and in after.  The cases here
   fold before they write, so that XOR path is what they check. *)

(* The documents these cases write, by docid. *)
let docids = [ "d0"; "d1" ]

(* A full recomputation from what the service serves: the registry's
   shard folds, with shard 0 also folding the documents. *)
let recomputed t =
  let docs =
    List.fold_left
      (fun acc docid ->
        let r =
          Service.handle_query t ~query:"" ~meth:"GET"
            ~path:("/slens/composers/doc/" ^ docid) ~body:""
        in
        match String.index_opt r.Bx_repo.Webui.body '\x1e' with
        | Some i when r.Bx_repo.Webui.status = 200 ->
            let body = r.Bx_repo.Webui.body in
            acc
            lxor Integrity.doc_hash ~lens:"composers" ~docid
                   ~gen:(int_of_string (String.sub body 0 i))
                   ~source:(String.sub body (i + 1) (String.length body - i - 1))
        | _ -> acc)
      0 docids
  in
  Service.with_registry t (fun reg ->
      List.init (Registry.shard_count reg) (fun k ->
          (k, Integrity.shard_digest_of reg k lxor if k = 0 then docs else 0)))

let digest_rows = Alcotest.(list (pair int int))

let edit t path sentence =
  let page = (get t (path ^ ".wiki")).Bx_repo.Webui.body in
  (post t path (inject page sentence)).Bx_repo.Webui.status

let put_doc t docid records =
  (post t ("/slens/composers/doc/" ^ docid)
     (Bx_catalogue.Composers_string.synthetic_source records))
    .Bx_repo.Webui.status

let curator = Bx_repo.Curation.account ~role:Bx_repo.Curation.Curator "curator"

(* Revise [id] until it holds [n] versions. *)
let grow reg id n =
  let rec go () =
    match Registry.versions reg id with
    | Ok vs when List.length vs < n ->
        let t = Result.get_ok (Registry.latest reg id) in
        let t =
          { t with Bx_repo.Template.overview = t.Bx_repo.Template.overview ^ " More." }
        in
        (match Registry.revise reg ~as_:curator id t with
        | Ok _ -> go ()
        | Error e -> Alcotest.failf "revise: %s" (Registry.error_message e))
    | _ -> ()
  in
  go ()

let versions_of reg id = List.length (Result.get_ok (Registry.versions reg id))

let on_demand_tests =
  [
    tc "digests folded before writes stay exact, documents included" (fun () ->
        List.iter
          (fun shards ->
            let t = service ~config:{ Service.default_config with shards } () in
            let folded = Service.shard_digests t in
            check digest_rows "the fold is a full recomputation" (recomputed t) folded;
            List.iteri
              (fun i path ->
                if i mod 2 = 0 then
                  check Alcotest.int "edit" 200
                    (edit t path (Printf.sprintf "Folded first %d." i)))
              (wiki_paths t);
            check Alcotest.int "doc create" 200 (put_doc t "d0" 3);
            check Alcotest.int "doc replace" 200 (put_doc t "d0" 5);
            check Alcotest.int "second doc" 200 (put_doc t "d1" 2);
            check digest_rows
              (Printf.sprintf "%d shard(s): served = recomputed" shards)
              (recomputed t) (Service.shard_digests t);
            Service.close t)
          [ 1; 4 ]);
    tc "a fold hashes each version once, a folded write the entry twice" (fun () ->
        let ids = Registry.ids (seed ()) in
        let one = List.nth ids 0 and fifty = List.nth ids 1 and cold = List.nth ids 2 in
        let grown () =
          let reg = seed () in
          grow reg fifty 50;
          reg
        in
        let t =
          match Service.create ~config:{ Service.default_config with shards = 2 }
                  ~lenses:service_lenses ~seed:grown () with
          | Ok t -> t
          | Error e -> Alcotest.failf "service create: %s" e
        in
        let counts () = Metrics.digest_counts (Service.metrics t) in
        let path id = "/" ^ Identifier.wiki_path id in
        let versions id = Service.with_registry t (fun reg -> versions_of reg id) in
        check Alcotest.(pair int int) "a boot hashes nothing" (0, 0) (counts ());
        check Alcotest.int "edit" 200 (edit t (path cold) "Unfolded write.");
        check Alcotest.(pair int int) "nor does a write on an unfolded shard" (0, 0)
          (counts ());
        check Alcotest.int "one version" 1 (versions one);
        check Alcotest.int "fifty versions" 50 (versions fifty);
        let stored = List.fold_left (fun acc id -> acc + versions id) 0 ids in
        ignore (Service.shard_digests t);
        check Alcotest.(pair int int) "the first request hashes each version once"
          (2, stored) (counts ());
        ignore (Service.shard_digests t);
        check Alcotest.(pair int int) "a second request hashes none" (2, stored) (counts ());
        List.iter
          (fun (id, what) ->
            let n = versions id and before = snd (counts ()) in
            check Alcotest.int "revise" 200 (edit t (path id) ("Revised " ^ what ^ "."));
            check Alcotest.int
              (what ^ ": a revise hashes the n versions before and the n + 1 after")
              (before + n + (n + 1))
              (snd (counts ())))
          [ (one, "one version"); (fifty, "fifty versions") ];
        check digest_rows "served = recomputed" (recomputed t) (Service.shard_digests t);
        Service.close t);
    (* Pins a known defect (CHANGES.md FOUND, ROADMAP item 17):
       Journal.checkpoint seals a segment at its own last sequence
       number, so a shard snapshot of a segment that has journaled
       nothing seals at seq 0 and is not served, even right after a full
       cut sealed it at a real one.  A follower whose digest for such a
       shard diverges cannot resync it.  When the checkpoint is mended,
       expect 200 for every shard here and drop the source pre-write in
       the interleaving property below. *)
    tc "known defect: an unjournaled segment has no shard snapshot" (fun () ->
        let t = service ~config:(journal_config ~shards:3 (fresh_dir "bxseal")) () in
        check Alcotest.int "edit" 200 (edit t (List.hd (wiki_paths t)) "One write.");
        let status query =
          (Service.handle_query t ~query ~meth:"GET" ~path:"/replication/snapshot" ~body:"")
            .Bx_repo.Webui.status
        in
        check Alcotest.int "a full cut seals every segment" 200 (status "");
        let refused =
          List.filter (fun k -> status (Printf.sprintf "shard=%d" k) = 404) [ 0; 1; 2 ]
        in
        check Alcotest.int "the two segments with no record answer 404" 2
          (List.length refused);
        Service.close t);
  ]

(* The property: random interleavings of entry writes, document writes,
   digest requests, a whole-snapshot install and a one-shard resync from
   a diverging source.  Two services take the same steps.  One is asked
   for its digests after every step, so every write lands on a folded
   shard; the other only at the digest steps and at the end, so writes
   land on unfolded shards too.  Each answer must equal a full
   recomputation. *)

type demand_op =
  | Write of int * int (* entry index, revision *)
  | Doc of int * int (* docid index, records *)
  | Ask
  | Source_write of int * int (* entry index, revision, on the source *)
  | Install
  | Resync of int (* shard *)

let print_demand_op = function
  | Write (e, r) -> Printf.sprintf "Write(%d,%d)" e r
  | Doc (d, n) -> Printf.sprintf "Doc(%d,%d)" d n
  | Ask -> "Ask"
  | Source_write (e, r) -> Printf.sprintf "Source_write(%d,%d)" e r
  | Install -> "Install"
  | Resync k -> Printf.sprintf "Resync %d" k

let demand_shards = 3

let demand_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun e r -> Write (e, r)) (0 -- 7) (0 -- 999));
        (2, map2 (fun d n -> Doc (d, n)) (0 -- 1) (1 -- 6));
        (2, pure Ask);
        (2, map2 (fun e r -> Source_write (e, r)) (0 -- 7) (0 -- 999));
        (1, pure Install);
        (1, map (fun k -> Resync k) (0 -- (demand_shards - 1)));
      ])

let snapshot_of source query =
  let r = Service.handle_query source ~query ~meth:"GET" ~path:"/replication/snapshot" ~body:"" in
  if r.Bx_repo.Webui.status <> 200 then
    QCheck2.Test.fail_reportf "source snapshot %S: status %d" query r.Bx_repo.Webui.status;
  match Replication.parse_snapshot_body r.Bx_repo.Webui.body with
  | Ok (_, seq, files) -> (seq, files)
  | Error e -> QCheck2.Test.fail_reportf "source snapshot: %s" e

let demand_trial ops =
  let config () = journal_config ~shards:demand_shards (fresh_dir "bxdemand") in
  let source = service ~config:(config ()) () in
  let eager = service ~config:(config ()) () and lazy_ = service ~config:(config ()) () in
  let exact what t =
    if Service.shard_digests t <> recomputed t then
      QCheck2.Test.fail_reportf "%s: served digests differ from a full recomputation" what
  in
  let entry t e = let paths = wiki_paths t in List.nth paths (e mod List.length paths) in
  (* A segment with nothing journaled has no snapshot to ship (the
     checkpoint defect pinned by "known defect: an unjournaled segment
     has no shard snapshot" above): write every entry once, so every
     segment has a record.  This keeps Resync off that defect, so the
     property does not cover a resync of a shard that never journaled;
     drop this pre-write once the checkpoint is mended. *)
  List.iter (fun path -> ignore (edit source path "Source.")) (wiki_paths source);
  let both what f =
    let a = f eager and b = f lazy_ in
    if a <> b then QCheck2.Test.fail_reportf "%s: the twins answered %d and %d" what a b
  in
  let install what f =
    List.iter
      (fun t ->
        match f (Service.replication_sink t) with
        | Ok () -> ()
        | Error e -> QCheck2.Test.fail_reportf "%s: %s" what e)
      [ eager; lazy_ ]
  in
  List.iter
    (fun op ->
      let what = print_demand_op op in
      (match op with
      | Write (e, r) ->
          both what (fun t -> edit t (entry t e) (Printf.sprintf "Write %d." r))
      | Doc (d, n) -> both what (fun t -> put_doc t (List.nth docids d) n)
      | Ask -> exact what lazy_
      | Source_write (e, r) ->
          ignore (edit source (entry source e) (Printf.sprintf "Source %d." r))
      | Install ->
          let seq, files = snapshot_of source "" in
          install what (fun sink -> sink.Replication.install_snapshot ~seq ~files)
      | Resync shard ->
          let seq, files = snapshot_of source (Printf.sprintf "shard=%d" shard) in
          install what (fun sink -> sink.Replication.install_shard ~shard ~seq ~files));
      exact what eager)
    ops;
  exact "at the end" lazy_;
  List.iter Service.close [ source; eager; lazy_ ];
  true

let demand_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:20 ~long_factor:25
         ~name:"served digests equal a full recomputation after every step"
         ~print:(fun ops -> String.concat "; " (List.map print_demand_op ops))
         QCheck2.Gen.(list_size (5 -- 25) demand_op_gen)
         demand_trial);
  ]

let () =
  Alcotest.run "integrity"
    [
      ("codec", codec_tests);
      ("digest", digest_tests);
      ("quarantine", quarantine_tests);
      ("scrub", scrub_tests);
      ("torture", torture_tests);
      ("write path", write_path_tests);
      ("on demand", on_demand_tests);
      ("interleave", demand_tests);
    ]
