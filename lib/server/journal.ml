module Fsio = Bx_repo.Fsio

let ( let* ) = Result.bind

type t = {
  dir : string;
  mutable fd : Unix.file_descr;
  mutable next_seq : int;
  mutable records : int;
}

type record = { seq : int; path : string; body : string }

type replayed = {
  entries : record list;
  valid_bytes : int;
  torn : bool;
  crc_errors : int;
}

let log_file dir = Filename.concat dir "journal.log"
let snapshot_dir dir = Filename.concat dir "snapshot"
let manifest_file dir = Filename.concat (snapshot_dir dir) Fsio.marker

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial) — shared with the whole
   integrity layer; see {!Integrity}. *)

let crc32_sub = Integrity.crc32_sub
let crc32 = Integrity.crc32

(* ------------------------------------------------------------------ *)
(* Format v2: a segment header, then length-prefixed CRC-framed records.

     magic   "bxjournal 2\n"                         (12 bytes)
     record  u32be payload-length | u32be crc32(payload) | payload
     payload "<seq> <path-len>\n" ^ path ^ body

   The CRC covers the whole payload and the length prefix makes every
   record boundary explicit. *)

let magic = "bxjournal 2\n"
let magic_len = String.length magic

let be32 buf off n =
  Bytes.set buf off (Char.chr ((n lsr 24) land 0xff));
  Bytes.set buf (off + 1) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set buf (off + 2) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set buf (off + 3) (Char.chr (n land 0xff))

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode ~seq ~path ~body =
  let header = Printf.sprintf "%d %d\n" seq (String.length path) in
  let payload_len = String.length header + String.length path + String.length body in
  let out = Bytes.create (8 + payload_len) in
  Bytes.blit_string header 0 out 8 (String.length header);
  Bytes.blit_string path 0 out (8 + String.length header) (String.length path);
  Bytes.blit_string body 0 out
    (8 + String.length header + String.length path)
    (String.length body);
  let payload = Bytes.sub_string out 8 payload_len in
  be32 out 0 payload_len;
  be32 out 4 (crc32 payload);
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Reading *)

(* Some (record, next_off) for an intact record; None when the bytes at
   [off] cannot be a complete record.  [`Torn] when the malformation is
   consistent with a truncated tail, [`Corrupt] when a complete-looking
   record fails its checksum (a bit flip, not a crash). *)
let parse_record_v2 data off =
  let len = String.length data in
  if off + 8 > len then Stdlib.Error `Torn
  else
    let payload_len = read_be32 data off in
    let crc = read_be32 data (off + 4) in
    let payload_at = off + 8 in
    let end_at = payload_at + payload_len in
    if payload_len < 4 (* "0 0\n" at minimum *) || end_at > len || end_at < off
    then Stdlib.Error `Torn
    else if crc32_sub data payload_at payload_len <> crc then
      Stdlib.Error `Corrupt
    else
      match String.index_from_opt data payload_at '\n' with
      | Some nl when nl < end_at -> (
          let header = String.sub data payload_at (nl - payload_at) in
          match String.split_on_char ' ' header with
          | [ seq_s; plen_s ] -> (
              match (int_of_string_opt seq_s, int_of_string_opt plen_s) with
              | Some seq, Some plen
                when seq >= 0 && plen >= 0 && nl + 1 + plen <= end_at ->
                  let path = String.sub data (nl + 1) plen in
                  let body =
                    String.sub data (nl + 1 + plen) (end_at - nl - 1 - plen)
                  in
                  Stdlib.Ok ({ seq; path; body }, end_at)
              | _ -> Stdlib.Error `Corrupt
            )
          | _ -> Stdlib.Error `Corrupt)
      | _ -> Stdlib.Error `Corrupt

let is_v2 data =
  String.length data >= magic_len && String.sub data 0 magic_len = magic

(* A stop means everything from the malformation on is untrusted: the
   replay keeps the intact prefix, [open_] truncates the rest away.  A
   checksum failure is counted separately from a torn tail so operators
   can tell a crash (expected, benign) from corruption (a disk problem
   worth investigating). *)
let scan data start =
  let len = String.length data in
  let rec go acc off crc_errors =
    if off >= len then
      { entries = List.rev acc; valid_bytes = off; torn = false; crc_errors }
    else
      match parse_record_v2 data off with
      | Stdlib.Ok (r, next) -> go (r :: acc) next crc_errors
      | Stdlib.Error fault ->
          {
            entries = List.rev acc;
            valid_bytes = off;
            torn = true;
            crc_errors = (crc_errors + match fault with `Corrupt -> 1 | `Torn -> 0);
          }
  in
  go [] start 0

let read ~dir =
  let file = log_file dir in
  let empty =
    { entries = []; valid_bytes = 0; torn = false; crc_errors = 0 }
  in
  if not (Sys.file_exists file) then Ok empty
  else
    try
      let data = Fsio.read_file file in
      if is_v2 data then Ok (scan data magic_len)
      else if String.length data <= magic_len then
        (* Too short to hold a record, whatever its bytes: what a crash
           before the header was stamped, or inside [rewind], leaves.
           Nothing is lost, and [open_] stamps the header afresh; the
           damaged bytes still count as a torn tail. *)
        Ok { empty with torn = data <> "" }
      else
        (* A damaged header says nothing about the records behind it;
           reading on would guess, and truncating would erase them. *)
        Error
          (Printf.sprintf "%s does not start with the segment header %S" file
             magic)
    with Sys_error e -> Error e

(* A tailing read for replication: the intact records at or after
   [from].  Reading races benignly with the appender — a record caught
   mid-write parses as a torn tail and is simply not returned yet; the
   next poll sees it whole. *)
let tail ~dir ~from =
  let* { entries; _ } = read ~dir in
  Ok (List.filter (fun r -> r.seq >= from) entries)

(* Strict frame decoding for replication payloads: transport batches are
   never torn, so any malformation is an error, not a truncation. *)
let decode_frames data ~off =
  let scanned = scan data off in
  if scanned.torn then
    Error
      (if scanned.crc_errors > 0 then "frame checksum mismatch"
       else "truncated frame")
  else Ok scanned.entries

(* The sealed MANIFEST now carries its own checksum ("seq N crc XXXXXXXX");
   the crc-less "seq N" form is the pre-digest layout, still accepted.
   Anything else — including a v2 manifest whose crc does not match — is
   [`Corrupt]: the snapshot's cut point cannot be trusted, so the whole
   snapshot is refused rather than replayed against a guessed sequence
   number. *)
let read_manifest ~dir =
  let file = manifest_file dir in
  if not (Sys.file_exists file) then `None
  else
    try
      let body = String.trim (Fsio.read_file file) in
      match String.split_on_char ' ' body with
      | [ "seq"; n ] -> (
          match int_of_string_opt n with
          | Some seq when seq >= 0 -> `Seq seq
          | _ -> `Corrupt)
      | [ "seq"; n; "crc"; c ] -> (
          match (int_of_string_opt n, int_of_string_opt ("0x" ^ c)) with
          | Some seq, Some crc
            when seq >= 0
                 && crc = crc32 (Printf.sprintf "seq %d" seq)
                 (* The writer emits exactly this encoding; int parsing
                    is laxer (case-insensitive hex, underscores), so a
                    flipped bit could read back as the same values.
                    Demand the canonical bytes — any deviation is
                    damage. *)
                 && body = Printf.sprintf "seq %d crc %08x" seq crc ->
              `Seq seq
          | _ -> `Corrupt)
      | _ -> `Corrupt
    with Sys_error _ -> `Corrupt

let snapshot_seq ~dir =
  match read_manifest ~dir with `Seq seq -> seq | `None | `Corrupt -> 0

(* A snapshot is usable only once its MANIFEST exists (written last), so
   a crash mid-save leaves an unusable tmp that recovery deletes; a crash
   mid-swap may have demoted the good snapshot to .old. *)
let recover_snapshot ~dir = Fsio.recover (snapshot_dir dir)

(* ------------------------------------------------------------------ *)
(* Appending *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let open_ ~dir ~next_seq =
  Fsio.guard (fun () ->
      Fsio.ensure_dir dir;
      recover_snapshot ~dir;
      let* { entries; valid_bytes; torn; _ } = read ~dir in
      let fd = Unix.openfile (log_file dir) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      if valid_bytes = 0 then begin
        (* Fresh (or record-less) log: stamp the segment header. *)
        Unix.ftruncate fd 0;
        write_all fd magic;
        Unix.fsync fd
      end
      else begin
        if torn then Unix.ftruncate fd valid_bytes;
        ignore (Unix.lseek fd valid_bytes Unix.SEEK_SET)
      end;
      Ok { dir; fd; next_seq; records = List.length entries })

(* Append errors travel as strings (they are operator-facing), so a
   caller that must distinguish "the disk is full" from "the write
   failed" classifies by the strerror text the append embedded.  ENOSPC
   is worth distinguishing: it is persistent — retrying cannot succeed
   until an operator frees space — so the service degrades to read-only
   instead of flapping. *)
let enospc_text = Unix.error_message Unix.ENOSPC

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  ||
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let is_disk_full_error msg = contains_substring ~needle:enospc_text msg

let append_at t ~seq ~path ~body =
  try
    Bx_fault.Fault.point "journal.append.pre_write";
    write_all t.fd (encode ~seq ~path ~body);
    Bx_fault.Fault.point "journal.append.pre_fsync";
    Unix.fsync t.fd;
    Bx_fault.Fault.point "journal.append.post_fsync";
    t.next_seq <- seq + 1;
    t.records <- t.records + 1;
    Ok seq
  with
  | Unix.Unix_error (e, _, arg) ->
      Error (Printf.sprintf "journal append: %s: %s" arg (Unix.error_message e))
  | Bx_fault.Fault.Injected m -> Error (Printf.sprintf "journal append: %s" m)

let append t ~path ~body = append_at t ~seq:t.next_seq ~path ~body

(* Sharded layouts allocate sequence numbers from one global counter and
   fan records across per-shard segment files, so a segment's records are
   dense in the *global* space but sparse locally: appends must be able to
   skip ahead.  Going backwards would corrupt replay ordering. *)
let append_seq t ~seq ~path ~body =
  if seq < t.next_seq then
    Error
      (Printf.sprintf "journal append: seq %d below segment floor %d" seq
         t.next_seq)
  else append_at t ~seq ~path ~body

let record_count t = t.records
let next_seq t = t.next_seq

(* Truncate back to a bare segment header.  Used when a replica replaces
   its whole state via snapshot bootstrap: every journaled record is
   superseded by the installed snapshot, and the sequence counter jumps
   to wherever the primary's stream resumes. *)
let rewind t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  write_all t.fd magic;
  Unix.fsync t.fd;
  t.records <- 0

let reset t ~next_seq =
  try
    rewind t;
    t.next_seq <- next_seq;
    Ok ()
  with Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "journal reset: %s: %s" arg (Unix.error_message e))

(* ------------------------------------------------------------------ *)
(* Compaction *)

(* The sealed snapshot format: the cold files, their DIGESTS, and last
   the MANIFEST, whose presence makes the snapshot official.  The
   MANIFEST's crc field seals the cut point itself — a bit flip in it
   must read as "no usable snapshot", never as a different sequence
   number. *)
let seal ~dir seq =
  Integrity.Digests.write_dir ~dir;
  Bx_fault.Fault.point "journal.checkpoint.pre_manifest";
  let body = Printf.sprintf "seq %d" seq in
  Fsio.write_file
    (Filename.concat dir Fsio.marker)
    (Printf.sprintf "%s crc %08x\n" body (crc32 body))

let checkpoint ?seq t ~save =
  let snap = snapshot_dir t.dir in
  let tmp = snap ^ ".tmp" in
  Fsio.guard (fun () ->
      Fsio.remove_tree tmp;
      Bx_fault.Fault.point "journal.checkpoint.pre_save";
      let* files = save ~dir:tmp in
      seal ~dir:tmp (Option.value seq ~default:(t.next_seq - 1));
      Bx_fault.Fault.point "journal.checkpoint.pre_swap";
      Fsio.swap ~into:snap tmp;
      (* The snapshot now covers every journaled edit: reset the log to a
         bare segment header.  A crash before the truncate is harmless —
         replay skips records at or below the manifest's sequence
         number. *)
      Bx_fault.Fault.point "journal.checkpoint.pre_truncate";
      rewind t;
      Ok files)

(* The snapshot as shippable payload: every flat file under
   [dir/snapshot] except the MANIFEST, plus the manifest's sequence
   number.  The caller serialises against compaction (which swaps the
   directory out from under a concurrent reader). *)
let snapshot_files ~dir =
  let snap = snapshot_dir dir in
  let seq = snapshot_seq ~dir in
  if seq = 0 then Error "no snapshot"
  else
    try
      let files =
        Sys.readdir snap |> Array.to_list
        |> List.filter (fun n -> n <> Fsio.marker)
        |> List.sort String.compare
        |> List.map (fun n -> (n, Fsio.read_file (Filename.concat snap n)))
      in
      (* Never ship bytes that fail their own manifest: a corrupted
         primary must refuse to bootstrap followers, not replicate the
         damage.  The DIGESTS file rides along in [files], so the
         receiver re-verifies the same payload. *)
      match Integrity.Digests.verify_payload files with
      | Ok () -> Ok (seq, files)
      | Error e -> Error ("snapshot corrupt, refusing to ship: " ^ e)
    with Sys_error e -> Error e

(* A received payload is checked whole before a byte lands on disk: the
   names must be the flat basenames {!snapshot_files} produces (anything
   path-like is refused rather than trusted), and the files must match
   the DIGESTS they carry. *)
let check_payload files =
  let unsafe name =
    name = "" || name = Fsio.marker
    || Filename.basename name <> name
    || name.[0] = '.'
  in
  match List.find_opt (fun (name, _) -> unsafe name) files with
  | Some (name, _) -> Error (Printf.sprintf "unsafe snapshot file name %S" name)
  | None ->
      Result.map_error
        (fun e -> "snapshot payload refused: " ^ e)
        (Integrity.Digests.verify_payload files)

(* Materialise a checked payload as a sealed directory; {!seal} rewrites
   the DIGESTS from the bytes that actually landed. *)
let stage ~dir ~seq files =
  Fsio.remove_tree dir;
  Fsio.ensure_dir dir;
  List.iter
    (fun (name, contents) ->
      if Integrity.Digests.covered name then
        Fsio.write_file (Filename.concat dir name) contents)
    files;
  seal ~dir seq

(* Install a snapshot shipped from a primary: stage it, swap it in like
   {!checkpoint} does, and reset the log — every local record is
   superseded. *)
let install_snapshot t ~seq ~files =
  let* () = check_payload files in
  let snap = snapshot_dir t.dir in
  Fsio.guard (fun () ->
      stage ~dir:(snap ^ ".tmp") ~seq files;
      Fsio.swap ~into:snap (snap ^ ".tmp");
      reset t ~next_seq:(seq + 1))

(* ------------------------------------------------------------------ *)
(* The replication epoch, persisted beside the log.  Monotonic across
   promotions: a replica promoted to primary bumps and fsyncs it before
   accepting writes, so a deposed primary can recognise (and be fenced
   by) any newer epoch it ever observes. *)

let epoch_file dir = Filename.concat dir "epoch"

let read_epoch ~dir =
  let file = epoch_file dir in
  if not (Sys.file_exists file) then 0
  else
    try
      match String.split_on_char ' ' (String.trim (Fsio.read_file file)) with
      | [ "epoch"; n ] -> Option.value ~default:0 (int_of_string_opt n)
      | _ -> 0
    with Sys_error _ -> 0

let write_epoch ~dir epoch =
  Fsio.guard (fun () ->
      Fsio.ensure_dir dir;
      Fsio.write_file (epoch_file dir) (Printf.sprintf "epoch %d\n" epoch);
      Ok ())

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
