module Fsio = Bx_repo.Fsio

type t = {
  dir : string;
  shards : int;
  seg_dirs : string array;
  segments : Journal.t array;
  mu : Mutex.t;
      (* serialises sequence allocation with the segment write + fsync,
         so the durable records across segments are always a dense
         prefix of the accepted writes *)
  mutable next : int; (* next global sequence number, guarded by [mu] *)
}

type recovery = {
  pages : (string * string) list;
  complete : bool;
  replay : Journal.record list;
  torn : bool;
  crc_errors : int;
  corrupt : (int * string * string) list;
      (* (shard, file, named error): cold files that failed checksum
         verification at boot and were excluded from the load — the
         service quarantines them, never serves their bytes *)
}

let shards t = t.shards

let shard_name k = Printf.sprintf "shard-%03d" k

let segment_dir ~dir ~shards k =
  if shards = 1 then dir else Filename.concat dir (shard_name k)

let file_name ~shards k file =
  if shards = 1 then file else shard_name k ^ "/" ^ file

let snapshot_dir t k = Journal.snapshot_dir t.seg_dirs.(k)

let stamp_file dir = Filename.concat dir "SHARDS"
let marker_file dir = Filename.concat dir "INSTALL"
let staging_dir dir = Filename.concat dir "install.tmp"

let read_stamp dir =
  let file = stamp_file dir in
  if not (Sys.file_exists file) then None
  else
    match String.split_on_char ' ' (String.trim (Fsio.read_file file)) with
    | [ "shards"; n ] -> int_of_string_opt n
    | _ -> None

(* Stamps and markers make multi-step operations complete, so they are
   written atomically: they must never exist torn. *)
let write_stamp dir shards =
  Fsio.write_file (stamp_file dir) (Printf.sprintf "shards %d\n" shards)

(* Checksum-verify one sealed snapshot directory.  Returns the corrupt
   [(file, named error)] rows — a damaged MANIFEST is itself one — plus
   whether the snapshot is usable at all (a trusted cut point exists). *)
let verify_snapshot seg_dir =
  match Journal.read_manifest ~dir:seg_dir with
  | `None -> (false, 0, [])
  | `Corrupt ->
      ( false,
        0,
        [ (Fsio.marker, "manifest checksum mismatch: cut point untrusted") ]
      )
  | `Seq floor ->
      let report =
        Integrity.Digests.verify_dir ~dir:(Journal.snapshot_dir seg_dir)
      in
      (true, floor, report.Integrity.Digests.corrupt)

(* A sealed segment snapshot's pages, minus the files that failed
   verification — those are reported, never served. *)
let sealed_pages seg_dir corrupt =
  match
    Bx_repo.Store.load_pages
      ~skip:(fun name -> List.mem_assoc name corrupt)
      ~dir:(Journal.snapshot_dir seg_dir) ()
  with
  | Ok pages -> pages
  | Error _ -> []

(* An unstamped directory whose log or snapshot sits at the top level
   has served as a single segment: it is laid out for one shard. *)
let one_shard_layout dir =
  Sys.file_exists (Journal.log_file dir)
  || Sys.file_exists (Journal.snapshot_dir dir)

(* Roll an interrupted snapshot install forward: every staged segment
   snapshot still present in [install.tmp] is swapped in; ones already
   swapped are left alone.  Only then is the marker removed — the
   operation is idempotent from any crash point after the marker was
   written. *)
let finish_install ~dir ~shards =
  if Sys.file_exists (marker_file dir) then begin
    for k = 0 to shards - 1 do
      let staged = Filename.concat (staging_dir dir) (shard_name k) in
      if Sys.file_exists staged then begin
        let seg = segment_dir ~dir ~shards k in
        Fsio.ensure_dir seg;
        Fsio.swap ~into:(Journal.snapshot_dir seg) staged
      end
    done;
    Sys.remove (marker_file dir);
    Fsio.remove_tree (staging_dir dir)
  end
  else
    (* stale staging from a pre-marker crash *)
    Fsio.remove_tree (staging_dir dir)

type segment = {
  seg_j : Journal.t;
  seg_pages : (string * string) list;
  seg_sealed : bool;
  seg_replay : Journal.record list;
  seg_torn : bool;
  seg_crc_errors : int;
  seg_max : int;
  seg_corrupt : (string * string) list;
}

let ( let* ) = Result.bind

(* Recover one segment: repair its snapshot, checksum-verify the sealed
   cold files (corrupt ones are excluded from the load and reported, not
   served), read (and remember) the log's intact records, and open it
   for appending just past its own last sequence number. *)
let open_segment seg_dir =
  Journal.recover_snapshot ~dir:seg_dir;
  let sealed, floor, corrupt = verify_snapshot seg_dir in
  let failed what = Result.map_error (Printf.sprintf "%s: journal %s: %s" seg_dir what) in
  let* { Journal.entries; torn; crc_errors; _ } = failed "read" (Journal.read ~dir:seg_dir) in
  let seg_max =
    List.fold_left (fun acc (r : Journal.record) -> max acc r.seq) floor entries
  in
  let* j = failed "open" (Journal.open_ ~dir:seg_dir ~next_seq:(seg_max + 1)) in
  Ok
    {
      seg_j = j;
      seg_pages = (if sealed then sealed_pages seg_dir corrupt else []);
      seg_sealed = sealed;
      (* a corrupt MANIFEST reads as unsealed: the cut point is
         untrusted, so boot falls back to seed + overlay + replay — a
         clean (if stale) prefix, never the corrupted one *)
      seg_replay = List.filter (fun (r : Journal.record) -> r.seq > floor) entries;
      seg_torn = torn;
      seg_crc_errors = crc_errors;
      seg_max;
      seg_corrupt = corrupt;
    }

let merge_sorted replays =
  List.sort
    (fun (a : Journal.record) (b : Journal.record) -> compare a.seq b.seq)
    (List.concat replays)

let open_segments ~dir ~shards =
  let rec go k acc =
    if k = shards then Ok (List.rev acc)
    else
      match open_segment (segment_dir ~dir ~shards k) with
      | Error e ->
          List.iter (fun s -> Journal.close s.seg_j) acc;
          Error e
      | Ok seg -> go (k + 1) (seg :: acc)
  in
  let* segs = go 0 [] in
  let max_seq = List.fold_left (fun acc s -> max acc s.seg_max) 0 segs in
  let t =
    {
      dir;
      shards;
      seg_dirs = Array.init shards (fun k -> segment_dir ~dir ~shards k);
      segments = Array.of_list (List.map (fun s -> s.seg_j) segs);
      mu = Mutex.create ();
      next = max_seq + 1;
    }
  in
  Ok
    ( t,
      {
        pages = List.concat_map (fun s -> s.seg_pages) segs;
        complete = List.for_all (fun s -> s.seg_sealed) segs;
        replay = merge_sorted (List.map (fun s -> s.seg_replay) segs);
        torn = List.exists (fun s -> s.seg_torn) segs;
        crc_errors =
          List.fold_left (fun acc s -> acc + s.seg_crc_errors) 0 segs;
        corrupt =
          List.concat
            (List.mapi
               (fun k s ->
                 List.map (fun (file, why) -> (k, file, why)) s.seg_corrupt)
               segs);
      } )

(* A shard count that disagrees with the directory's layout is refused
   before a byte of it is touched: re-sharding, including out of the
   one-shard layout, is an explicit export/import. *)
let open_ ~dir ~shards =
  let mismatch n =
    Error
      (Printf.sprintf
         "journal directory %s is laid out for %d shards, not %d; pass \
          --shards %d (re-sharding requires an explicit export/import)"
         dir n shards n)
  in
  if shards < 1 then Error "shards must be >= 1"
  else
    Fsio.guard (fun () ->
      Fsio.ensure_dir dir;
      match read_stamp dir with
      | Some n when n <> shards -> mismatch n
      | Some _ ->
          finish_install ~dir ~shards;
          open_segments ~dir ~shards
      | None when shards > 1 && one_shard_layout dir -> mismatch 1
      | None ->
          (* Fresh directory: stamp it and lay out empty segments.  A
             crash right after the stamp is just a stamped empty
             layout. *)
          if shards > 1 then write_stamp dir shards;
          open_segments ~dir ~shards)

let next_seq t =
  Mutex.lock t.mu;
  let n = t.next in
  Mutex.unlock t.mu;
  n

let record_count t k = Journal.record_count t.segments.(k)

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* [f k] for every shard in order, up to the first error. *)
let each_shard t f =
  let rec go k acc =
    if k = t.shards then Ok (List.rev acc)
    else
      let* x = f k in
      go (k + 1) (x :: acc)
  in
  go 0 []

(* Caller holds [t.mu]. *)
let append_seq t ~shard ~seq ~path ~body =
  let* s = Journal.append_seq t.segments.(shard) ~seq ~path ~body in
  if seq + 1 > t.next then t.next <- seq + 1;
  Ok s

let append t ~shard ~path ~body =
  with_mu t (fun () -> append_seq t ~shard ~seq:t.next ~path ~body)

let append_at t ~shard ~seq ~path ~body =
  with_mu t (fun () -> append_seq t ~shard ~seq ~path ~body)

let floor t =
  Array.fold_left
    (fun acc seg_dir -> max acc (Journal.snapshot_seq ~dir:seg_dir))
    0 t.seg_dirs

let shard_floor t k = Journal.snapshot_seq ~dir:t.seg_dirs.(k)

let tail t ~from =
  Result.map merge_sorted
    (each_shard t (fun k -> Journal.tail ~dir:t.seg_dirs.(k) ~from))

let checkpoint_shard t ~shard ~save =
  Journal.checkpoint t.segments.(shard) ~save

let checkpoint_all t ~save =
  let seq = next_seq t - 1 in
  Result.map (List.fold_left ( + ) 0)
    (each_shard t (fun k ->
         Result.map_error (Printf.sprintf "shard %d: %s" k)
           (Journal.checkpoint ~seq t.segments.(k) ~save:(save k))))

(* Targeted anti-entropy repair ships and installs one shard's snapshot
   without touching the others.  Its names are uniformly prefixed
   "shard-%03d/" even for a single-segment layout, so the wire format is
   one shape. *)
let shard_prefix k = shard_name k ^ "/"

let check_shard t shard =
  if shard < 0 || shard >= t.shards then
    Error (Printf.sprintf "no such shard %d" shard)
  else Ok ()

let snapshot_files_shard t ~shard =
  let* () = check_shard t shard in
  let* seq, files =
    Result.map_error (Printf.sprintf "shard %d: %s" shard)
      (Journal.snapshot_files ~dir:t.seg_dirs.(shard))
  in
  Ok (seq, List.map (fun (name, contents) -> (shard_prefix shard ^ name, contents)) files)

let snapshot_files t =
  if t.shards = 1 then Journal.snapshot_files ~dir:t.dir
  else
    let* parts = each_shard t (fun k -> snapshot_files_shard t ~shard:k) in
    let seq = match parts with (seq, _) :: _ -> seq | [] -> 0 in
    match List.find_opt (fun (sk, _) -> sk <> seq) parts with
    | Some (sk, _) ->
        Error
          (Printf.sprintf
             "segments sealed at different cuts (%d vs %d): checkpoint first"
             seq sk)
    | None -> Ok (seq, List.concat_map snd parts)

let snapshot_pages_shard t ~shard =
  Result.bind (check_shard t shard) (fun () ->
      let snap = snapshot_dir t shard in
      if not (Fsio.sealed snap) then Ok []
      else
        Result.map_error
          (Printf.sprintf "shard %d: %s" shard)
          (Bx_repo.Store.load_pages ~dir:snap ()))

let snapshot_pages t =
  Result.map List.concat (each_shard t (fun k -> snapshot_pages_shard t ~shard:k))

(* Install one shard's shipped snapshot: strip the shard prefix, then
   let the segment's journal do the verified install (payload DIGESTS
   check, sealed MANIFEST at [seq], atomic swap, log reset to
   [seq + 1]).  The global sequence counter only ever moves forward. *)
let install_shard t ~shard ~seq ~files =
  Result.bind (check_shard t shard) (fun () ->
      let prefix = shard_prefix shard in
      let plen = String.length prefix in
      let rec strip acc = function
        | [] -> Ok (List.rev acc)
        | (name, contents) :: rest ->
            if
              String.length name > plen
              && String.sub name 0 plen = prefix
            then strip ((String.sub name plen (String.length name - plen), contents) :: acc) rest
            else Error (Printf.sprintf "file %S is not in shard %d" name shard)
      in
      let* flat = strip [] files in
      let* () = Journal.install_snapshot t.segments.(shard) ~seq ~files:flat in
      with_mu t (fun () -> if seq + 1 > t.next then t.next <- seq + 1);
      Ok ())

(* Sharded snapshot install.  Check every shard's payload, stage each
   as a sealed segment snapshot under [install.tmp], then write the
   [INSTALL] marker: from that point the swap loop is idempotent and
   {!finish_install} rolls it forward across any crash.  Until the marker
   exists, the old snapshots stay untouched. *)
let install_snapshot t ~seq ~files =
  if t.shards = 1 then Journal.install_snapshot t.segments.(0) ~seq ~files
  else
    let by_shard = Array.make t.shards [] in
    let rec sort_files = function
      | [] -> Ok ()
      | (name, contents) :: rest -> (
          let shard =
            match String.index_opt name '/' with
            | Some 9 when String.sub name 0 6 = "shard-" ->
                int_of_string_opt (String.sub name 6 3)
            | _ -> None
          in
          match shard with
          | Some k when k >= 0 && k < t.shards ->
              let flat = String.sub name 10 (String.length name - 10) in
              by_shard.(k) <- (flat, contents) :: by_shard.(k);
              sort_files rest
          | _ -> Error (Printf.sprintf "bad snapshot file name %S" name))
    in
    let* () = sort_files files in
    let* _ =
      each_shard t (fun k ->
          Result.map_error (Printf.sprintf "shard %d: %s" k)
            (Journal.check_payload by_shard.(k)))
    in
    Fsio.guard (fun () ->
        let staging = staging_dir t.dir in
        Fsio.remove_tree staging;
        Fsio.ensure_dir staging;
        Bx_fault.Fault.point "shardlog.install.pre_stage";
        Array.iteri
          (fun k files ->
            Journal.stage ~dir:(Filename.concat staging (shard_name k)) ~seq
              files)
          by_shard;
        Bx_fault.Fault.point "shardlog.install.pre_marker";
        Fsio.write_file (marker_file t.dir) "install\n";
        Bx_fault.Fault.point "shardlog.install.mid_swap";
        finish_install ~dir:t.dir ~shards:t.shards;
        let r =
          each_shard t (fun k -> Journal.reset t.segments.(k) ~next_seq:(seq + 1))
        in
        with_mu t (fun () -> if seq + 1 > t.next then t.next <- seq + 1);
        Result.map ignore r)

let close t = Array.iter Journal.close t.segments
