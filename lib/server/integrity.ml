(* The integrity layer's primitives: the CRC32 everything else frames
   with, the DIGESTS manifest that checksums a snapshot directory's cold
   files, the order-insensitive per-shard digest algebra anti-entropy
   repair compares, the token bucket that paces the background scrubber,
   and the quarantine set corrupted-but-never-dropped data lands in.

   This module sits *below* {!Journal} in the library: the journal frames
   records with {!crc32} and seals snapshots with {!Digests}, so the
   dependency points this way and nothing here may refer back to the
   journal, shardlog or service. *)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial), table-driven.  This is the
   one checksum the whole storage layer shares: journal record framing,
   snapshot digest manifests, sealed MANIFESTs and the per-entry content
   hashes all speak it, so a tool that can check one can check all. *)

(* Built eagerly: a lazy forced by two domains at once can raise
   [CamlinternalLazy.Undefined] in one of them. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_sub s off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := Array.unsafe_get crc_table ((!c lxor Char.code s.[i]) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

let read_whole_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* The DIGESTS manifest: one line per cold file in a snapshot directory,
   carrying the file's CRC32.  Written when a snapshot is sealed, checked
   at boot, before a snapshot is shipped, and after one is received.

       bxdigests 1
       <crc32-hex8> <name>
       ...

   Names are sorted, so equal directories render byte-identical
   manifests.  The MANIFEST is excluded (it seals itself with its own
   crc field; it is also written after the DIGESTS) and so is the
   DIGESTS file itself.  A directory without one is a pre-digest layout
   and is accepted as [legacy] — upgrades must boot old stores. *)

module Digests = struct
  let name = "DIGESTS"
  let magic = "bxdigests 1\n"

  let covered n =
    n <> name && n <> "MANIFEST" && (String.length n = 0 || n.[0] <> '.')

  let render files =
    let files =
      List.filter (fun (n, _) -> covered n) files
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let buf = Buffer.create (64 + (48 * List.length files)) in
    Buffer.add_string buf magic;
    List.iter
      (fun (n, contents) ->
        Buffer.add_string buf (Printf.sprintf "%08x %s\n" (crc32 contents) n))
      files;
    Buffer.contents buf

  let parse data =
    let mlen = String.length magic in
    if String.length data < mlen || String.sub data 0 mlen <> magic then
      Error "bad digest manifest header"
    else
      let lines =
        String.split_on_char '\n' (String.sub data mlen (String.length data - mlen))
        |> List.filter (fun l -> l <> "")
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            match String.index_opt line ' ' with
            | Some 8 -> (
                let crc_s = String.sub line 0 8 in
                let n = String.sub line 9 (String.length line - 9) in
                match int_of_string_opt ("0x" ^ crc_s) with
                | Some crc when n <> "" -> go ((n, crc) :: acc) rest
                | _ -> Error (Printf.sprintf "bad digest line %S" line))
            | _ -> Error (Printf.sprintf "bad digest line %S" line))
      in
      go [] lines

  (* Verification of an in-memory [(name, contents)] payload against a
     manifest: every covered file must be listed with a matching crc, and
     every listed file must be present.  The corrupt list names both
     mismatches and the missing/unlisted discrepancies, so one flipped
     byte reports one (occasionally two, for a flipped *name* byte)
     named files rather than failing wholesale. *)
  let verify_files ~manifest files =
    let listed = Hashtbl.create 64 in
    List.iter (fun (n, crc) -> Hashtbl.replace listed n crc) manifest;
    let corrupt = ref [] in
    List.iter
      (fun (n, contents) ->
        if covered n then
          match Hashtbl.find_opt listed n with
          | None -> corrupt := (n, "not listed in DIGESTS") :: !corrupt
          | Some crc ->
              Hashtbl.remove listed n;
              let got = crc32 contents in
              if got <> crc then
                corrupt :=
                  (n, Printf.sprintf "crc mismatch: manifest %08x, file %08x"
                        crc got)
                  :: !corrupt)
      files;
    Hashtbl.iter
      (fun n _ -> corrupt := (n, "listed in DIGESTS but missing") :: !corrupt)
      listed;
    List.sort compare !corrupt

  type report = {
    present : bool;  (** a DIGESTS manifest exists (post-upgrade layout) *)
    checked : int;  (** cold files whose crc was recomputed *)
    corrupt : (string * string) list;  (** (file, named error), sorted *)
  }

  let flat_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> not (Sys.is_directory (Filename.concat dir n)))
    |> List.sort String.compare

  (* Write (or refresh) the manifest for a directory's flat files via the
     usual tmp + fsync + rename discipline. *)
  let write_dir ~dir =
    let files =
      List.filter_map
        (fun n ->
          if covered n then Some (n, read_whole_file (Filename.concat dir n))
          else None)
        (flat_files dir)
    in
    let file = Filename.concat dir name in
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (render files);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp file

  let verify_dir ~dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      { present = false; checked = 0; corrupt = [] }
    else
      let manifest_file = Filename.concat dir name in
      if not (Sys.file_exists manifest_file) then
        { present = false; checked = 0; corrupt = [] }
      else
        match parse (read_whole_file manifest_file) with
        | Error e ->
            (* The manifest itself is damaged.  The covered files may
               well be fine, so this counts as one named corruption (the
               manifest), not as a wholesale quarantine of the
               directory. *)
            { present = true; checked = 0; corrupt = [ (name, e) ] }
        | Ok manifest ->
            let files =
              List.filter_map
                (fun n ->
                  if covered n then
                    Some (n, read_whole_file (Filename.concat dir n))
                  else None)
                (flat_files dir)
            in
            {
              present = true;
              checked = List.length files;
              corrupt = verify_files ~manifest files;
            }
end

(* ------------------------------------------------------------------ *)
(* Per-shard anti-entropy digests: an order-insensitive XOR fold over
   per-entry content hashes.  XOR makes the fold a group operation, so a
   mutation updates a shard's digest in O(|entry|) — hash the entry
   before, hash it after, XOR both in — independent of how many entries
   the shard holds, and two replicas that hold the same entries report
   the same digest no matter what order writes arrived in. *)

let entry_hash registry id =
  match Bx_repo.Registry.versions registry id with
  | Error _ -> 0 (* absent: the fold identity, so XOR-in/XOR-out balances *)
  | Ok versions ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf (Bx_repo.Identifier.to_string id);
      Buffer.add_char buf '\x00';
      List.iter
        (fun v ->
          match Bx_repo.Registry.find_version registry id v with
          | Error _ -> ()
          | Ok t ->
              Buffer.add_string buf (Bx_repo.Version.to_string v);
              Buffer.add_char buf '\x00';
              Buffer.add_string buf (Bx_repo.Sync.wiki_text t);
              Buffer.add_char buf '\x00')
        versions;
      let h = crc32 (Buffer.contents buf) in
      (* 0 is the fold's identity ("entry absent"); nudge a real entry
         that happens to hash there so presence is always visible. *)
      if h = 0 then 1 else h

let doc_hash ~lens ~docid ~gen ~source =
  let h =
    crc32
      (Printf.sprintf "%s\x00%s\x00%d\x00%s" lens docid gen source)
  in
  if h = 0 then 1 else h

let shard_digest_of registry shard =
  List.fold_left
    (fun acc id -> acc lxor entry_hash registry id)
    0
    (Bx_repo.Registry.shard_ids registry shard)

(* The digest endpoint's wire form, and its parser for followers:

       bxdigest 1 <epoch> <shards>
       <shard> <digest-hex8>
       ... *)

let render_digests ~epoch digests =
  let buf = Buffer.create (32 + (16 * List.length digests)) in
  Buffer.add_string buf
    (Printf.sprintf "bxdigest 1 %d %d\n" epoch (List.length digests));
  List.iter
    (fun (k, d) -> Buffer.add_string buf (Printf.sprintf "%d %08x\n" k d))
    digests;
  Buffer.contents buf

let parse_digests body =
  match String.split_on_char '\n' body with
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ "bxdigest"; "1"; epoch_s; count_s ] -> (
          match (int_of_string_opt epoch_s, int_of_string_opt count_s) with
          | Some epoch, Some count ->
              let rec go acc n = function
                | [] | [ "" ] ->
                    if n = count then Ok (epoch, List.rev acc)
                    else Error "digest body truncated"
                | line :: rest -> (
                    match String.split_on_char ' ' line with
                    | [ k_s; d_s ] -> (
                        match
                          (int_of_string_opt k_s, int_of_string_opt ("0x" ^ d_s))
                        with
                        | Some k, Some d -> go ((k, d) :: acc) (n + 1) rest
                        | _ -> Error (Printf.sprintf "bad digest line %S" line))
                    | _ -> Error (Printf.sprintf "bad digest line %S" line))
              in
              go [] 0 rest
          | _ -> Error "bad digest header")
      | _ -> Error "bad digest header")
  | [] -> Error "empty digest body"

(* ------------------------------------------------------------------ *)
(* Per-entry law checks: the scrubber's unit of work on live registry
   data.  Template validity first, then the wiki round trip — the
   section 5.4 sync lens's GetPut at this very entry: rendering the
   template to wiki text and parsing it back must restore the normalised
   template, byte-for-byte in the checked fields.  A caller may inject a
   further law (the qcheck machinery run deterministically, say) via
   [law]. *)

let check_template ?law t =
  match Bx_repo.Template.validate t with
  | Error es -> Error ("invalid template: " ^ String.concat "; " es)
  | Ok () -> (
      let normal = Bx_repo.Sync.normalise t in
      match Bx_repo.Sync.of_wiki_text ~fallback:normal (Bx_repo.Sync.wiki_text t) with
      | Error e -> Error ("wiki round trip failed to parse: " ^ e)
      | Ok t' ->
          if not (Bx_repo.Template.equal normal (Bx_repo.Sync.normalise t')) then
            Error "wiki round trip changed the entry (GetPut violated)"
          else (
            match law with
            | None -> Ok ()
            | Some f -> f t))

let check_entry ?law registry id =
  match Bx_repo.Registry.versions registry id with
  | Error e -> Error (Bx_repo.Registry.error_message e)
  | Ok versions ->
      let rec go = function
        | [] -> Ok ()
        | v :: rest -> (
            match Bx_repo.Registry.find_version registry id v with
            | Error e -> Error (Bx_repo.Registry.error_message e)
            | Ok t -> (
                match check_template ?law t with
                | Error e ->
                    Error
                      (Printf.sprintf "version %s: %s"
                         (Bx_repo.Version.to_string v) e)
                | Ok () -> go rest))
      in
      go versions

(* ------------------------------------------------------------------ *)
(* Token bucket: the scrubber's pacing.  [rate] items per second, burst
   capacity of one second's worth, topped up lazily from a monotonic
   clock.  [take] blocks (sleeping) until the bucket covers [n] items —
   the scrubber thread owns its own schedule, so sleeping in place is
   the simplest correct throttle. *)

module Bucket = struct
  type t = {
    rate : float;
    burst : float;
    mutable tokens : float;
    mutable last : float;
  }

  let create ~rate =
    let rate = if rate <= 0. then 0. else rate in
    let burst = Float.max 1. rate in
    { rate; burst; tokens = burst; last = Bx_obs.Clock.now () }

  let refill t =
    let now = Bx_obs.Clock.now () in
    let dt = Float.max 0. (now -. t.last) in
    t.last <- now;
    t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate))

  (* With rate 0 the bucket is unmetered (scrub-at-full-speed, the
     offline [bxwiki scrub] mode). *)
  let take t n =
    if t.rate > 0. then begin
      refill t;
      let n = Float.min n t.burst in
      while t.tokens < n do
        Unix.sleepf (Float.min 0.05 ((n -. t.tokens) /. t.rate));
        refill t
      done;
      t.tokens <- t.tokens -. n
    end
end

(* ------------------------------------------------------------------ *)
(* The quarantine: corrupted data is flagged and kept, never dropped.
   Entries keep serving under a Warning header; documents answer 410;
   files are excluded from loads.  Keys are stable strings so the set
   survives being consulted from any layer. *)

module Quarantine = struct
  type key =
    | Entry of string  (** registry entry, by identifier string *)
    | Doc of string * string  (** docstore document, by (lens, docid) *)
    | File of string  (** cold file, by (shard-qualified) name *)

  let key_name = function
    | Entry id -> "entry " ^ id
    | Doc (lens, docid) -> Printf.sprintf "doc %s/%s" lens docid
    | File f -> "file " ^ f

  type t = {
    mu : Mutex.t;
    items : (key, string) Hashtbl.t;  (** key -> named reason *)
  }

  let create () = { mu = Mutex.create (); items = Hashtbl.create 16 }

  let with_mu t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (* [true] when the key is newly flagged — the caller bumps the
     corruption counters exactly once per distinct finding, so a scrub
     pass re-walking a known-bad entry does not inflate them. *)
  let flag t key ~reason =
    with_mu t (fun () ->
        if Hashtbl.mem t.items key then false
        else begin
          Hashtbl.replace t.items key reason;
          true
        end)

  let clear t key = with_mu t (fun () -> Hashtbl.remove t.items key)
  let find t key = with_mu t (fun () -> Hashtbl.find_opt t.items key)
  let size t = with_mu t (fun () -> Hashtbl.length t.items)

  let items t =
    with_mu t (fun () ->
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.items []
        |> List.sort compare)

  let counts t =
    with_mu t (fun () ->
        Hashtbl.fold
          (fun k _ (e, d, f) ->
            match k with
            | Entry _ -> (e + 1, d, f)
            | Doc _ -> (e, d + 1, f)
            | File _ -> (e, d, f + 1))
          t.items (0, 0, 0))
end
