module Slens = Bx_strlens.Slens
module Sdiff = Bx_strlens.Sdiff
module Delta = Bx_strlens.Slens_delta

let rs = '\x1e'

type entry = {
  mutable source : string;
  mutable view : string;
  mutable gen : int;
  cache : Delta.cache;
      (* private to this document; mutated under the store mutex *)
}

type t = {
  lenses : (string * Slens.t) list;
  docs : (string * string, entry) Hashtbl.t; (* (lens, docid) *)
  m : Mutex.t;
}

let create ~lenses = { lenses; docs = Hashtbl.create 64; m = Mutex.create () }

let locked t f =
  Mutex.lock t.m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.m)

let doc_count t = locked t (fun () -> Hashtbl.length t.docs)

type error =
  | Not_found of string
  | Stale of { current : int; got : int }
  | Bad_request of string
  | Unprocessable of string

let describe = function
  | Not_found m -> m
  | Stale { current; got } ->
      Printf.sprintf "stale generation: document is at %d, patch names %d"
        current got
  | Bad_request m -> m
  | Unprocessable m -> m

(* A docid travels inside patch frames (RS-separated) and path segments,
   so it must be a single printable token. *)
let docid_ok id =
  id <> ""
  && String.for_all (fun c -> c > '\x1f' && c <> '\x7f' && c <> '/') id

let ( let* ) = Result.bind

let find_lens t name =
  match List.assoc_opt name t.lenses with
  | Some l -> Ok l
  | None -> Error (Not_found (Printf.sprintf "unknown lens %S" name))

let find_doc t lens docid =
  match Hashtbl.find_opt t.docs (lens, docid) with
  | Some e -> Ok e
  | None -> Error (Not_found (Printf.sprintf "unknown document %S" docid))

let put_doc t ~lens ~docid ~source =
  locked t (fun () ->
      let* l = find_lens t lens in
      if not (docid_ok docid) then
        Error (Bad_request (Printf.sprintf "bad document id %S" docid))
      else
        match l.Slens.get source with
        | exception (Slens.Type_error m | Bx_strlens.Split.Split_error m) ->
            Error (Unprocessable m)
        | view -> (
            match Hashtbl.find_opt t.docs (lens, docid) with
            | Some e ->
                e.source <- source;
                e.view <- view;
                e.gen <- e.gen + 1;
                Delta.invalidate e.cache;
                Ok e.gen
            | None ->
                Hashtbl.replace t.docs (lens, docid)
                  { source; view; gen = 1; cache = Delta.make_cache () };
                Ok 1))

let get_doc t ~lens ~docid ~view =
  locked t (fun () ->
      let* _ = find_lens t lens in
      let* e = find_doc t lens docid in
      Ok (e.gen, if view then e.view else e.source))

let split_once sep str =
  match String.index_opt str sep with
  | None -> None
  | Some i ->
      Some
        (String.sub str 0 i, String.sub str (i + 1) (String.length str - i - 1))

(* [<docid> RS <gen> RS <edit>]. *)
let patch_frame body =
  let bad = Error (Bad_request "patch body must be <docid> RS (0x1e) <gen> RS <edit>") in
  match split_once rs body with
  | None -> bad
  | Some (docid, rest) -> (
      match split_once rs rest with
      | Some (gen, edit) when int_of_string_opt gen <> None ->
          Ok (docid, int_of_string gen, edit)
      | _ -> bad)

let patch t ~lens ~reverse body =
  locked t (fun () ->
      let* l = find_lens t lens in
      let* docid, gen, edit_frame = patch_frame body in
      let* e = find_doc t lens docid in
      if gen <> e.gen then Error (Stale { current = e.gen; got = gen })
      else
        let* edit =
          Result.map_error
            (fun m -> Unprocessable ("bad edit: " ^ m))
            (Sdiff.decode edit_frame)
        in
        try
          if reverse then begin
            (* Source edit, propagated forwards. *)
            let new_view, view_edit =
              Delta.get_delta l ~cache:e.cache ~source:e.source ~view:e.view edit
            in
            e.source <- Sdiff.apply e.source edit;
            e.view <- new_view;
            e.gen <- e.gen + 1;
            Ok (e.gen, view_edit)
          end
          else begin
            (* View edit, propagated backwards. *)
            let new_source, source_edit =
              Delta.put_delta l ~cache:e.cache ~source:e.source ~view:e.view edit
            in
            e.view <- Sdiff.apply e.view edit;
            e.source <- new_source;
            e.gen <- e.gen + 1;
            Ok (e.gen, source_edit)
          end
        with
        | Sdiff.Bad_edit m -> Error (Unprocessable ("bad edit: " ^ m))
        | Slens.Type_error m | Bx_strlens.Split.Split_error m ->
            (* The full-put fallback may have died halfway through a
               buffer; the cached decomposition is not to be trusted. *)
            Delta.invalidate e.cache;
            Error (Unprocessable m))

type op =
  | Put of { lens : string; docid : string }
  | Patch of { lens : string; reverse : bool }

(* The reply body is the wire answer: the new generation, and for a
   patch the complementary edit after an RS. *)
let mutate t op ~body =
  match op with
  | Put { lens; docid } ->
      Result.map
        (fun gen -> string_of_int gen ^ "\n")
        (put_doc t ~lens ~docid ~source:body)
  | Patch { lens; reverse } ->
      Result.map
        (fun (gen, edit) ->
          string_of_int gen ^ String.make 1 rs ^ Sdiff.encode edit)
        (patch t ~lens ~reverse body)

(* ------------------------------------------------------------------ *)
(* Snapshot dump: a deterministic, length-prefixed flat file.  Only
   (lens, docid, gen, source) is stored — the view is the lens's to
   recompute, which doubles as validation at load. *)

let docs_file = "DOCS.bxdocs"
let magic = "bxdocs1\n"

let dump t =
  locked t (fun () ->
      let entries =
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.docs []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf magic;
      Buffer.add_string buf (string_of_int (List.length entries));
      Buffer.add_char buf '\n';
      List.iter
        (fun ((lens, docid), e) ->
          Buffer.add_string buf
            (Printf.sprintf "%d %d %d %d\n" e.gen (String.length lens)
               (String.length docid)
               (String.length e.source));
          Buffer.add_string buf lens;
          Buffer.add_string buf docid;
          Buffer.add_string buf e.source;
          Buffer.add_char buf '\n')
        entries;
      Buffer.contents buf)

let parse s =
  let n = String.length s in
  let fail m = Error ("docstore dump: " ^ m) in
  let line_end pos =
    match String.index_from_opt s pos '\n' with
    | Some i -> Ok i
    | None -> fail "truncated"
  in
  let mlen = String.length magic in
  if not (String.starts_with ~prefix:magic s) then fail "bad magic"
  else
    let* ce = line_end mlen in
    match int_of_string_opt (String.sub s mlen (ce - mlen)) with
    | None -> fail "bad count"
    | Some count ->
        let rec go k pos acc =
          if k = count then
            if pos = n then Ok (List.rev acc) else fail "trailing bytes"
          else
            let* he = line_end pos in
            match
              String.split_on_char ' ' (String.sub s pos (he - pos))
              |> List.map int_of_string_opt
            with
            | [ Some gen; Some ll; Some dl; Some sl ]
              when gen > 0 && ll >= 0 && dl >= 0 && sl >= 0 ->
                let start = he + 1 in
                let stop = start + ll + dl + sl in
                if stop + 1 > n then fail "truncated"
                else if s.[stop] <> '\n' then fail "bad record terminator"
                else
                  let field off len = String.sub s (start + off) len in
                  go (k + 1) (stop + 1)
                    ((field 0 ll, field ll dl, gen, field (ll + dl) sl) :: acc)
            | _ -> fail "bad record header"
        in
        go 0 (ce + 1) []

let load t s =
  let* records = parse s in
  locked t (fun () ->
      Hashtbl.reset t.docs;
      let rec go = function
        | [] -> Ok ()
        | (lens, docid, gen, source) :: rest -> (
            match List.assoc_opt lens t.lenses with
            | None ->
                Printf.eprintf
                  "bxwiki: docstore: skipping %S/%S (unknown lens)\n%!" lens
                  docid;
                go rest
            | Some l -> (
                match l.Slens.get source with
                | exception (Slens.Type_error m | Bx_strlens.Split.Split_error m)
                  ->
                    Error (Printf.sprintf "docstore dump: %s/%s: %s" lens docid m)
                | view ->
                    Hashtbl.replace t.docs (lens, docid)
                      { source; view; gen; cache = Delta.make_cache () };
                    go rest))
      in
      go records)

let save_dir t ~dir =
  if doc_count t = 0 then Ok ()
  else
    (* Atomic, so a crash mid-write cannot leave a half dump where the
       checksum manifest expects a whole one. *)
    Bx_repo.Fsio.guard (fun () ->
        Bx_repo.Fsio.write_file (Filename.concat dir docs_file) (dump t);
        Ok ())

let doc_keys t =
  locked t (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.docs [] |> List.sort compare)

(* A lens or document missing here vanished between the scrubber's key
   walk and this check. *)
let check_doc t ~lens ~docid =
  locked t (fun () ->
      match
        (List.assoc_opt lens t.lenses, Hashtbl.find_opt t.docs (lens, docid))
      with
      | None, _ | _, None -> `Gone
      | Some l, Some e -> (
          match l.Slens.get e.source with
          | exception (Slens.Type_error m | Bx_strlens.Split.Split_error m) ->
              `Bad (Printf.sprintf "get raised: %s" m)
          | view ->
              if String.equal view e.view then `Ok
              else
                `Bad
                  (Printf.sprintf
                     "view drift: stored view (%d bytes) <> get source (%d \
                      bytes)"
                     (String.length e.view) (String.length view))))

let doc_digest_parts t =
  locked t (fun () ->
      Hashtbl.fold
        (fun (lens, docid) e acc -> (lens, docid, e.gen, e.source) :: acc)
        t.docs []
      |> List.sort compare)

let load_dir t ~dir =
  let file = Filename.concat dir docs_file in
  if not (Sys.file_exists file) then begin
    locked t (fun () -> Hashtbl.reset t.docs);
    Ok ()
  end
  else
    try load t (Bx_repo.Fsio.read_file file)
    with
    | Sys_error e -> Error ("docstore dump: " ^ e)
    | End_of_file -> Error "docstore dump: truncated file"
