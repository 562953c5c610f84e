let page_filename path =
  String.map (function ':' | '/' -> '_' | c -> c) path ^ ".wiki"

(* The path is reconstructed from page contents on load, so the flattened
   file name only needs to separate versioned from unversioned pages: a
   versioned page's name ends in "_<major>.<minor>.wiki". *)
let version_of_filename name =
  match Filename.chop_suffix_opt ~suffix:".wiki" name with
  | None -> None
  | Some base -> (
      match String.rindex_opt base '_' with
      | None -> None
      | Some i ->
          let suffix = String.sub base (i + 1) (String.length base - i - 1) in
          Result.to_option (Version.of_string suffix))

let index_page registry =
  let lines =
    List.concat_map
      (fun id ->
        match Registry.versions registry id with
        | Error _ -> []
        | Ok versions ->
            [
              Printf.sprintf "* %s: versions %s"
                (Identifier.to_string id)
                (String.concat ", " (List.map Version.to_string versions));
            ])
      (Registry.ids registry)
  in
  String.concat "\n"
    (("+ Index" :: "" :: lines) @ [ "" ])

(* Write one entry-set's pages and JSON sidecars under [dir]; the caller
   decides which slice of the registry to persist ({!save} = all entries,
   {!save_shard} = one shard).  Cost is proportional to the pages written,
   not to catalogue size. *)
let save_pages ~dir registry pages latest_ids =
  List.iter
    (fun (path, text) ->
      Fsio.write_file (Filename.concat dir (page_filename path)) text)
    pages;
  (* JSON sidecars for the latest version of each entry: the
     structured interchange form of section 5.1, alongside the wiki
     markup. *)
  let sidecars =
    List.filter_map
      (fun id ->
        match Registry.latest registry id with
        | Error _ -> None
        | Ok template ->
            let file =
              String.map
                (function ':' | '/' -> '_' | c -> c)
                (Identifier.wiki_path id)
              ^ ".json"
            in
            Some (file, Json_codec.to_string ~indent:2 template ^ "\n"))
      latest_ids
  in
  List.iter
    (fun (file, contents) -> Fsio.write_file (Filename.concat dir file) contents)
    sidecars;
  List.length pages + List.length sidecars

let save ~dir registry =
  try
    Fsio.ensure_dir dir;
    let written =
      save_pages ~dir registry (Registry.export registry)
        (Registry.ids registry)
    in
    Fsio.write_file (Filename.concat dir "INDEX.wiki") (index_page registry);
    Ok (written + 1)
  with
  | Sys_error e | Failure e -> Error e

let save_shard ~dir registry shard =
  try
    Fsio.ensure_dir dir;
    Ok
      (save_pages ~dir registry
         (Registry.export_shard registry shard)
         (Registry.shard_ids registry shard))
  with
  | Sys_error e | Failure e -> Error e

let load_pages ?(skip = fun _ -> false) ~dir () =
  try
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      failwith (dir ^ " is not a directory");
    let files = Sys.readdir dir in
    Array.sort String.compare files;
    let pages =
      Array.to_list files
      |> List.filter_map (fun name ->
             if skip name then None
             else
               match version_of_filename name with
               | None -> None
               | Some version ->
                   Some (version, Fsio.read_file (Filename.concat dir name)))
    in
    (* Rebuild (path, text) pairs for Registry.import: import only needs
       the version after the slash — entry identity comes from the page
       contents, so the synthetic path prefix just has to be unique. *)
    Ok
      (List.mapi
         (fun i (version, text) ->
           (Printf.sprintf "page%d/%s" i (Version.to_string version), text))
         pages)
  with
  | Sys_error e | Failure e -> Error e

let load ?shards ~dir () =
  match load_pages ~dir () with
  | Error e -> Error e
  | Ok as_pages -> Registry.import ?shards as_pages
