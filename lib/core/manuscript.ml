let latest_entries registry =
  List.filter_map
    (fun id ->
      match Registry.latest registry id with
      | Ok t -> Some (id, t)
      | Error _ -> None)
    (Registry.ids registry)

(* Entries are visited once each, so a name's list can only meet an
   identifier again within the same entry, i.e. at its head. *)
let contributors registry =
  let tbl = Hashtbl.create 16 in
  let add person id =
    let name = person.Contributor.person_name in
    match Hashtbl.find_opt tbl name with
    | Some (last :: _) when last = id -> ()
    | ids -> Hashtbl.replace tbl name (id :: Option.value ~default:[] ids)
  in
  List.iter
    (fun (id, t) ->
      let id = Identifier.to_string id in
      List.iter (fun p -> add p id) t.Template.authors;
      List.iter (fun p -> add p id) t.Template.reviewers)
    (latest_entries registry);
  Hashtbl.fold (fun name ids acc -> (name, List.rev ids) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Demote every heading one level so entry titles nest under the
   manuscript title. *)
let demote doc =
  List.map
    (function
      | Markup.Heading (level, text) -> Markup.Heading (level + 1, text)
      | block -> block)
    doc

(* A list with no items is no block at all: printed, it would be a bare
   blank line, which parses back to nothing. *)
let bullets = function [] -> [] | items -> [ Markup.Bullets items ]

let document registry =
  let entries = latest_entries registry in
  let toc =
    bullets
      (List.map
         (fun (id, t) ->
           Printf.sprintf "%s (version %s)"
             (Identifier.to_string id)
             (Version.to_string t.Template.version))
         entries)
  in
  let body = List.concat_map (fun (_, t) -> demote (Sync.render_entry t)) entries in
  let credits =
    bullets
      (List.map
         (fun (name, ids) ->
           Printf.sprintf "%s: %s" name (String.concat ", " ids))
         (contributors registry))
  in
  [
    Markup.Heading (1, Citation.repository_name ^ ": Collected Examples");
    Markup.Para
      [
        Markup.Text
          "An archival collection of the most recent version of every \
           example in the repository. Cite the repository as: ";
      ];
    Markup.Para [ Markup.Text (Citation.repository ()) ];
    Markup.Heading (2, "Contents");
  ]
  @ toc @ body
  @ (Markup.Heading (2, "Credits") :: credits)

let generate registry = Markup.render (document registry)

let bibliography registry =
  let entries = latest_entries registry in
  String.concat "\n\n"
    (List.map (fun (id, t) -> Citation.entry_bibtex ~id t) entries
    @ [
        Printf.sprintf
          "@misc{bx-examples-repository,\n\
          \  title        = {%s},\n\
          \  howpublished = {\\url{%s}}\n\
           }"
          Citation.repository_name Citation.repository_url;
      ])
