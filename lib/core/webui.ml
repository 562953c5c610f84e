type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
}

let html_page ~title body =
  Printf.sprintf
    "<!doctype html>\n\
     <html><head><meta charset=\"utf-8\"><title>%s</title>\n\
     <style>body{font-family:sans-serif;max-width:50em;margin:2em \
     auto;padding:0 1em;line-height:1.5}code,pre{background:#f4f4f4}\n\
     h1{border-bottom:2px solid #ccc}h2{color:#444}</style></head>\n\
     <body>%s</body></html>\n"
    (Markup.html_escape title) body

let respond ?(content_type = "text/html; charset=utf-8") ?(headers = []) status
    body =
  { status; content_type; body; headers }

let not_found path =
  respond 404 (html_page ~title:"Not found" ("<h1>No such page</h1><p>" ^ Markup.html_escape path ^ "</p>"))

(* {2 Query strings}

   The one query-string parser, the server's included: percent-decoding
   is what search values (spaces in author names) need. *)

let urldecode s =
  let buf = Buffer.create (String.length s) in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match s.[i] with
      | '+' ->
          Buffer.add_char buf ' ';
          go (i + 1)
      | '%' when i + 2 < n -> (
          match (hex s.[i + 1], hex s.[i + 2]) with
          | Some h, Some l ->
              Buffer.add_char buf (Char.chr ((h * 16) + l));
              go (i + 3)
          | _ ->
              Buffer.add_char buf '%';
              go (i + 1))
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

let query_params query =
  if query = "" then []
  else
    List.filter_map
      (fun pair ->
        if pair = "" then None
        else
          match String.index_opt pair '=' with
          | None -> Some (urldecode pair, "")
          | Some i ->
              Some
                ( urldecode (String.sub pair 0 i),
                  urldecode
                    (String.sub pair (i + 1) (String.length pair - i - 1)) ))
      (String.split_on_char '&' query)

(* {2 The paginated index}

   The entry list is sliced by submission order ([Registry.ids_page]), so
   rendering one page costs O(page size) whatever the catalogue holds.
   The cross-reference index is itself a whole-catalogue scan, so it only
   appears while the catalogue is small enough for that to be free. *)

let index_per_page_default = 100
let index_with_crossref_max = 200

let index_page registry query =
  let params = query_params query in
  let int_param name default =
    match List.assoc_opt name params with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  in
  let per_page =
    max 1 (min 1000 (int_param "per_page" index_per_page_default))
  in
  let total = Registry.size registry in
  let pages = max 1 ((total + per_page - 1) / per_page) in
  let page = max 1 (min pages (int_param "page" 1)) in
  let offset = (page - 1) * per_page in
  let entry_list =
    Markup.Bullets
      (List.map
         (fun id ->
           let path = Identifier.wiki_path id in
           Printf.sprintf "%s — /%s" (Identifier.to_string id) path)
         (Registry.ids_page registry ~offset ~limit:per_page))
  in
  let nav =
    if pages <= 1 then []
    else
      let link p label =
        Markup.Link
          {
            target = Printf.sprintf "/?page=%d&per_page=%d" p per_page;
            label;
          }
      in
      [
        Markup.Para
          ((if page > 1 then [ link (page - 1) "newer"; Markup.Text " · " ]
            else [])
          @ [
              Markup.Text
                (Printf.sprintf "page %d of %d (%d entries)" page pages total);
            ]
          @
          if page < pages then [ Markup.Text " · "; link (page + 1) "older" ]
          else []);
      ]
  in
  let doc =
    [
      Markup.Heading (1, Citation.repository_name);
      Markup.Para
        [
          Markup.Text
            "A curated repository of bidirectional transformation \
             examples. Every page is a lens view of a structured entry; \
             editing a page and posting it back runs the section 5.4 bx.";
        ];
      Markup.Heading (2, "Entries");
      entry_list;
    ]
    @ nav
    @ (if total <= index_with_crossref_max then Catalogue_index.render registry
       else [])
  in
  respond 200 (html_page ~title:Citation.repository_name (Markup.to_html doc))

(* {2 Search}

   A thin HTML front on {!Registry.search}: every parameter narrows the
   result, unknown names are a 400 (a typo'd class silently matching
   nothing would be worse), and the criteria the indexes answer make the
   whole thing flat-latency at catalogue scale. *)

let search_page registry query =
  let params = query_params query in
  let param name =
    match List.assoc_opt name params with
    | Some "" | None -> None
    | Some v -> Some v
  in
  let bad what v =
    Error (Printf.sprintf "unknown %s %S" what v)
  in
  let parse_opt what of_name = function
    | None -> Ok None
    | Some v -> (
        match of_name v with Some x -> Ok (Some x) | None -> bad what v)
  in
  let ( let* ) = Result.bind in
  let built =
    let* cls = parse_opt "class" Template.class_of_name (param "class") in
    let* property =
      parse_opt "property" Bx.Properties.claim_of_name (param "property")
    in
    let* state = parse_opt "state" Registry.state_of_name (param "state") in
    let text =
      match param "text" with Some _ as t -> t | None -> param "q"
    in
    Ok
      {
        Registry.q_class = cls;
        q_property = property;
        q_text = text;
        q_author = param "author";
        q_tag = param "tag";
        q_state = state;
      }
  in
  match built with
  | Error e ->
      respond 400
        (html_page ~title:"Bad search" ("<p>" ^ Markup.html_escape e ^ "</p>"))
  | Ok q ->
      let ids = Registry.search registry q in
      let describe =
        List.filter_map
          (fun (name, value) ->
            Option.map (fun v -> name ^ "=" ^ v) value)
          [
            ("class", param "class");
            ("property", param "property");
            ("author", param "author");
            ("tag", param "tag");
            ("state", param "state");
            ("text", (match param "text" with None -> param "q" | t -> t));
          ]
      in
      let doc =
        [
          Markup.Heading (1, "Search");
          Markup.Para
            [
              Markup.Text
                (Printf.sprintf "%d match%s%s" (List.length ids)
                   (if List.length ids = 1 then "" else "es")
                   (if describe = [] then ""
                    else " for " ^ String.concat ", " describe));
            ];
          Markup.Bullets
            (List.map
               (fun id ->
                 Printf.sprintf "%s — /%s" (Identifier.to_string id)
                   (Identifier.wiki_path id))
               ids);
        ]
      in
      respond 200 (html_page ~title:"Search" (Markup.to_html doc))

let glossary_page () =
  let doc =
    Markup.Heading (1, "Glossary")
    :: List.concat_map
         (fun (term, definition) ->
           [ Markup.Heading (2, term); Markup.Para [ Markup.Text definition ] ])
         (Glossary.terms ())
  in
  respond 200 (html_page ~title:"Glossary" (Markup.to_html doc))

(* {2 The page grammar}

   "/examples:composers.wiki" names COMPOSERS, as wiki text.  The entry
   need not exist, which lets a sharded server pick the shard lock (and
   journal segment) before touching the registry. *)

type form = Html | Wiki | Json

type page =
  | Index
  | Search
  | Glossary
  | Manuscript
  | Extra of string
  | Entry of { id : Identifier.t; form : form }

let parse_path ~pages path =
  match path with
  | "/" -> Ok Index
  | "/search" -> Ok Search
  | "/glossary" -> Ok Glossary
  | "/manuscript" -> Ok Manuscript
  | _ when List.mem_assoc path pages -> Ok (Extra path)
  | _ -> (
      let form =
        if Filename.check_suffix path ".wiki" then Wiki
        else if Filename.check_suffix path ".json" then Json
        else Html
      in
      let stop = String.length path - if form = Html then 0 else 5 in
      let start = 1 + Option.value ~default:0 (String.index_from_opt path 1 ':') in
      match Identifier.of_string (String.sub path start (stop - start)) with
      | Ok id -> Ok (Entry { id; form })
      | Error _ -> Error form)

let page_identifier path =
  if path = "" || path.[0] <> '/' then None
  else
    match parse_path ~pages:[] path with
    | Ok (Entry { id; _ }) -> Some id
    | _ -> None

let get ~pages ~query registry ~path = function
  | Index -> index_page registry query
  | Search -> search_page registry query
  | Glossary -> glossary_page ()
  | Manuscript ->
      respond 200
        (html_page ~title:"Collected Examples"
           (Markup.to_html (Manuscript.document registry)))
  | Extra name -> (
      match List.assoc_opt name pages with
      | Some render ->
          let title, fragment = render () in
          respond 200 (html_page ~title fragment)
      | None -> not_found path)
  | Entry { id; form } -> (
      match (Registry.latest registry id, form) with
      | Error _, _ -> not_found path
      | Ok template, Wiki ->
          respond ~content_type:"text/plain; charset=utf-8" 200
            (Sync.wiki_text template)
      | Ok template, Json ->
          respond ~content_type:"application/json" 200
            (Json_codec.to_string ~indent:2 template ^ "\n")
      | Ok template, Html ->
          (* An HTML entry path has no suffix: the links name the page as
             it was requested. *)
          let page = String.sub path 1 (String.length path - 1) in
          let footer =
            Printf.sprintf
              "<hr><p><a href=\"/\">index</a> · <a \
               href=\"/%s.wiki\">wiki source</a> · <a \
               href=\"/%s.json\">json</a> · cite: %s</p>"
              page page
              (Markup.html_escape (Citation.entry ~id template))
          in
          respond 200
            (html_page ~title:template.Template.title
               (Markup.to_html (Sync.render_entry template) ^ footer)))

let default_editor = Curation.account ~role:Curation.Curator "wiki"

let post ~editor registry ~path id ~body =
  match Registry.latest registry id with
  | Error _ -> not_found path
  | Ok current -> (
      match Sync.of_wiki_text ~fallback:current body with
      | Error e ->
          respond 400
            (html_page ~title:"Bad page" ("<p>" ^ Markup.html_escape e ^ "</p>"))
      | Ok edited -> (
          match Registry.revise registry ~as_:editor id edited with
          | Ok version ->
              respond 200
                (html_page ~title:"Saved"
                   (Printf.sprintf "<p>Saved as version %s.</p>"
                      (Version.to_string version)))
          | Error (Registry.Permission_denied msg) ->
              respond 403 (html_page ~title:"Forbidden" (Markup.html_escape msg))
          | Error e ->
              respond 400
                (html_page ~title:"Rejected"
                   (Markup.html_escape (Registry.error_message e)))))

let handle ?(editor = default_editor) ?(pages = []) ?(query = "") registry
    ~meth ~path ~body =
  if path = "" || path.[0] <> '/' then
    respond ~content_type:"text/plain; charset=utf-8" 400
      "bad request path: it must begin with /\n"
  else
    match (String.uppercase_ascii meth, parse_path ~pages path) with
    | "GET", Ok page -> get ~pages ~query registry ~path page
    | "POST", Ok (Entry { id; _ }) -> post ~editor registry ~path id ~body
    | ("GET" | "POST"), _ -> not_found path
    | _ ->
        respond 405
          (html_page ~title:"Method not allowed" "<p>Use GET or POST.</p>")
