exception Parse_error of string

(* --- text normalisation ------------------------------------------- *)

(* Split free text into paragraphs on blank lines (nothing but
   [String.trim]'s whitespace); inside a paragraph, collapse runs of
   spaces and line breaks to single spaces.  One pass finds each
   paragraph's span; a span already in that form is returned as a slice
   (the text itself when it is the whole text), any other is rebuilt. *)
let paragraphs_of_text text =
  let n = String.length text in
  let sep i = text.[i] = ' ' || text.[i] = '\n' in
  let collapse a b =
    let rec normal i =
      i >= b
      || (not (sep i) || (text.[i] = ' ' && i > a && i + 1 < b && not (sep (i + 1))))
         && normal (i + 1)
    in
    if normal a then if a = 0 && b = n then text else String.sub text a (b - a)
    else begin
      let buf = Buffer.create (b - a) in
      for i = a to b - 1 do
        if not (sep i) then begin
          if Buffer.length buf > 0 && sep (i - 1) then Buffer.add_char buf ' ';
          Buffer.add_char buf text.[i]
        end
      done;
      Buffer.contents buf
    end
  in
  let rec blank i stop =
    i >= stop
    || (match text.[i] with ' ' | '\012' | '\r' | '\t' -> true | _ -> false)
       && blank (i + 1) stop
  in
  (* [start, last): the non-blank lines of the open paragraph, if any. *)
  let close acc start last = if start < 0 then acc else collapse start last :: acc in
  let rec lines acc start last i =
    if i > n then List.rev (close acc start last)
    else
      let stop = Option.value ~default:n (String.index_from_opt text i '\n') in
      if blank i stop then lines (close acc start last) (-1) 0 (stop + 1)
      else lines acc (if start < 0 then i else start) stop (stop + 1)
  in
  lines [] (-1) 0 0

let normalise_text text = String.concat "\n\n" (paragraphs_of_text text)

let normalise (t : Template.t) =
  {
    t with
    overview = normalise_text t.overview;
    consistency = normalise_text t.consistency;
    discussion = normalise_text t.discussion;
    restoration =
      {
        rest_forward = normalise_text t.restoration.rest_forward;
        rest_backward = normalise_text t.restoration.rest_backward;
      };
    models =
      List.map
        (fun (m : Template.model_desc) ->
          { m with model_description = normalise_text m.model_description })
        t.models;
    variants =
      List.map
        (fun (v : Template.variant) ->
          { v with variant_description = normalise_text v.variant_description })
        t.variants;
  }

(* --- rendering ----------------------------------------------------- *)

let paras_of text =
  List.map (fun p -> Markup.Para (Markup.parse_inlines p)) (paragraphs_of_text text)

let section name blocks =
  if blocks = [] then [] else Markup.Heading (2, name) :: blocks

let text_section name text =
  if String.trim text = "" then [] else section name (paras_of text)

let bullet_section name items =
  if items = [] then [] else section name [ Markup.Bullets items ]

let model_bullet (m : Template.model_desc) =
  let base = m.model_name ^ ": " ^ normalise_text m.model_description in
  match m.meta_model with
  | None -> base
  | Some meta -> base ^ " [meta: " ^ meta ^ "]"

let artefact_bullet (a : Template.artefact) =
  Printf.sprintf "%s [%s]: %s" a.artefact_name
    (Template.artefact_kind_name a.artefact_kind)
    a.location

let render_entry (t : Template.t) =
  let open Markup in
  List.concat
    [
      [ Heading (1, t.title) ];
      section "Version" [ Para [ Text (Version.to_string t.version) ] ];
      section "Type"
        [
          Para
            [ Text (String.concat ", " (List.map Template.class_name t.classes)) ];
        ];
      text_section "Overview" t.overview;
      bullet_section "Models" (List.map model_bullet t.models);
      text_section "Consistency" t.consistency;
      (let fwd = String.trim t.restoration.rest_forward in
       let bwd = String.trim t.restoration.rest_backward in
       if fwd = "" && bwd = "" then []
       else
         [ Heading (2, "Consistency Restoration") ]
         @ (if fwd = "" then []
            else Heading (3, "Forward") :: paras_of t.restoration.rest_forward)
         @
         if bwd = "" then []
         else Heading (3, "Backward") :: paras_of t.restoration.rest_backward);
      bullet_section "Properties"
        (List.map Bx.Properties.claim_name t.properties);
      bullet_section "Variants"
        (List.map
           (fun (v : Template.variant) ->
             v.variant_name ^ ": " ^ normalise_text v.variant_description)
           t.variants);
      text_section "Discussion" t.discussion;
      bullet_section "References" (List.map Reference.to_line t.references);
      bullet_section "Authors" (List.map Contributor.to_string t.authors);
      bullet_section "Reviewers" (List.map Contributor.to_string t.reviewers);
      bullet_section "Comments"
        (List.map
           (fun (c : Template.comment) ->
             c.comment_author ^ ": " ^ c.comment_text)
           t.comments);
      bullet_section "Artefacts" (List.map artefact_bullet t.artefacts);
    ]

(* --- parsing -------------------------------------------------------- *)

(* Group a page into its title and (section name, blocks) pairs; level-3
   headings stay inside their section's block list. *)
let sections_of_doc doc =
  match doc with
  | Markup.Heading (1, title) :: rest ->
      let rec group acc current_name current_blocks = function
        | [] -> List.rev ((current_name, List.rev current_blocks) :: acc)
        | Markup.Heading (2, name) :: rest ->
            group
              ((current_name, List.rev current_blocks) :: acc)
              name [] rest
        | block :: rest -> group acc current_name (block :: current_blocks) rest
      in
      let sections =
        match rest with
        | [] -> []
        | _ -> (
            match group [] "" [] rest with
            | ("", []) :: sections -> sections
            | sections -> sections)
      in
      Ok (title, sections)
  | _ -> Error "page must start with a level-1 title heading"

let text_of_blocks blocks =
  List.filter_map
    (function
      | Markup.Para inlines -> Some (Markup.render_inlines inlines)
      | _ -> None)
    blocks
  |> String.concat "\n\n"

let bullets_of_blocks blocks =
  List.concat_map
    (function Markup.Bullets items -> items | _ -> [])
    blocks

let split_on_first marker s =
  let mlen = String.length marker in
  let n = String.length s in
  let rec scan i =
    if i + mlen > n then None
    else if String.sub s i mlen = marker then
      Some (String.sub s 0 i, String.sub s (i + mlen) (n - i - mlen))
    else scan (i + 1)
  in
  scan 0

let parse_model item =
  match split_on_first ": " item with
  | None -> Error (Printf.sprintf "model bullet %S lacks a 'NAME: description'" item)
  | Some (name, rest) ->
      let description, meta =
        match split_on_first " [meta: " rest with
        | Some (desc, meta_part)
          when String.length meta_part > 0
               && meta_part.[String.length meta_part - 1] = ']' ->
            (desc, Some (String.sub meta_part 0 (String.length meta_part - 1)))
        | _ -> (rest, None)
      in
      Ok
        Template.
          { model_name = name; model_description = description; meta_model = meta }

let parse_variant item =
  match split_on_first ": " item with
  | None -> Error (Printf.sprintf "variant bullet %S lacks a 'name: description'" item)
  | Some (name, description) ->
      Ok Template.{ variant_name = name; variant_description = description }

let parse_comment item =
  match split_on_first ": " item with
  | None -> Error (Printf.sprintf "comment bullet %S lacks an 'author: text'" item)
  | Some (author, text) ->
      Ok Template.{ comment_author = author; comment_text = text }

let parse_artefact item =
  match split_on_first " [" item with
  | None -> Error (Printf.sprintf "artefact bullet %S lacks a '[kind]'" item)
  | Some (name, rest) -> (
      match split_on_first "]: " rest with
      | None ->
          Error (Printf.sprintf "artefact bullet %S lacks a ']: location'" item)
      | Some (kind, location) ->
          Ok
            Template.
              {
                artefact_name = name;
                artefact_kind = Template.artefact_kind_of_name kind;
                location;
              })

let parse_property item =
  match Bx.Properties.claim_of_name item with
  | Some claim -> Ok claim
  | None -> Error (Printf.sprintf "unknown property claim %S" item)

let rec collect_results f = function
  | [] -> Ok []
  | x :: rest -> (
      match f x with
      | Error e -> Error e
      | Ok y -> (
          match collect_results f rest with
          | Error e -> Error e
          | Ok ys -> Ok (y :: ys)))

(* Forward/Backward subsections of Consistency Restoration. *)
let parse_restoration blocks =
  let rec group current acc = function
    | [] -> List.rev ((fst current, List.rev (snd current)) :: acc)
    | Markup.Heading (3, name) :: rest ->
        group (name, []) ((fst current, List.rev (snd current)) :: acc) rest
    | block :: rest -> group (fst current, block :: snd current) acc rest
  in
  let groups = group ("", []) [] blocks in
  let find name =
    List.find_map
      (fun (n, blocks) ->
        if String.lowercase_ascii n = name then Some (text_of_blocks blocks)
        else None)
      groups
  in
  Template.
    {
      rest_forward = Option.value ~default:"" (find "forward");
      rest_backward = Option.value ~default:"" (find "backward");
    }

let blank ~title =
  Template.make ~title ~classes:[] ~overview:"" ~models:[] ~consistency:""
    ~authors:[] ()

let parse_entry ~fallback doc =
  match sections_of_doc doc with
  | Error e -> Error e
  | Ok (title, sections) ->
      let ( let* ) r f = match r with Error e -> Error e | Ok x -> f x in
      let find name =
        List.find_map
          (fun (n, blocks) ->
            if String.lowercase_ascii (String.trim n) = name then Some blocks
            else None)
          sections
      in
      let text_field name default =
        match find name with
        | None -> default
        | Some blocks -> text_of_blocks blocks
      in
      (* Optional list-valued sections: absence from the page means the
         field is empty (a deletion), keeping put/get round trips exact. *)
      let bullet_field name parse =
        match find name with
        | None -> Ok []
        | Some blocks -> collect_results parse (bullets_of_blocks blocks)
      in
      (* Required sections fall back to the old entry when absent. *)
      let required_bullet_field name parse default =
        match find name with
        | None -> Ok default
        | Some blocks -> collect_results parse (bullets_of_blocks blocks)
      in
      let* version =
        match find "version" with
        | None -> Ok fallback.Template.version
        | Some blocks -> Version.of_string (text_of_blocks blocks)
      in
      let* classes =
        match find "type" with
        | None -> Ok fallback.Template.classes
        | Some blocks ->
            text_of_blocks blocks |> String.split_on_char ','
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> collect_results (fun s ->
                   match Template.class_of_name s with
                   | Some c -> Ok c
                   | None -> Error (Printf.sprintf "unknown example class %S" s))
      in
      let* models =
        required_bullet_field "models" parse_model fallback.Template.models
      in
      let* properties = bullet_field "properties" parse_property in
      let* variants = bullet_field "variants" parse_variant in
      let* references = bullet_field "references" Reference.of_line in
      let* authors =
        required_bullet_field "authors"
          (fun s -> Ok (Contributor.of_string s))
          fallback.Template.authors
      in
      let* reviewers =
        bullet_field "reviewers" (fun s -> Ok (Contributor.of_string s))
      in
      let* comments = bullet_field "comments" parse_comment in
      let* artefacts = bullet_field "artefacts" parse_artefact in
      let restoration =
        (* Restoration may legitimately be empty (SKETCH entries), so it
           follows the absence-means-empty rule. *)
        match find "consistency restoration" with
        | None -> Template.{ rest_forward = ""; rest_backward = "" }
        | Some blocks -> parse_restoration blocks
      in
      Ok
        {
          Template.title;
          version;
          classes;
          overview = text_field "overview" fallback.Template.overview;
          models;
          consistency = text_field "consistency" fallback.Template.consistency;
          restoration;
          properties;
          variants;
          discussion = text_field "discussion" fallback.Template.discussion;
          references;
          authors;
          reviewers;
          comments;
          artefacts;
        }

let lens () =
  Bx.Lens.make ~name:"template-wiki-sync" ~get:render_entry
    ~put:(fun doc t ->
      match parse_entry ~fallback:t doc with
      | Ok t' -> t'
      | Error e -> raise (Parse_error e))
    ~create:(fun doc ->
      let title =
        match doc with Markup.Heading (1, t) :: _ -> t | _ -> "UNTITLED"
      in
      match parse_entry ~fallback:(blank ~title) doc with
      | Ok t -> t
      | Error e -> raise (Parse_error e))

let wiki_text t = Markup.render (render_entry t)

let of_wiki_text ?fallback text =
  match Markup.parse text with
  | Error e -> Error e
  | Ok doc ->
      let fallback =
        match fallback with
        | Some f -> f
        | None ->
            let title =
              match doc with Markup.Heading (1, t) :: _ -> t | _ -> "UNTITLED"
            in
            blank ~title
      in
      parse_entry ~fallback doc
