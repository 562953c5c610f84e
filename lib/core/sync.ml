exception Parse_error of string

(* --- text normalisation ------------------------------------------- *)

(* Whether [text] from [i] on is one normal paragraph: one line, no
   leading, trailing or doubled space, a non-blank character. *)
let rec one_para text i seen =
  let n = String.length text in
  if i = n then seen
  else
    match String.unsafe_get text i with
    | ' ' -> i > 0 && i + 1 < n && text.[i + 1] <> ' ' && one_para text (i + 1) seen
    | '\012' | '\r' | '\t' -> one_para text (i + 1) seen
    | c -> c <> '\n' && one_para text (i + 1) true

(* Split free text into paragraphs on blank lines (nothing but
   [String.trim]'s whitespace); inside a paragraph, collapse runs of
   spaces and line breaks to single spaces.  One pass finds each
   paragraph's span; a span already in that form is returned as a slice
   (the text itself when it is the whole text), any other is rebuilt. *)
let split_paragraphs text =
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

(* A text already one normal paragraph costs one pass and no copy. *)
let paragraphs_of_text text =
  if one_para text 0 false then [ text ] else split_paragraphs text

let normalise_text text =
  match paragraphs_of_text text with [ p ] -> p | ps -> String.concat "\n\n" ps

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

let model_bullet (m : Template.model_desc) =
  let base = m.model_name ^ ": " ^ normalise_text m.model_description in
  match m.meta_model with
  | None -> base
  | Some meta -> base ^ " [meta: " ^ meta ^ "]"

let artefact_bullet (a : Template.artefact) =
  Printf.sprintf "%s [%s]: %s" a.artefact_name
    (Template.artefact_kind_name a.artefact_kind)
    a.location

(* The entry layout, the one place that says which sections a page has
   and in what order: each block of [t]'s page goes to [emit] in turn,
   and a section with nothing in it is left out.  [para] makes the
   block of one normalised free-text paragraph. *)
let layout ~para emit (t : Template.t) =
  let open Markup in
  let section level name = function
    | [] -> ()
    | blocks -> emit (Heading (level, name)); List.iter emit blocks
  in
  let text name s = section 2 name (List.map para (paragraphs_of_text s)) in
  let bullets name f xs =
    section 2 name (if xs = [] then [] else [ Bullets (List.map f xs) ]) in
  let line s = [ Para [ Text s ] ] in
  emit (Heading (1, t.title));
  section 2 "Version" (line (Version.to_string t.version));
  section 2 "Type" (line (String.concat ", " (List.map Template.class_name t.classes)));
  text "Overview" t.overview;
  bullets "Models" model_bullet t.models;
  text "Consistency" t.consistency;
  (match
     ( paragraphs_of_text t.restoration.rest_forward,
       paragraphs_of_text t.restoration.rest_backward )
   with
  | [], [] -> ()
  | fwd, bwd ->
      emit (Heading (2, "Consistency Restoration"));
      section 3 "Forward" (List.map para fwd);
      section 3 "Backward" (List.map para bwd));
  bullets "Properties" Bx.Properties.claim_name t.properties;
  bullets "Variants"
    (fun (v : Template.variant) ->
      v.variant_name ^ ": " ^ normalise_text v.variant_description)
    t.variants;
  text "Discussion" t.discussion;
  bullets "References" Reference.to_line t.references;
  bullets "Authors" Contributor.to_string t.authors;
  bullets "Reviewers" Contributor.to_string t.reviewers;
  bullets "Comments"
    (fun (c : Template.comment) -> c.comment_author ^ ": " ^ c.comment_text)
    t.comments;
  bullets "Artefacts" artefact_bullet t.artefacts

let render_entry t =
  let blocks = ref [] in
  let para p = Markup.Para (Markup.parse_inlines p) in
  layout ~para (fun b -> blocks := b :: !blocks) t;
  List.rev !blocks

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

(* Whether [p] holds "[[[" at or after [i - 2]: each run of three covers
   an index [i + 3k], so only those are read until a '[' turns up. *)
let bracket p j = j >= 0 && j < String.length p && String.unsafe_get p j = '['

let rec has_link p i =
  i < String.length p
  && (bracket p i
      && (bracket p (i - 1) && (bracket p (i - 2) || bracket p (i + 1))
         || (bracket p (i + 1) && bracket p (i + 2)))
     || has_link p (i + 3))

(* A line without "[[[" prints back from its inlines as it is (only a
   link without a bar prints differently), so such a paragraph is
   written unparsed.  2000 bytes hold most pages and stay a minor-heap
   allocation. *)
let wiki_text t =
  let buf = Buffer.create 2000 in
  let para p =
    Markup.Para (if has_link p 2 then Markup.parse_inlines p else [ Markup.Text p ])
  in
  layout ~para (Markup.add_block buf) t;
  Buffer.contents buf

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
