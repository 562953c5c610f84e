(* The wiki markup kernels as they stood before they were rewritten to
   scan in place, kept verbatim as the reference implementation: every
   marker test copies a substring, text runs grow one byte at a time,
   renderers concatenate per block, and the entry page prints
   contributors and versions through [Format] and [Printf].  The QCheck
   equivalence suite asserts that [Markup], [Sync] and [Integrity]
   compute exactly the same functions.  Only the tests link this
   library. *)

open Bx_repo

type inline = Markup.inline =
  | Text of string
  | Bold of string
  | Italic of string
  | Code of string
  | Link of { target : string; label : string }

type block = Markup.block =
  | Heading of int * string
  | Para of inline list
  | Bullets of string list
  | Code_block of string list

let render_inline = function
  | Text s -> s
  | Bold s -> "**" ^ s ^ "**"
  | Italic s -> "//" ^ s ^ "//"
  | Code s -> "{{" ^ s ^ "}}"
  | Link { target; label } -> "[[[" ^ target ^ "|" ^ label ^ "]]]"

let render_inlines inlines = String.concat "" (List.map render_inline inlines)

let render_block = function
  | Heading (level, text) -> String.make (max 1 level) '+' ^ " " ^ text
  | Para inlines -> render_inlines inlines
  | Bullets items -> String.concat "\n" (List.map (fun i -> "* " ^ i) items)
  | Code_block lines ->
      String.concat "\n" (("[[code]]" :: lines) @ [ "[[/code]]" ])

let render doc =
  match doc with
  | [] -> ""
  | _ -> String.concat "\n\n" (List.map render_block doc) ^ "\n"

(* --- inline parsing ----------------------------------------------- *)

(* Scan for the two-character markers; on finding an opener, look for its
   closer.  Unclosed markers fall through as literal text. *)
let parse_inlines line =
  let n = String.length line in
  let out = ref [] in
  let buf = Buffer.create 32 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      out := Text (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  let find_close marker from =
    let m = String.length marker in
    let rec scan i =
      if i + m > n then None
      else if String.sub line i m = marker then Some i
      else scan (i + 1)
    in
    scan from
  in
  let rec go i =
    if i >= n then ()
    else if i + 3 <= n && String.sub line i 3 = "[[[" then begin
      match find_close "]]]" (i + 3) with
      | Some close ->
          let body = String.sub line (i + 3) (close - i - 3) in
          let target, label =
            match String.index_opt body '|' with
            | Some k ->
                ( String.sub body 0 k,
                  String.sub body (k + 1) (String.length body - k - 1) )
            | None -> (body, body)
          in
          flush_text ();
          out := Link { target; label } :: !out;
          go (close + 3)
      | None ->
          Buffer.add_char buf line.[i];
          go (i + 1)
    end
    else if i + 2 <= n then begin
      let two = String.sub line i 2 in
      let marked ctor marker =
        match find_close marker (i + 2) with
        | Some close when close > i + 2 ->
            let body = String.sub line (i + 2) (close - i - 2) in
            flush_text ();
            out := ctor body :: !out;
            go (close + 2)
        | _ ->
            Buffer.add_char buf line.[i];
            go (i + 1)
      in
      match two with
      | "**" -> marked (fun s -> Bold s) "**"
      | "//" -> marked (fun s -> Italic s) "//"
      | "{{" -> marked (fun s -> Code s) "}}"
      | _ ->
          Buffer.add_char buf line.[i];
          go (i + 1)
    end
    else begin
      Buffer.add_char buf line.[i];
      go (i + 1)
    end
  in
  go 0;
  flush_text ();
  List.rev !out

(* --- block parsing ------------------------------------------------- *)

let heading_of_line line =
  let n = String.length line in
  let rec plusses i = if i < n && line.[i] = '+' then plusses (i + 1) else i in
  let level = plusses 0 in
  if level > 0 && level < n && line.[level] = ' ' then
    Some (level, String.sub line (level + 1) (n - level - 1))
  else None

let is_bullet line =
  String.length line >= 2 && line.[0] = '*' && line.[1] = ' '

let bullet_text line = String.sub line 2 (String.length line - 2)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec blocks acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> blocks acc rest
    | "[[code]]" :: rest ->
        let rec collect body = function
          | "[[/code]]" :: rest -> Ok (List.rev body, rest)
          | line :: rest -> collect (line :: body) rest
          | [] -> Error "unterminated [[code]] block"
        in
        (match collect [] rest with
        | Error e -> Error e
        | Ok (body, rest) -> blocks (Code_block body :: acc) rest)
    | line :: rest when heading_of_line line <> None ->
        let level, htext = Option.get (heading_of_line line) in
        blocks (Heading (level, htext) :: acc) rest
    | line :: rest when is_bullet line ->
        let rec collect items = function
          | l :: rest when is_bullet l -> collect (bullet_text l :: items) rest
          | rest -> (List.rev items, rest)
        in
        let items, rest = collect [ bullet_text line ] rest in
        blocks (Bullets items :: acc) rest
    | line :: rest ->
        (* A paragraph: subsequent ordinary lines join with spaces. *)
        let stops l =
          l = "" || l = "[[code]]" || heading_of_line l <> None || is_bullet l
        in
        let rec collect para = function
          | l :: rest when not (stops l) -> collect (l :: para) rest
          | rest -> (List.rev para, rest)
        in
        let para, rest = collect [ line ] rest in
        blocks (Para (parse_inlines (String.concat " " para)) :: acc) rest
  in
  blocks [] lines

(* --- HTML export ------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let html_inline = function
  | Text s -> html_escape s
  | Bold s -> "<strong>" ^ html_escape s ^ "</strong>"
  | Italic s -> "<em>" ^ html_escape s ^ "</em>"
  | Code s -> "<code>" ^ html_escape s ^ "</code>"
  | Link { target; label } ->
      Printf.sprintf "<a href=\"%s\">%s</a>" (html_escape target)
        (html_escape label)

let html_block = function
  | Heading (level, text) ->
      let level = min 6 (max 1 level) in
      Printf.sprintf "<h%d>%s</h%d>" level (html_escape text) level
  | Para inlines ->
      "<p>" ^ String.concat "" (List.map html_inline inlines) ^ "</p>"
  | Bullets items ->
      "<ul>"
      ^ String.concat ""
          (List.map (fun i -> "<li>" ^ html_escape i ^ "</li>") items)
      ^ "</ul>"
  | Code_block lines ->
      "<pre><code>"
      ^ html_escape (String.concat "\n" lines)
      ^ "</code></pre>"

let to_html doc = String.concat "\n" (List.map html_block doc)

(* --- Sync: free text and the entry page ---------------------------- *)

(* --- text normalisation ------------------------------------------- *)

(* Split free text into paragraphs on blank lines; inside a paragraph,
   collapse whitespace runs to single spaces. *)
let paragraphs_of_text text =
  let lines = String.split_on_char '\n' text in
  let rec group current acc = function
    | [] ->
        let acc = if current = [] then acc else List.rev current :: acc in
        List.rev acc
    | l :: rest ->
        if String.trim l = "" then
          let acc = if current = [] then acc else List.rev current :: acc in
          group [] acc rest
        else group (l :: current) acc rest
  in
  let collapse para =
    String.concat " " para |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "")
    |> String.concat " "
  in
  group [] [] lines |> List.map collapse |> List.filter (fun p -> p <> "")

let normalise_text text = String.concat "\n\n" (paragraphs_of_text text)

(* --- Contributor and Version printers, as [render_entry] used them -- *)

let contributor_pp ppf (c : Contributor.t) =
  match c.affiliation with
  | None -> Fmt.string ppf c.person_name
  | Some a -> Fmt.pf ppf "%s (%s)" c.person_name a

let contributor_to_string c = Fmt.str "%a" contributor_pp c

let version_to_string v =
  Printf.sprintf "%d.%d" (Version.major v) (Version.minor v)

(* --- rendering ----------------------------------------------------- *)

let paras_of text =
  List.map (fun p -> Para (parse_inlines p)) (paragraphs_of_text text)

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
  List.concat
    [
      [ Heading (1, t.title) ];
      section "Version" [ Para [ Text (version_to_string t.version) ] ];
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
      bullet_section "Authors" (List.map contributor_to_string t.authors);
      bullet_section "Reviewers" (List.map contributor_to_string t.reviewers);
      bullet_section "Comments"
        (List.map
           (fun (c : Template.comment) ->
             c.comment_author ^ ": " ^ c.comment_text)
           t.comments);
      bullet_section "Artefacts" (List.map artefact_bullet t.artefacts);
    ]

let wiki_text t = render (render_entry t)

(* --- Integrity: the bytewise CRC32 and the copying entry hash ------- *)

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

let entry_hash registry id =
  match Registry.versions registry id with
  | Error _ -> 0 (* absent: the fold identity, so XOR-in/XOR-out balances *)
  | Ok versions ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf (Identifier.to_string id);
      Buffer.add_char buf '\x00';
      List.iter
        (fun v ->
          match Registry.find_version registry id v with
          | Error _ -> ()
          | Ok t ->
              Buffer.add_string buf (version_to_string v);
              Buffer.add_char buf '\x00';
              Buffer.add_string buf (wiki_text t);
              Buffer.add_char buf '\x00')
        versions;
      let h = crc32 (Buffer.contents buf) in
      (* 0 is the fold's identity ("entry absent"); nudge a real entry
         that happens to hash there so presence is always visible. *)
      if h = 0 then 1 else h

