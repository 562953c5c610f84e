type example_class = Precise | Industrial | Sketch | Benchmark

let class_name = function
  | Precise -> "PRECISE"
  | Industrial -> "INDUSTRIAL"
  | Sketch -> "SKETCH"
  | Benchmark -> "BENCHMARK"

let class_of_name s =
  match String.uppercase_ascii (String.trim s) with
  | "PRECISE" -> Some Precise
  | "INDUSTRIAL" -> Some Industrial
  | "SKETCH" -> Some Sketch
  | "BENCHMARK" -> Some Benchmark
  | _ -> None

type model_desc = {
  model_name : string;
  model_description : string;
  meta_model : string option;
}

type restoration = { rest_forward : string; rest_backward : string }
type variant = { variant_name : string; variant_description : string }
type comment = { comment_author : string; comment_text : string }
type artefact_kind = Code | Diagram | Sample_data | Proof | Other of string

type artefact = {
  artefact_name : string;
  artefact_kind : artefact_kind;
  location : string;
}

type t = {
  title : string;
  version : Version.t;
  classes : example_class list;
  overview : string;
  models : model_desc list;
  consistency : string;
  restoration : restoration;
  properties : Bx.Properties.claim list;
  variants : variant list;
  discussion : string;
  references : Reference.t list;
  authors : Contributor.t list;
  reviewers : Contributor.t list;
  comments : comment list;
  artefacts : artefact list;
}

let make ~title ?(version = Version.initial) ~classes ~overview ~models
    ~consistency ?(restoration = { rest_forward = ""; rest_backward = "" })
    ?(properties = []) ?(variants = []) ?(discussion = "") ?(references = [])
    ~authors ?(reviewers = []) ?(comments = []) ?(artefacts = []) () =
  {
    title;
    version;
    classes;
    overview;
    models;
    consistency;
    restoration;
    properties;
    variants;
    discussion;
    references;
    authors;
    reviewers;
    comments;
    artefacts;
  }

let model_desc ?meta_model ~name model_description =
  { model_name = name; model_description; meta_model }

let variant ~name variant_description =
  { variant_name = name; variant_description }

let comment ~author comment_text = { comment_author = author; comment_text }

let artefact ~name ~kind location =
  { artefact_name = name; artefact_kind = kind; location }

let is_provisional t = Version.is_provisional t.version

let artefact_kind_name = function
  | Code -> "code"
  | Diagram -> "diagram"
  | Sample_data -> "sample-data"
  | Proof -> "proof"
  | Other s -> s

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  if String.trim t.title = "" then err "title must be nonempty";
  if t.classes = [] then err "at least one class (type) is required";
  if List.mem Precise t.classes && List.mem Sketch t.classes then
    err "PRECISE and SKETCH are mutually exclusive";
  if String.trim t.overview = "" then err "overview must be present";
  if String.trim t.consistency = "" then
    err "the consistency relation must be described";
  if String.trim t.discussion = "" then err "discussion must be present";
  if List.mem Precise t.classes then begin
    if List.length t.models < 2 then
      err "a PRECISE example must describe at least two models";
    if String.trim t.restoration.rest_forward = "" then
      err "a PRECISE example must describe forward restoration";
    if String.trim t.restoration.rest_backward = "" then
      err "a PRECISE example must describe backward restoration"
  end;
  if t.models = [] then err "at least one model must be described";
  if t.authors = [] then err "at least one contributing author is required";
  if Version.is_provisional t.version && t.reviewers <> [] then
    err "a version 0.x entry cannot list reviewers";
  if (not (Version.is_provisional t.version)) && t.reviewers = [] then
    err "a reviewed (version >= 1.0) entry must list its reviewers";
  (* The page writes each of these as one bullet item: a line break would
     end the item early, and the rest would not come back. *)
  let one_line what f =
    List.iter (fun x ->
        if String.contains (f x) '\n' then err "%s %S must be one line" what (f x))
  in
  one_line "a model" (fun m -> m.model_name ^ Option.value ~default:"" m.meta_model)
    t.models;
  one_line "a variant name" (fun v -> v.variant_name) t.variants;
  one_line "a reference" Reference.to_line t.references;
  one_line "a contributor" Contributor.to_string (t.authors @ t.reviewers);
  one_line "a comment" (fun c -> c.comment_author ^ ": " ^ c.comment_text)
    t.comments;
  one_line "an artefact"
    (fun a ->
      Printf.sprintf "%s [%s]: %s" a.artefact_name
        (artefact_kind_name a.artefact_kind) a.location)
    t.artefacts;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let count_sentences s =
  String.fold_left
    (fun n c -> if c = '.' || c = '!' || c = '?' then n + 1 else n)
    0 s

let lint t =
  let advice = ref [] in
  let warn fmt = Format.kasprintf (fun m -> advice := m :: !advice) fmt in
  if count_sentences t.overview > 3 then
    warn
      "overview has more than three sentences; the template recommends a \
       thumbnail of two or three";
  if List.mem Precise t.classes && t.properties = [] then
    warn "a PRECISE example usually states its expected properties";
  if List.mem Industrial t.classes && t.artefacts = [] then
    warn
      "an INDUSTRIAL example cannot be explained separately from its \
       artefacts; attach some";
  List.iter
    (fun v ->
      if String.trim v.variant_description = "" then
        warn "variant %S has an empty description" v.variant_name)
    t.variants;
  List.rev !advice

let equal a b = a = b

let pp_text_field ppf (name, text) =
  if String.trim text <> "" then Fmt.pf ppf "@,@[<v 2>%s:@,%a@]" name Fmt.text text

let pp ppf t =
  Fmt.pf ppf "@[<v>%s (version %a)" t.title Version.pp t.version;
  Fmt.pf ppf "@,Type: %s"
    (String.concat ", " (List.map class_name t.classes));
  pp_text_field ppf ("Overview", t.overview);
  Fmt.pf ppf "@,@[<v 2>Models:%a@]"
    (Fmt.list ~sep:Fmt.nop (fun ppf m ->
         Fmt.pf ppf "@,%s: %a" m.model_name Fmt.text m.model_description))
    t.models;
  pp_text_field ppf ("Consistency", t.consistency);
  pp_text_field ppf ("Forward restoration", t.restoration.rest_forward);
  pp_text_field ppf ("Backward restoration", t.restoration.rest_backward);
  if t.properties <> [] then
    Fmt.pf ppf "@,Properties: %s"
      (String.concat ", "
         (List.map Bx.Properties.claim_name t.properties));
  if t.variants <> [] then
    Fmt.pf ppf "@,@[<v 2>Variants:%a@]"
      (Fmt.list ~sep:Fmt.nop (fun ppf v ->
           Fmt.pf ppf "@,%s: %a" v.variant_name Fmt.text v.variant_description))
      t.variants;
  pp_text_field ppf ("Discussion", t.discussion);
  if t.references <> [] then
    Fmt.pf ppf "@,@[<v 2>References:%a@]"
      (Fmt.list ~sep:Fmt.nop (fun ppf r -> Fmt.pf ppf "@,%a" Reference.pp r))
      t.references;
  Fmt.pf ppf "@,Authors: %s"
    (String.concat ", " (List.map Contributor.to_string t.authors));
  if t.reviewers <> [] then
    Fmt.pf ppf "@,Reviewers: %s"
      (String.concat ", " (List.map Contributor.to_string t.reviewers));
  if t.comments <> [] then
    Fmt.pf ppf "@,@[<v 2>Comments:%a@]"
      (Fmt.list ~sep:Fmt.nop (fun ppf c ->
           Fmt.pf ppf "@,%s: %a" c.comment_author Fmt.text c.comment_text))
      t.comments;
  if t.artefacts <> [] then
    Fmt.pf ppf "@,@[<v 2>Artefacts:%a@]"
      (Fmt.list ~sep:Fmt.nop (fun ppf a ->
           Fmt.pf ppf "@,%s: %s" a.artefact_name a.location))
      t.artefacts;
  Fmt.pf ppf "@]"

let artefact_kind_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "code" -> Code
  | "diagram" -> Diagram
  | "sample-data" -> Sample_data
  | "proof" -> Proof
  | other -> Other other
