(** The repository entry template — section 3 of the paper, field for
    field.  Required fields must be present (even if brief); optional
    fields ("?" in the paper) may be empty.  {!validate} enforces the
    paper's structural rules; {!lint} reports softer style advice. *)

(** The class of an example (section 2): precise small examples, sketches
    of plausible-but-unworked bx, industrial-scale examples, and — per the
    discussion with the BenchmarX authors — benchmarks. *)
type example_class = Precise | Industrial | Sketch | Benchmark

val class_name : example_class -> string
(** Upper-case, as the paper writes them: ["PRECISE"], ... *)

val class_of_name : string -> example_class option

(** One of the "two or more classes of models" the bx relates. *)
type model_desc = {
  model_name : string;  (** e.g. ["M"]. *)
  model_description : string;
  meta_model : string option;  (** Optional formal expression. *)
}

(** The "Consistency Restoration" field, split into its two directions. *)
type restoration = {
  rest_forward : string;
  rest_backward : string;
}

(** A variation point (section 3, "Variants"): the base example is fixed
    and each reasonable alternative choice is recorded here. *)
type variant = {
  variant_name : string;
  variant_description : string;
}

(** A wiki member's comment on an entry. *)
type comment = {
  comment_author : string;
  comment_text : string;
}

type artefact_kind = Code | Diagram | Sample_data | Proof | Other of string

(** An auxiliary artefact: executable code, diagrams for papers, sample
    inputs and outputs, proof scripts ... *)
type artefact = {
  artefact_name : string;
  artefact_kind : artefact_kind;
  location : string;  (** A path or URL. *)
}

type t = {
  title : string;
  version : Version.t;
  classes : example_class list;
  overview : string;
  models : model_desc list;
  consistency : string;
  restoration : restoration;
  properties : Bx.Properties.claim list;  (* optional *)
  variants : variant list;  (* optional *)
  discussion : string;
  references : Reference.t list;  (* optional *)
  authors : Contributor.t list;
  reviewers : Contributor.t list;  (* optional: empty while provisional *)
  comments : comment list;
  artefacts : artefact list;  (* optional *)
}

val make :
  title:string -> ?version:Version.t -> classes:example_class list
  -> overview:string -> models:model_desc list -> consistency:string
  -> ?restoration:restoration -> ?properties:Bx.Properties.claim list
  -> ?variants:variant list -> ?discussion:string
  -> ?references:Reference.t list -> authors:Contributor.t list
  -> ?reviewers:Contributor.t list -> ?comments:comment list
  -> ?artefacts:artefact list -> unit -> t
(** Build a template; omitted optional fields default to empty, the
    version to {!Version.initial}. *)

val model_desc : ?meta_model:string -> name:string -> string -> model_desc
val variant : name:string -> string -> variant
val comment : author:string -> string -> comment
val artefact : name:string -> kind:artefact_kind -> string -> artefact

val validate : t -> (unit, string list) result
(** The paper's structural rules:
    - the title is nonempty;
    - at least one class is given, and PRECISE and SKETCH are mutually
      exclusive;
    - the overview, consistency and discussion fields are nonempty;
    - a PRECISE example describes at least two models and both restoration
      directions;
    - at least one author is listed;
    - the version is [0.x] if and only if no reviewers are listed;
    - what the page writes as one bullet item (a model's name and
      meta-model, a variant's name, a reference, a contributor, a
      comment, an artefact) holds no line break. *)

val lint : t -> string list
(** Style advice (never fatal): overview longer than the recommended two
    or three sentences; a PRECISE example without property claims; an
    INDUSTRIAL example without artefacts; empty variant descriptions. *)

val is_provisional : t -> bool
(** Shorthand for {!Version.is_provisional} on the entry's version. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** A plain-text rendering of all fields, for terminals. *)

val artefact_kind_name : artefact_kind -> string
val artefact_kind_of_name : string -> artefact_kind
