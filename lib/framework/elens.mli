(** Symmetric edit lenses (after Hofmann, Pierce, Wagner, POPL 2011).

    Section 3 of the paper notes that restoration functions "might require
    as input extra information, e.g. concerning the edit that has been
    done".  Edit lenses make that precise: instead of whole states, an edit
    lens propagates {e edits} — elements of a monoid acting partially on
    models — and threads a {e complement} that records the private data of
    each side. *)

(** An edit module: a monoid of edits acting partially on a set of models. *)
type ('e, 'm) edit_module = {
  module_name : string;
  apply : 'e -> 'm -> 'm option;
      (** Partial monoid action; [None] when the edit does not apply. *)
  compose : 'e -> 'e -> 'e;  (** [compose e1 e2] performs [e1] then [e2]. *)
  identity : 'e;  (** The neutral edit. *)
}

(** A symmetric edit lens between edit modules over ['m] and ['n], with
    complement type ['c]. *)
type ('c, 'ea, 'eb) t = {
  name : string;
  init : 'c;  (** Complement for the canonical initial pair of models. *)
  fwd : 'ea -> 'c -> 'eb * 'c;
      (** Translate a left edit into a right edit, updating the complement. *)
  bwd : 'eb -> 'c -> 'ea * 'c;
      (** Translate a right edit into a left edit, updating the complement. *)
}

val make :
  name:string -> init:'c -> fwd:('ea -> 'c -> 'eb * 'c)
  -> bwd:('eb -> 'c -> 'ea * 'c) -> ('c, 'ea, 'eb) t
(** Package an edit lens. *)

(** {1 A stock edit module: list edits} *)

(** Primitive edits on lists. *)
type 'a list_op =
  | Insert_at of int * 'a  (** Insert before position [i] (0-based). *)
  | Delete_at of int  (** Delete the element at position [i]. *)
  | Update_at of int * 'a  (** Replace the element at position [i]. *)

type 'a list_edit = 'a list_op list
(** A composite edit: primitive operations applied left to right. *)

val apply_list_op : 'a list_op -> 'a list -> 'a list option
(** Apply one primitive operation; [None] when out of range. *)

val list_edit_module : unit -> ('a list_edit, 'a list) edit_module
(** The edit module of composite list edits under concatenation. *)

val list_map_iso : ('a, 'b) Iso.t -> (unit, 'a list_edit, 'b list_edit) t
(** The edit lens that maps list edits elementwise through an isomorphism.
    Stateless (unit complement). *)

val compose : ('c1, 'ea, 'eb) t -> ('c2, 'eb, 'ec) t -> ('c1 * 'c2, 'ea, 'ec) t
(** Sequential composition of edit lenses: edits flow through the middle
    edit language, complements pair up — the construction that works for
    edit lenses where state-based symmetric composition fails (see the
    glossary's "composition problem"). *)

(** {1 Laws} *)

val stable_law : eq_ea:('ea -> 'ea -> bool) -> eq_eb:('eb -> 'eb -> bool)
  -> ('c, 'ea, 'eb) t -> ea_id:'ea -> eb_id:'eb -> 'c Law.t
(** Stability: translating an identity edit yields an identity edit and
    leaves the complement unchanged (checked up to the supplied edit
    equalities; complement equality uses polymorphic [=]). *)

val round_trip_law :
  ma:('ea, 'm) edit_module -> mb:('eb, 'n) edit_module
  -> consistent:('m -> 'n -> bool) -> ('c, 'ea, 'eb) t
  -> ('m * 'n * 'c * 'ea) Law.t
(** Consistency propagation: if [m] and [n] are consistent and [ea] applies
    to [m], then the translated edit applies to [n] and the results are
    consistent again.  Inputs where the hypotheses fail are vacuously
    accepted. *)
