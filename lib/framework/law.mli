(** First-class bx laws.

    A law is a named, checkable predicate over some input type — typically a
    tuple of models drawn from the spaces a bx relates.  Laws are the bridge
    between the informal "Properties" field of a repository entry (Cheney et
    al., BX 2014, section 3) and machine verification: each property claim is
    backed by one or more laws, which test harnesses evaluate on enumerated
    or randomly generated inputs. *)

type verdict =
  | Holds  (** The law is satisfied on this input. *)
  | Violated of string  (** The law fails; the payload explains how. *)

type 'a t = {
  name : string;  (** Short identifier, e.g. ["correct-fwd"]. *)
  description : string;  (** One-sentence statement of the law. *)
  check : 'a -> verdict;  (** Evaluate the law on one input. *)
}

val make : name:string -> description:string -> ('a -> verdict) -> 'a t
(** [make ~name ~description check] packages a law. *)

val holds : verdict
(** The positive verdict. *)

val violated : ('a, Format.formatter, unit, verdict) format4 -> 'a
(** [violated fmt ...] builds a negative verdict with a formatted message. *)

val require : bool -> ('a, Format.formatter, unit, verdict) format4 -> 'a
(** [require cond fmt ...] is {!holds} when [cond] is true, otherwise a
    {!Violated} verdict carrying the formatted message. *)

val contramap : ('b -> 'a) -> 'a t -> 'b t
(** [contramap f law] checks [law] on [f b]; useful to adapt input shapes. *)

val conj : name:string -> description:string -> 'a t list -> 'a t
(** [conj ~name ~description laws] holds iff every law in [laws] holds; the
    verdict reports the first violation, prefixed with the violated law's
    name. *)

val check_all : 'a t -> 'a list -> (int * 'a * string) list
(** [check_all law inputs] evaluates [law] on every input and returns the
    indices, inputs and messages of the violations (empty = law held
    everywhere). *)

val pp_verdict : Format.formatter -> verdict -> unit
(** Render a verdict as ["holds"] or ["violated: <msg>"]. *)
