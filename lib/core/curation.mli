(** The three-level curatorial structure of section 5.1:

    - anyone with a wiki {e account} can comment on an example;
    - named {e reviewers} — recognised community members — endorse an
      example as being of usable quality;
    - a small group of {e curators} has overall editorial control.

    This module is the pure permission model; {!Registry} enforces it. *)

type role = Member | Reviewer | Curator

type account = {
  account_name : string;
  role : role;
}

val account : ?role:role -> string -> account
(** Default role: {!Member}. *)

val role_name : role -> string
val role_of_name : string -> role option

val can_comment : account -> bool
(** Every account holder may comment (the barrier to entry is the account
    itself, per section 5.1). *)

val can_review : account -> bool
(** Reviewers and curators. *)

val can_approve : account -> bool
(** Curators only. *)

val can_edit : author_names:string list -> account -> bool
(** Editing an entry is not uncontrolled: curators may edit anything; other
    accounts only entries they co-authored (matched by name). *)
