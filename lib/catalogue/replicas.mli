(** MASTER-REPLICAS — a three-model bx (the template's "two or more
    classes of models" taken literally): a master key-value store and two
    filtered replicas, each holding the entries under its own topic
    prefix.  Built as a span of two filter-style lenses over the master,
    via {!Bx.Multi.of_two_lenses}. *)

type store = (string * string) list
(** Key-value pairs; keys unique, order significant. *)

val news_lens : (store, store) Bx.Lens.t
(** The master restricted to [news/] keys. *)

val mail_lens : (store, store) Bx.Lens.t

val bx : (store, store, store) Bx.Multi.t
(** Consistency: each replica equals the master's restriction to its
    prefix.  Restoring from the master regenerates both replicas;
    restoring from a replica merges it into the master (preserving
    foreign-prefix entries in place) and regenerates the other replica. *)

val master_space : store Bx.Model.t
val replica_space : string -> store Bx.Model.t

val template : Bx_repo.Template.t
