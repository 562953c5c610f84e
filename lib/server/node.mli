(** The replication role of one node: primary or replica, the epoch it
    believes current, the epoch that fenced it, and how far its
    follower has got.

    One mutex guards all of it, and it changes only through the named
    transitions below.  [observe_epoch], [fence] and [note_poll] only
    ever raise their value, so no interleaving of concurrent callers
    can lower one.  [promote] persists [epoch + 1] before it flips the
    role, holding the mutex across the persist, so an epoch observed
    concurrently is either seen by the promotion or lands after it. *)

type t

val create : dir:string option -> replica:bool -> wait:float -> now:float -> t
(** The role at boot.  The epoch is the one persisted in [dir] (0 when
    none is, or [dir] is [None]); a primary starts at 1 or more and
    persists that.  [wait] is the follower's long-poll hold (see
    {!set_allowance}); [now] is when the replica's lag starts counting
    if it never syncs. *)

(** {1 Transitions} *)

val observe_epoch : t -> int -> unit
(** Raise the epoch to [e] and persist it, if [e] is higher; a persist
    failure is logged to stderr and the raised epoch stands in memory. *)

val fence : t -> int -> unit
(** A follower polled with epoch [e], higher than ours: this primary is
    deposed and refuses writes from now on.  Only raises the fencing
    epoch. *)

val note_poll : t -> int -> unit
(** A follower polled from sequence number [from]: everything below it
    is known applied downstream.  Only raises {!last_stream_from}. *)

val note_progress : t -> now:float -> behind:int -> unit
(** The follower's successful poll left it [behind] records behind the
    upstream; [behind = 0] marks it synced at [now]. *)

val set_allowance : t -> wait:float -> unit
(** The follower long-polls with hold [wait]: an idle but caught-up
    replica is legitimately [wait + 1] seconds stale. *)

val promote : t -> (int, string) result
(** Replica to primary: persist [epoch + 1], then clear the fence and
    flip the role.  Refused ([Error], state unchanged) on a primary
    (["already primary"]), on a replica that has never synced and has
    epoch 0, when the persist fails and at the [repl.promote]
    failpoint.  Returns the new epoch. *)

(** {1 Reads} *)

val is_replica : t -> bool
val epoch : t -> int
val fenced : t -> bool
val last_stream_from : t -> int
val synced : t -> bool
(** Whether the follower has ever fully caught up. *)

val behind : t -> int
(** Record lag reported by the last successful poll. *)

val lag : t -> now:float -> float
(** Seconds this replica may be stale at [now]: 0 while demonstrably
    caught up, allowing for the long-poll hold; 0 on a primary. *)

val write_barrier : t -> string option
(** Why this role refuses a write, as the 503 body: a replica, or a
    fenced primary.  [None] when it accepts writes. *)

val readiness : t -> now:float -> lag_threshold:float -> string list
(** The role's [/readyz] reasons, in this order: [replica_syncing] (a
    replica that has not caught up yet), [replication_lag] (a synced
    replica whose {!lag} exceeds [lag_threshold]) and [fenced]. *)
