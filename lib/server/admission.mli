(** Admission control between the accept loop and the workers.

    A connection is admitted to the {e front} lane, bounded by an AIMD
    limit: each overflow halves the limit (at most once per 100 ms),
    each promptly served item adds one back, and the limit stays within
    [[floor, capacity]], where the floor is [max 1 (min 8 (capacity / 2))].
    Under sustained overload the backlog a client waits behind shrinks,
    keeping queueing delay, and with it the deadline-miss rate, bounded.
    What the front lane refuses falls to the {e stale} lane
    (4 × capacity) when there is one, and is shed otherwise:

    {v front ──overflow──▶ stale ──full──▶ shed v}

    The module keeps no deadline: {!Service} queues each socket with
    its request deadline and checks it when a worker takes the socket.
    The module is polymorphic in the item and does no I/O: {!Service}
    queues sockets, tests queue plain values. *)

type 'a lane
(** A bounded, closable FIFO.  Thread-safe. *)

val take : 'a lane -> 'a option
(** The oldest item, waiting while the lane is empty and open; [None]
    once the lane is closed and empty. *)

val close : 'a lane -> unit
(** Refuse further items and wake every waiter; items already queued
    still come out of {!take}. *)

val length : 'a lane -> int
(** Items queued on the lane. *)

type 'a t

val create : capacity:int -> budget:float -> stale:bool -> 'a t
(** [capacity] is the ceiling of the limit, which starts there;
    [budget] is the service time, in seconds, within which a front-lane
    item counts as prompt (see {!served}); [stale] adds the stale lane.
    Both lanes start open. *)

val front : 'a t -> 'a lane
val stale : 'a t -> 'a lane option

val admit : 'a t -> 'a -> [ `Front | `Stale | `Shed ]
(** Queue the item on the first lane of the ladder with room.  On
    [`Shed] the item was not queued: the caller refuses it. *)

val served : 'a t -> began:float -> unit
(** An item taken from the front lane finished; [began] is when its
    service started.  Within the budget, the limit grows by one. *)

val limit : 'a t -> int
(** The AIMD limit right now. *)

val depth : 'a t -> int
(** Items queued on the front lane. *)

val high_water : 'a t -> int
(** Three quarters of the front lane's operative bound
    ([min capacity limit]), at least 1: the depth at which the node
    stops reporting ready. *)

val retry_after : 'a t -> int
(** Seconds a refused client should stay away: 1 below the high-water
    mark, then 2..8 as the depth climbs from it to the operative bound,
    so a storm of refusals spreads its retries instead of reconverging
    after exactly one second: the server-side half of the decorrelation
    the client's jittered backoff provides. *)
