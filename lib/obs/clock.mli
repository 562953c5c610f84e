(** The process's one clock, for every interval, deadline and budget.

    Readings come from the monotonic clock ([CLOCK_MONOTONIC]), so an
    NTP step or a manual [date] change never stretches, shrinks or
    reverses a measured interval.  {!now} puts those readings on the
    Unix-epoch scale by adding an offset taken once, when the program
    starts: it agrees with the wall clock at startup and from then on
    only ever moves forward at the monotonic rate.  Nothing read from
    this clock is meant to be persisted or compared across processes. *)

val now_ns : unit -> int
(** Monotonic nanoseconds from an arbitrary origin.  Allocation-free;
    use differences only. *)

val now : unit -> float
(** Seconds on the Unix-epoch scale, advancing monotonically: the base
    for absolute deadlines and queue stamps within this process. *)
