(** Failpoints: fault injection as a first-class, testable input.

    A failpoint is a named site in the code — [Fault.point
    "journal.append.pre_fsync"] — that normally does nothing.  When the
    subsystem is armed (via the [BXWIKI_FAILPOINTS] environment variable
    or programmatically, e.g. through the service's
    [PUT /debug/failpoints] admin route) a site can be told to:

    - [error] / [error(msg)] — raise {!Injected}, which the surrounding
      seam maps to its usual error path (a journal [Error], a 503, a
      dropped connection);
    - [delay(ms)] — sleep, to simulate a slow disk, a contended lock or
      a slow peer;
    - [crash] — die immediately via [Unix._exit 137], with no [at_exit]
      handlers and no buffer flushing: the closest in-process stand-in
      for [kill -9] or a power cut;
    - [errno(name)] — raise a genuine [Unix.Unix_error] ([enospc],
      [eio], [eacces], [emfile], [enxio]), so the seam's existing errno
      handling — not a fault-injection special case — classifies the
      failure (a full disk at the journal fsync, say);
    - [one_in(n,ACTION)] — perform ACTION on every [n]th evaluation
      (deterministic, counter-based: hits [n], [2n], ...);
    - [times(n,ACTION)] — perform ACTION on the first [n] evaluations
      only (so [times(1,error)] fails once and then heals — the shape
      retry logic is tested against);
    - [off] — explicitly disarm one site.

    The specification grammar is [site=ACTION[;site=ACTION...]].

    {b Zero cost when disabled.}  {!point} reads one atomic boolean and
    returns; no table lookup, no allocation, no lock.  The slow path —
    table lookup under a mutex — is only taken while at least one rule
    is configured.  [bench/main.exe --fault-guard] enforces this.

    Evaluation counters ([hits] = times the site was evaluated while
    armed, [fired] = times an action other than [off] actually ran) are
    kept per site and surfaced in [/metrics] as
    [bxwiki_fault_hits_total]/[bxwiki_fault_fired_total]. *)

exception Injected of string
(** Raised by {!point} when the site's action is [error].  Never escapes
    the subsystem's callers: every seam that plants a failpoint catches
    it and routes it into that seam's normal failure handling. *)

type action =
  | Off
  | Error of string  (** raise [Injected msg] *)
  | Delay of float  (** sleep this many seconds *)
  | Crash  (** [Unix._exit 137] — simulated [kill -9] *)
  | Errno of Unix.error
      (** raise [Unix.Unix_error (err, "failpoint", site)] *)
  | One_in of int * action  (** fire on every nth hit *)
  | Times of int * action  (** fire on the first n hits only *)

val point : string -> unit
(** Evaluate the failpoint [name].  A no-op unless armed; may raise
    {!Injected}, sleep, or kill the process, per the configured rule. *)

val enabled : unit -> bool
(** True while at least one rule is configured. *)

val env_configured : bool
(** True when [BXWIKI_FAILPOINTS] was present in the environment at
    startup (even empty) — the service uses this to decide whether the
    [/debug/failpoints] admin route exists. *)

val set : string -> action -> unit
(** Install (or with [Off], remove) the rule for one site. *)

val configure : string -> (unit, string) result
(** Replace the whole rule set from a [site=ACTION;...] spec.  The empty
    (or all-whitespace) spec clears every rule and disables the fast
    path.  On [Error] the previous rules are left untouched. *)

val clear : unit -> unit
(** Remove every rule; {!point} is back to its disabled fast path. *)

val describe : unit -> string
(** The current rules, one [site=ACTION] per line, sorted — the inverse
    of {!configure} (canonicalised). *)

val stats : unit -> (string * int * int) list
(** [(site, hits, fired)] for every site that has been configured since
    the last {!clear}, sorted by site name. *)
