(** The write-ahead journal: the durability half of the service.

    Layout under the journal directory [dir]:
    - [dir/journal.log] — the append-only edit log.  One record per
      accepted POST, written with a single [write] and [fsync]'d before
      the HTTP response is sent;
    - [dir/snapshot/] — a {!Bx_repo.Store} dump of the registry, plus a
      [MANIFEST] recording the sequence number of the last edit the
      snapshot includes;
    - [dir/snapshot.tmp], [dir/snapshot.old] — transient directories
      used to swap a new snapshot in atomically; leftovers from a crash
      are cleaned up (or recovered from) at open.

    Each record carries a monotonically increasing sequence number, so
    replay after a crash applies exactly the records the snapshot does
    not already contain — a crash {e between} writing a snapshot and
    truncating the log cannot double-apply an edit.

    {b Format v2}: the log opens with a magic+version segment
    header, then length-prefixed CRC32-framed records:
    {v bxjournal 2\n
u32be payload-len | u32be crc32(payload) | "<seq> <path-len>\n" path body v}
    The CRC covers the whole payload, so a bit flip anywhere in a record
    — not just a torn tail — is detected; the length prefix makes every
    record boundary explicit without trusting record contents.

    A log longer than the header that does not start with it is
    refused, not repaired: {!read} returns an [Error] naming the file
    and the expected header, and {!open_} leaves the file untouched.  A
    log no longer than the header holds no record and reads as empty
    (any bytes other than the header count as a torn tail).

    Recovery policy: parsing stops at the first malformed record.  A
    truncated tail (the partial record a [kill -9] mid-append leaves) is
    reported as [torn]; a complete-looking record whose checksum fails is
    additionally counted in [crc_errors].  Everything from the stop
    onward is untrusted — {!open_} truncates it away, and the service
    surfaces both counts as [bxwiki_journal_torn_tail_total] and
    [bxwiki_journal_crc_errors_total].

    Failpoints (see {!Bx_fault.Fault}): [journal.append.pre_write],
    [journal.append.pre_fsync], [journal.append.post_fsync],
    [journal.checkpoint.pre_save], [journal.checkpoint.pre_manifest],
    [journal.checkpoint.pre_swap], [journal.checkpoint.pre_truncate];
    [pre_manifest] fires in every {!seal}, installs included, and the
    swap carries {!Bx_repo.Fsio}'s [fsio.swap.mid].
    Injected errors surface as this module's [Error] results; [crash]
    actions die in place, which is exactly what the crash-recovery
    torture tests exploit. *)

type t

type record = { seq : int; path : string; body : string }

type replayed = {
  entries : record list;  (** intact records, oldest first *)
  valid_bytes : int;  (** file prefix the records occupy *)
  torn : bool;  (** parsing stopped before the end of the file *)
  crc_errors : int;
      (** complete-looking records rejected by checksum — corruption,
          as opposed to a benign crash tail *)
}

val log_file : string -> string
val snapshot_dir : string -> string

val crc32 : string -> int
(** The IEEE CRC32 used by the v2 framing; exposed for tests that
    fabricate or corrupt journals. *)

val magic : string
(** The v2 segment header ("bxjournal 2\n"). *)

val encode : seq:int -> path:string -> body:string -> string
(** One v2 record, framed and checksummed — exposed for tests. *)

val read : dir:string -> (replayed, string) result
(** Parse the log, tolerating a torn or corrupt tail.  A missing log,
    or one no longer than the header, reads as empty; a longer one
    without the header is an [Error]. *)

val tail : dir:string -> from:int -> (record list, string) result
(** The intact records with sequence number [>= from] — the replication
    stream's reader.  Safe to call while another thread appends: a
    record caught mid-write is simply not returned until the next
    call. *)

val decode_frames : string -> off:int -> (record list, string) result
(** Strictly decode concatenated v2 frames starting at [off] — for
    replication payloads, where a malformed or truncated frame means the
    transport mangled the batch and the whole read must be retried. *)

val snapshot_seq : dir:string -> int
(** The sequence number recorded in the snapshot's [MANIFEST]; 0 when
    there is no snapshot (replay then starts from the beginning) or the
    manifest fails its checksum — a snapshot whose cut point cannot be
    trusted is not used. *)

val read_manifest : dir:string -> [ `None | `Seq of int | `Corrupt ]
(** The MANIFEST's verdict, distinguishing "no snapshot" from "snapshot
    present but its manifest is damaged".  The sealed form is
    ["seq N crc XXXXXXXX\n"] (crc32 over ["seq N"]); the crc-less
    pre-digest form ["seq N\n"] is still accepted as [`Seq]. *)

val recover_snapshot : dir:string -> unit
(** Repair the snapshot directories after a crash ({!Bx_repo.Fsio.recover}
    on [dir/snapshot]).  Called by {!open_}. *)

val open_ : dir:string -> next_seq:int -> (t, string) result
(** Open (creating [dir] and the log as needed) for appending.  The torn
    or corrupt tail, if any, is truncated away; a log {!read} refuses is
    refused here too, untouched.  [next_seq] is the sequence number the next {!append} will use —
    the caller derives it from {!snapshot_seq} and the replayed
    records. *)

val append : t -> path:string -> body:string -> (int, string) result
(** Append one record and [fsync]; returns the record's sequence
    number.  On [Error] nothing may be assumed durable. *)

val is_disk_full_error : string -> bool
(** True when an append/checkpoint error string carries ENOSPC's
    strerror text.  ENOSPC is persistent — no retry succeeds until an
    operator frees space — so the service maps it to a sticky read-only
    degradation rather than flapping [journal_ok]. *)

val append_seq :
  t -> seq:int -> path:string -> body:string -> (int, string) result
(** Like {!append} with an explicit, caller-allocated sequence number.
    Sharded layouts draw sequence numbers from one global counter and fan
    records across per-shard segments, so a segment's sequence numbers
    are dense globally but sparse locally — [seq] may jump ahead of the
    segment's own counter, never behind it ([Error] otherwise). *)

val record_count : t -> int
(** Records currently in the log file (replayed + appended since open). *)

val next_seq : t -> int
(** The sequence number the next {!append} will use. *)

val reset : t -> next_seq:int -> (unit, string) result
(** Truncate the log back to a bare segment header and jump the sequence
    counter — used when a snapshot bootstrap supersedes every local
    record. *)

val snapshot_files : dir:string -> (int * (string * string) list, string) result
(** The snapshot as a shippable payload: its manifest sequence number
    and every flat [(name, contents)] file except the MANIFEST — the
    [DIGESTS] manifest rides along, and every file is verified against
    it first ([Error] rather than shipping corrupted bytes).
    [Error "no snapshot"] when none has been written.  Callers serialise
    against {!checkpoint}, which swaps the directory. *)

val seal : dir:string -> int -> unit
(** [seal ~dir seq] makes [dir] a sealed snapshot cut at [seq]: it writes
    the [DIGESTS] over the cold files, then the self-checksummed
    [MANIFEST] (["seq N crc XXXXXXXX\n"]).  Raises on I/O failure. *)

val check_payload : (string * string) list -> (unit, string) result
(** Check a received payload before any of it is written: every name
    is a flat basename other than [MANIFEST] and not a dotfile, and
    {!Integrity.Digests.verify_payload} passes, so a payload without a
    [DIGESTS] is refused. *)

val stage : dir:string -> seq:int -> (string * string) list -> unit
(** Write a checked payload's cold files into a fresh [dir] and {!seal}
    it at [seq].  Raises on I/O failure. *)

val install_snapshot :
  t -> seq:int -> files:(string * string) list -> (unit, string) result
(** Install a shipped snapshot: {!check_payload}, {!stage} it into a
    transient directory, swap it in atomically, and {!reset} the log to
    [seq + 1]. *)

val read_epoch : dir:string -> int
(** The persisted replication epoch; 0 when none has been recorded. *)

val write_epoch : dir:string -> int -> (unit, string) result
(** Persist the replication epoch ({!Bx_repo.Fsio.write_file}).  Promotion
    bumps and persists before accepting writes, so epochs are monotonic
    across crashes. *)

val checkpoint :
  ?seq:int -> t -> save:(dir:string -> (int, string) result)
  -> (int, string) result
(** Compaction: write a fresh snapshot and reset the log to a bare
    segment header.  [save] dumps the registry into the directory it is
    given (the caller holds whatever lock makes that consistent); the
    manifest seals it with the current sequence number (or [seq] when
    given — sharded layouts seal every segment's snapshot at the same
    global cut), the directories are swapped, and the log is truncated.
    Returns the number of files the snapshot wrote.  A crash at any point
    leaves a state {!open_} recovers from. *)

val close : t -> unit
