(** Every durable file operation the storage layer performs: atomic
    whole-file writes, whole-file reads, directory creation and removal,
    and the swap that replaces a sealed snapshot directory.  No other
    module renames a file, so this is the one seam a crash-state
    recorder has to wrap.

    A directory is {e sealed} once its {!marker} file exists.  The
    marker is written last, so a crash while a directory is being
    filled leaves it unsealed, and recovery discards it. *)

val marker : string
(** ["MANIFEST"], the file whose presence seals a directory. *)

val write_file : string -> string -> unit
(** [write_file path contents] writes [path.tmp], fsyncs it and renames
    it over [path]: a crash leaves the old file or the new one, never a
    torn one.  Raises [Failure] naming [path] on any I/O error. *)

val read_file : string -> string
(** The whole file, read in binary mode.  Raises [Sys_error]. *)

val ensure_dir : string -> unit
(** Create the directory if it is missing.  Raises [Failure] when the
    path exists and is not a directory. *)

val remove_tree : string -> unit
(** Remove a file or directory tree; a missing path is not an error.
    Symlinks are removed, never followed. *)

val guard : (unit -> ('a, string) result) -> ('a, string) result
(** [guard f] runs [f], turning the exceptions these functions and the
    storage failpoints raise ([Sys_error], [Failure], [Unix.Unix_error],
    {!Bx_fault.Fault.Injected}) into [Error] text. *)

val sealed : string -> bool
(** Whether the directory contains its {!marker}. *)

val swap : into:string -> string -> unit
(** [swap ~into staged] makes the sealed directory [staged] live at
    [into].  The live copy is first renamed to [into.old], then [staged]
    is renamed to [into], then [into.old] is deleted.  If [into] is
    unsealed while [into.old] is sealed (a previous swap failed between
    its two renames), [into.old] is restored before anything is demoted.
    The failpoint [fsio.swap.mid] sits between the two renames. *)

val recover : string -> unit
(** Boot-time repair of [dir] after a crash: restore [dir.old] if [dir]
    is unsealed and [dir.old] is sealed, then delete [dir.tmp] and
    [dir.old]. *)
