let marker = "MANIFEST"

(* Durable and atomic: the contents go to a temp file, are flushed and
   fsync'd, and only then renamed over the target — a crash mid-save
   leaves the old file intact, never a truncated one.  Any failure names
   the path it happened on. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc contents;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  with
  | Sys_error e -> failwith (path ^ ": " ^ e)
  | Unix.Unix_error (e, _, _) -> failwith (path ^ ": " ^ Unix.error_message e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    failwith (dir ^ " exists and is not a directory")

(* [lstat], not [Sys.is_directory]: a symlink to a directory is removed
   as a link, never followed into. *)
let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let guard f =
  try f () with
  | Sys_error e | Failure e -> Error e
  | Unix.Unix_error (e, _, arg) -> Error (arg ^ ": " ^ Unix.error_message e)
  | Bx_fault.Fault.Injected m -> Error m

let sealed dir = Sys.file_exists (Filename.concat dir marker)

(* An unsealed [dir] beside a sealed [dir.old] is the residue of a swap
   that demoted the live copy and never promoted its successor: the
   demoted copy was the last one live, so it goes back. *)
let restore dir =
  let old_ = dir ^ ".old" in
  if (not (sealed dir)) && sealed old_ then begin
    remove_tree dir;
    Sys.rename old_ dir
  end

let swap ~into staged =
  let old_ = into ^ ".old" in
  (* Restore before demoting anything: after a failed swap the only
     sealed copy may sit in [.old], and deleting it here would leave a
     crash before the next rename with nothing sealed to boot from. *)
  restore into;
  remove_tree old_;
  if Sys.file_exists into then Sys.rename into old_;
  Bx_fault.Fault.point "fsio.swap.mid";
  Sys.rename staged into;
  remove_tree old_

let recover dir =
  restore dir;
  remove_tree (dir ^ ".tmp");
  remove_tree (dir ^ ".old")
