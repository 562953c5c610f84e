(* Journal-shipping replication: wire format, loopback HTTP client and
   the follower loop.  See the .mli for the protocol; the design intent
   is that a replica is always a crash-consistent prefix of its primary
   — the same property the journal gives a single node — because the
   stream reuses the journal's own CRC-framed record encoding and the
   follower fsyncs each batch into its own journal before acking by
   advancing its poll cursor. *)

type stream_reply =
  | Records of { epoch : int; next_seq : int; records : Journal.record list }
  | Bootstrap of { epoch : int; floor : int }

(* ------------------------------------------------------------------ *)
(* Wire format.  Every response body opens with a single header line
   whose first token names the shape; record payloads are v2 journal
   frames so the follower CRC-checks them independently. *)

let frames records =
  let b = Buffer.create 1024 in
  List.iter
    (fun { Journal.seq; path; body } ->
      Buffer.add_string b (Journal.encode ~seq ~path ~body))
    records;
  Buffer.contents b

let stream_body ~epoch ~next_seq ~records =
  Printf.sprintf "bxrepl 1 %d %d %d\n" epoch next_seq (List.length records)
  ^ frames records

let reset_body ~epoch ~floor = Printf.sprintf "bxreset 1 %d %d\n" epoch floor

let snapshot_body ~epoch ~seq ~files =
  Printf.sprintf "bxsnap 1 %d %d %d\n" epoch seq (List.length files)
  ^ frames
      (List.mapi
         (fun i (path, body) -> { Journal.seq = i + 1; path; body })
         files)

let ( let* ) = Result.bind

(* The header line's fields, and the offset of the frames after it. *)
let header_line data =
  match String.index_opt data '\n' with
  | None -> Error "missing header line"
  | Some nl -> Ok (String.split_on_char ' ' (String.sub data 0 nl), nl + 1)

let counted_frames data ~off count =
  let* records = Journal.decode_frames data ~off in
  if List.length records <> count then Error "frame count mismatch" else Ok records

let ints = List.map int_of_string_opt

let parse_stream_body data =
  let* header, off = header_line data in
  match header with
  | "bxrepl" :: "1" :: fields -> (
      match ints fields with
      | [ Some epoch; Some next_seq; Some count ] ->
          let* records = counted_frames data ~off count in
          Ok (Records { epoch; next_seq; records })
      | _ -> Error "malformed bxrepl header")
  | "bxreset" :: "1" :: fields -> (
      match ints fields with
      | [ Some epoch; Some floor ] -> Ok (Bootstrap { epoch; floor })
      | _ -> Error "malformed bxreset header")
  | _ -> Error "unrecognised stream header"

let parse_snapshot_body data =
  let* header, off = header_line data in
  match header with
  | "bxsnap" :: "1" :: fields -> (
      match ints fields with
      | [ Some epoch; Some seq; Some count ] ->
          let* records = counted_frames data ~off count in
          Ok (epoch, seq, List.map (fun r -> (r.Journal.path, r.Journal.body)) records)
      | _ -> Error "malformed bxsnap header")
  | _ -> Error "unrecognised snapshot header"

(* ------------------------------------------------------------------ *)
(* A lean loopback HTTP client.  One request per connection: the poll
   cadence is seconds, so keep-alive buys nothing and [Connection:
   close] keeps the state machine trivial. *)

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let exchange ~host ~port ?(timeout = 15.0) ?(headers = []) ~meth ~path ~body
    () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float sock Unix.SO_SNDTIMEO timeout;
      let addr =
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> Unix.inet_addr_loopback
      in
      Unix.connect sock (Unix.ADDR_INET (addr, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n%s"
          meth path (String.length body)
          (String.concat "" (List.map (fun (n, v) -> n ^ ": " ^ v ^ "\r\n") headers))
          body
      in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring sock req off (String.length req - off))
      in
      send 0;
      let ic = Unix.in_channel_of_descr sock in
      let status_line = input_line ic in
      let status =
        match String.split_on_char ' ' status_line with
        | _ :: code :: _ -> int_of_string_opt code
        | _ -> None
      in
      match status with
      | None -> Error "malformed status line"
      | Some status ->
          let rec read_headers acc =
            match String.trim (input_line ic) with
            | "" -> acc
            | line -> (
                match String.index_opt line ':' with
                | Some i ->
                    let name = String.lowercase_ascii (String.sub line 0 i) in
                    let value =
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    in
                    read_headers ((name, value) :: acc)
                | None -> read_headers acc)
            | exception End_of_file -> acc
          in
          let headers = List.rev (read_headers []) in
          let body =
            match
              Option.bind (List.assoc_opt "content-length" headers)
                int_of_string_opt
            with
            | Some n -> really_input_string ic n
            | None ->
                let b = Buffer.create 1024 in
                (try
                   while true do
                     Buffer.add_channel b ic 1
                   done
                 with End_of_file -> ());
                Buffer.contents b
          in
          Ok { status; headers; body })

let request ~host ~port ?timeout ~meth ~path ~body () =
  match exchange ~host ~port ?timeout ~meth ~path ~body () with
  | Ok r -> Ok (r.status, r.body)
  | Error _ as e -> e
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception End_of_file -> Error "connection closed mid-response"
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* The follower *)

type apply_error = [ `Gap of int * int | `Fail of string ]

type sink = {
  next_seq : unit -> int;
  epoch : unit -> int;
  observe_epoch : int -> unit;
  apply : Journal.record list -> (unit, apply_error) result;
  install_snapshot :
    seq:int -> files:(string * string) list -> (unit, string) result;
  digests : unit -> (int * int) list;
  install_shard :
    shard:int -> seq:int -> files:(string * string) list
    -> (unit, string) result;
  note_progress : behind:int -> unit;
  note_reconnect : unit -> unit;
  note_epoch_reject : unit -> unit;
  note_snapshot_bootstrap : unit -> unit;
  note_gap : expected:int -> got:int -> unit;
  note_digest : matched:bool -> unit;
  should_stop : unit -> bool;
}

let bootstrap ~host ~port sink =
  let* status, body =
    request ~host ~port ~meth:"GET" ~path:"/replication/snapshot" ~body:"" ()
  in
  if status <> 200 then Error (Printf.sprintf "snapshot fetch: HTTP %d" status)
  else
    let* epoch, seq, files = parse_snapshot_body body in
    if epoch < sink.epoch () then begin
      sink.note_epoch_reject ();
      Error "snapshot from a stale epoch"
    end
    else begin
      if epoch > sink.epoch () then sink.observe_epoch epoch;
      let* () = sink.install_snapshot ~seq ~files in
      sink.note_snapshot_bootstrap ();
      Ok ()
    end

(* Anti-entropy: once caught up, compare per-shard content digests with
   the upstream and re-bootstrap only the diverged shards.  O(shards) on
   the happy path — one tiny GET against values each write keeps — so it
   can run on every caught-up poll.  The first request after a boot or
   an install folds each shard it finds unfolded, on either side, once:
   every stored version of that shard is hashed under its write lock
   (bench P11 reports that first request).  An upstream without
   the endpoint (pre-digest primary) or a transport hiccup skips the
   check; the next poll retries. *)
let verify_digests ~host ~port sink =
  match
    request ~host ~port ~meth:"GET" ~path:"/replication/digest" ~body:"" ()
  with
  | Error _ | Ok (404, _) -> Ok ()
  | Ok (status, _) when status <> 200 -> Ok ()
  | Ok (_, body) -> (
      match Integrity.parse_digests body with
      | Error e -> Error ("digest: " ^ e)
      | Ok (_epoch, upstream) ->
          let local = sink.digests () in
          if List.length upstream <> List.length local then begin
            (* Shard-count disagreement: targeted repair has no unit to
               target; fall back to a full bootstrap. *)
            sink.note_digest ~matched:false;
            bootstrap ~host ~port sink
          end
          else
            let diverged =
              List.filter_map
                (fun (k, d) ->
                  match List.assoc_opt k local with
                  | Some d' when d' = d -> None
                  | _ -> Some k)
                upstream
            in
            sink.note_digest ~matched:(diverged = []);
            List.fold_left
              (fun acc k ->
                let* () = acc in
                let* status, body =
                  request ~host ~port ~meth:"GET"
                    ~path:(Printf.sprintf "/replication/snapshot?shard=%d" k)
                    ~body:"" ()
                in
                if status <> 200 then
                  Error (Printf.sprintf "shard %d snapshot: HTTP %d" k status)
                else
                  let* epoch, seq, files = parse_snapshot_body body in
                  if epoch < sink.epoch () then begin
                    sink.note_epoch_reject ();
                    Error "shard snapshot from a stale epoch"
                  end
                  else begin
                    if epoch > sink.epoch () then sink.observe_epoch epoch;
                    sink.install_shard ~shard:k ~seq ~files
                  end)
              (Ok ()) diverged)

let poll_once ~host ~port ?(wait = 5.0) sink =
  let from = sink.next_seq () in
  let my_epoch = sink.epoch () in
  let path =
    Printf.sprintf "/replication/stream?from=%d&epoch=%d&wait=%g" from my_epoch
      wait
  in
  let* status, body =
    request ~host ~port ~timeout:(wait +. 10.0) ~meth:"GET" ~path ~body:"" ()
  in
  match status with
  | 200 -> (
      let* () =
        (* The seam between receiving a response and trusting its
           frames: the torture tests crash a follower here with a batch
           in flight. *)
        try
          Bx_fault.Fault.point "repl.frame.read";
          Ok ()
        with Bx_fault.Fault.Injected m -> Error m
      in
      let* reply = parse_stream_body body in
      match reply with
      | Records { epoch; next_seq; records } ->
          if epoch < my_epoch then begin
            sink.note_epoch_reject ();
            Error
              (Printf.sprintf "stream epoch %d below ours %d" epoch my_epoch)
          end
          else begin
            if epoch > my_epoch then sink.observe_epoch epoch;
            let* () =
              match records with
              | [] -> Ok ()
              | rs -> (
                  match sink.apply rs with
                  | Ok () -> Ok ()
                  | Error (`Fail m) -> Error m
                  | Error (`Gap (expected, got)) ->
                      (* The stream and our cursor disagree — count it,
                         then recover by snapshot bootstrap instead of
                         erroring forever against the same gap. *)
                      sink.note_gap ~expected ~got;
                      bootstrap ~host ~port sink)
            in
            let behind = max 0 (next_seq - sink.next_seq ()) in
            let* () =
              if behind = 0 then verify_digests ~host ~port sink else Ok ()
            in
            sink.note_progress ~behind;
            Ok behind
          end
      | Bootstrap { epoch; floor = _ } ->
          if epoch < my_epoch then begin
            sink.note_epoch_reject ();
            Error
              (Printf.sprintf "stream epoch %d below ours %d" epoch my_epoch)
          end
          else begin
            if epoch > my_epoch then sink.observe_epoch epoch;
            let* () = bootstrap ~host ~port sink in
            (* Lag unknown until the next poll; report the bootstrap as
               progress so readiness can see life. *)
            sink.note_progress ~behind:0;
            Ok 0
          end)
  | 409 ->
      (* We polled with a higher epoch than the serving node holds: the
         upstream is a deposed primary.  Nothing to apply from it. *)
      sink.note_epoch_reject ();
      Error "upstream deposed (stale epoch)"
  | st -> Error (Printf.sprintf "stream: HTTP %d" st)

(* Sleep in slices so promotion or shutdown interrupts a backoff
   promptly. *)
let interruptible_sleep sink seconds =
  let slice = 0.05 in
  let rec go left =
    if left > 0. && not (sink.should_stop ()) then begin
      Thread.delay (Float.min slice left);
      go (left -. slice)
    end
  in
  go seconds

let follow ~host ~port ?(wait = 5.0) ?(min_sleep = 0.05) ?(max_sleep = 2.0)
    sink =
  let rng = Random.State.make_self_init () in
  let next_sleep prev =
    let upper = Float.max min_sleep ((prev *. 3.) -. min_sleep) in
    Float.min max_sleep (min_sleep +. Random.State.float rng upper)
  in
  let rec loop prev_sleep =
    if not (sink.should_stop ()) then
      match poll_once ~host ~port ~wait sink with
      | Ok _ -> loop min_sleep
      | Error _ ->
          sink.note_reconnect ();
          let s = next_sleep prev_sleep in
          interruptible_sleep sink s;
          loop s
  in
  loop min_sleep
