(* One mutex guards every field; see node.mli for why each transition
   is monotonic under it. *)

type t = {
  m : Mutex.t;
  persist : int -> (unit, string) result;
  created_at : float;
  mutable replica : bool; (* flips to false on promotion *)
  mutable epoch : int; (* the highest epoch observed (persisted when journaled) *)
  mutable fenced_by : int; (* the epoch that deposed this primary (0 = none) *)
  mutable last_stream_from : int;
      (* the highest [from] any follower has polled with — everything
         below it is known applied downstream *)
  mutable repl_synced : bool; (* caught up at least once *)
  mutable repl_behind : int; (* record lag at the last successful poll *)
  mutable repl_last_sync : float; (* when [repl_behind] last hit 0 *)
  mutable repl_allowance : float;
      (* the long-poll hold: an idle follower's [repl_last_sync] is
         legitimately this stale *)
}

let locked t f = Mutex.protect t.m (fun () -> f t)

let report = function
  | Ok () -> ()
  | Error e -> Printf.eprintf "bxwiki: epoch persist: %s\n%!" e

(* Epoch at boot: a primary starts at (at least) 1 and persists it, so
   any future promotion elsewhere necessarily fences it; a replica starts
   from whatever it last persisted (0 when it has never observed a
   primary). *)
let create ~dir ~replica ~wait ~now =
  let persisted, persist =
    match dir with
    | Some dir -> (Journal.read_epoch ~dir, Journal.write_epoch ~dir)
    | None -> (0, fun _ -> Ok ())
  in
  let epoch = if replica then persisted else max 1 persisted in
  if epoch > persisted then report (persist epoch);
  { m = Mutex.create (); persist; created_at = now; replica; epoch;
    fenced_by = 0; last_stream_from = 0; repl_synced = false;
    repl_behind = 0; repl_last_sync = 0.; repl_allowance = wait +. 1.0 }

let observe_epoch t e =
  locked t (fun t ->
      if e > t.epoch then begin
        t.epoch <- e;
        report (t.persist e)
      end)

let fence t e = locked t (fun t -> t.fenced_by <- max t.fenced_by e)

let note_poll t from =
  locked t (fun t -> t.last_stream_from <- max t.last_stream_from from)

let note_progress t ~now ~behind =
  locked t (fun t ->
      t.repl_behind <- behind;
      if behind = 0 then begin
        t.repl_synced <- true;
        t.repl_last_sync <- now
      end)

let set_allowance t ~wait = locked t (fun t -> t.repl_allowance <- wait +. 1.0)

(* Persist, then flip: a crash in between leaves a replica with an
   advanced epoch and nothing worse. *)
let promote t =
  locked t (fun t ->
      if not t.replica then Error "already primary"
      else if not (t.repl_synced || t.epoch > 0) then
        Error "replica has never synced with a primary"
      else
        try
          Bx_fault.Fault.point "repl.promote";
          let e = t.epoch + 1 in
          match t.persist e with
          | Error err -> Error ("epoch persist: " ^ err)
          | Ok () ->
              t.epoch <- e;
              t.fenced_by <- 0;
              t.replica <- false;
              Ok e
        with Bx_fault.Fault.Injected m -> Error m)

let is_replica t = locked t (fun t -> t.replica)
let epoch t = locked t (fun t -> t.epoch)
let fenced t = locked t (fun t -> t.fenced_by > 0)
let last_stream_from t = locked t (fun t -> t.last_stream_from)
let synced t = locked t (fun t -> t.repl_synced)
let behind t = locked t (fun t -> t.repl_behind)

(* Caller holds the mutex.  Lag grows from the moment the replica last
   knew it was current, whether records are queueing up or the primary
   has gone quiet; a replica that has never synced lags since birth. *)
let lag_locked ~now t =
  if not t.replica then 0.
  else if not t.repl_synced then now -. t.created_at
  else if t.repl_behind > 0 then now -. t.repl_last_sync
  else Float.max 0. (now -. t.repl_last_sync -. t.repl_allowance)

let lag t ~now = locked t (lag_locked ~now)

let write_barrier t =
  locked t (fun t ->
      if t.replica then Some "read-only replica: writes go to the primary\n"
      else if t.fenced_by > 0 then
        Some
          (Printf.sprintf "fenced: deposed by epoch %d, writes rejected\n"
             t.fenced_by)
      else None)

(* A replica is ready only once it has caught up and is staying caught
   up; a fenced (deposed) primary is never ready. *)
let readiness t ~now ~lag_threshold =
  locked t (fun t ->
      let synced = (not t.replica) || t.repl_synced in
      List.filter_map
        (fun (ok, reason) -> if ok then None else Some reason)
        [
          (synced, "replica_syncing");
          ( (not t.replica) || (not synced)
            || lag_locked ~now t <= lag_threshold,
            "replication_lag" );
          (t.fenced_by = 0, "fenced");
        ])
