(* In-memory spans for the traced replay.  Spans are recorded from the
   benchmark's own code, around calls into the program's public
   functions; nothing inside the program is instrumented.

   Each domain appends to its own buffer (batch lens requests run their
   documents on the service's worker domains), so recording takes no
   lock; the buffers are collected once the replay is over. *)

type span = {
  id : int;
  parent : int;  (** the enclosing root span's id; 0 for roots and shadows *)
  rid : int;  (** the request id of the op the span belongs to *)
  name : string;
  t0 : float;  (** seconds, monotonic clock *)
  t1 : float;
  bytes : int;  (** input bytes, where the layer has an input size *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let enabled = Atomic.make false
let next_id = Atomic.make 1

(* The root span in progress: (request id, span id).  The replay issues
   one request at a time, so one slot suffices. *)
let current = Atomic.make (0, 0)
let buffers = ref []
let buffers_lock = Mutex.create ()

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let record s =
  let b = Domain.DLS.get buffer in
  b := s :: !b

let timed ~id ~parent ~rid ~name ~bytes f =
  let t0 = now () in
  let finish () = record { id; parent; rid; name; t0; t1 = now (); bytes } in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* A root span around one request; nested spans recorded while [f] runs
   name it as their parent.  A no-op while tracing is off. *)
let root ~rid ~name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    Atomic.set current (rid, id);
    timed ~id ~parent:0 ~rid ~name ~bytes:0 f
  end

let nested ~name ~bytes f =
  if not (Atomic.get enabled) then f ()
  else
    let rid, parent = Atomic.get current in
    timed ~id:(Atomic.fetch_and_add next_id 1) ~parent ~rid ~name ~bytes f

(* A span for a layer the replay cannot wrap, timed on shadow state: it
   shares the op's request id but has no parent. *)
let shadow ~rid ~name ?(bytes = 0) f =
  timed ~id:(Atomic.fetch_and_add next_id 1) ~parent:0 ~rid ~name ~bytes f

(* Every span recorded so far, oldest first; the buffers are emptied. *)
let drain () =
  Mutex.protect buffers_lock (fun () ->
      let all = List.concat_map (fun b -> let l = !b in b := []; l) !buffers in
      List.sort (fun a b -> compare a.id b.id) all)

(* A lens whose string functions record nested spans, so lens work shows
   inside the request that caused it — including batch documents run on
   other domains. *)
let wrap_lens (l : Bx_strlens.Slens.t) =
  {
    l with
    get =
      (fun s -> nested ~name:"slens.get" ~bytes:(String.length s) (fun () -> l.get s));
    put =
      (fun v s ->
        nested ~name:"slens.put"
          ~bytes:(String.length v + String.length s)
          (fun () -> l.put v s));
    create =
      (fun v ->
        nested ~name:"slens.create" ~bytes:(String.length v) (fun () ->
            l.create v));
  }
