type entry = { generation : int; scope : int; response : Bx_repo.Webui.response }

type shard = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
}

type t = {
  shards : shard array;
  capacity : int; (* per shard *)
  metrics : Metrics.t;
  acquisitions : int Atomic.t;
  contended : int Atomic.t;
}

let create ?(capacity = 256) ?(shards = 1) metrics =
  let shards = max 1 shards in
  {
    shards =
      Array.init shards (fun _ ->
          { mutex = Mutex.create (); table = Hashtbl.create 64 });
    capacity = max 16 (capacity / shards);
    metrics;
    acquisitions = Atomic.make 0;
    contended = Atomic.make 0;
  }

let shard_count t = Array.length t.shards

(* A page lives in the shard its key hashes to, whichever domain asks:
   each page is rendered and held once, and lookups of different pages
   spread over the shard mutexes. *)
let shard_of t path =
  t.shards.(Hashtbl.hash path mod Array.length t.shards)

let locked t shard f =
  Atomic.incr t.acquisitions;
  if not (Mutex.try_lock shard.mutex) then begin
    Atomic.incr t.contended;
    Mutex.lock shard.mutex
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock shard.mutex) f

let find t ~path ~generation =
  let shard = shard_of t path in
  let found =
    locked t shard (fun () ->
        match Hashtbl.find_opt shard.table path with
        | Some e when e.generation = generation -> Some e.response
        | _ -> None)
  in
  (match found with
  | Some _ -> Metrics.cache_hit t.metrics
  | None -> Metrics.cache_miss t.metrics);
  found

(* The brownout lane: any cached render for [path], however old, beats a
   503 when the fresh path is unaffordable.  The caller reports the
   generation lag to the client (X-Bxwiki-Stale), so correctness-by-
   freshness is traded away *visibly*. *)
let find_stale t ~path =
  let shard = shard_of t path in
  locked t shard (fun () ->
      Option.map
        (fun e -> (e.generation, e.response))
        (Hashtbl.find_opt shard.table path))

let store ?current ?(scope = 0) t ~path ~generation response =
  (* Under per-shard generations different pages are valid at different
     generations; [current] tells the eviction sweep what "fresh" means
     for each entry's scope, so a write to one registry shard does not
     evict every other shard's still-valid pages. *)
  let current =
    match current with Some f -> f | None -> fun _ -> generation
  in
  let shard = shard_of t path in
  locked t shard (fun () ->
      if
        Hashtbl.length shard.table >= t.capacity
        && not (Hashtbl.mem shard.table path)
      then begin
        let stale =
          Hashtbl.fold
            (fun p e acc ->
              if e.generation <> current e.scope then p :: acc else acc)
            shard.table []
        in
        (* Nothing stale: make room by dropping one page, whichever the
           table yields first, and keep the rest warm. *)
        match (stale, Hashtbl.to_seq_keys shard.table ()) with
        | [], Seq.Cons (p, _) -> Hashtbl.remove shard.table p
        | _ -> List.iter (Hashtbl.remove shard.table) stale
      end;
      Hashtbl.replace shard.table path { generation; scope; response })

let size t =
  Array.fold_left
    (fun acc shard ->
      acc + locked t shard (fun () -> Hashtbl.length shard.table))
    0 t.shards

let lock_stats t = (Atomic.get t.acquisitions, Atomic.get t.contended)
