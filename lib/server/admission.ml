type 'a lane = {
  m : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  mutable open_ : bool;
}

let lane () =
  { m = Mutex.create (); nonempty = Condition.create (); items = Queue.create (); open_ = true }

let push lane ~cap x =
  Mutex.lock lane.m;
  let ok = lane.open_ && Queue.length lane.items < cap in
  if ok then begin
    Queue.push x lane.items;
    Condition.signal lane.nonempty
  end;
  Mutex.unlock lane.m;
  ok

let take lane =
  Mutex.lock lane.m;
  while Queue.is_empty lane.items && lane.open_ do
    Condition.wait lane.nonempty lane.m
  done;
  let next = Queue.take_opt lane.items in
  Mutex.unlock lane.m;
  next

let close lane =
  Mutex.lock lane.m;
  lane.open_ <- false;
  Condition.broadcast lane.nonempty;
  Mutex.unlock lane.m

let length lane =
  Mutex.lock lane.m;
  let n = Queue.length lane.items in
  Mutex.unlock lane.m;
  n

type 'a t = {
  capacity : int;
  budget : float;
  floor : int;
  limit : int Atomic.t;
  last_decrease : float Atomic.t;
  front : 'a lane;
  stale : 'a lane option;
}

(* The floor keeps a halved limit useful: 8 slots at the default
   capacity, and never more than half of a small queue. *)
let create ~capacity ~budget ~stale =
  {
    capacity;
    budget;
    floor = max 1 (min 8 (capacity / 2));
    limit = Atomic.make capacity;
    last_decrease = Atomic.make 0.;
    front = lane ();
    stale = (if stale then Some (lane ()) else None);
  }

let front t = t.front
let stale t = t.stale
let limit t = Atomic.get t.limit
let depth t = length t.front
let bound t = min t.capacity (Atomic.get t.limit)
let high_water t = max 1 (bound t * 3 / 4)

(* Multiplicative decrease, at most once per 100 ms: a burst that
   overflows fifty times is one congestion signal, not fifty. *)
let decrease t =
  let now = Bx_obs.Clock.now () in
  let last = Atomic.get t.last_decrease in
  if now -. last >= 0.1 && Atomic.compare_and_set t.last_decrease last now then
    Atomic.set t.limit (max t.floor (Atomic.get t.limit / 2))

let admit t x =
  if push t.front ~cap:(bound t) x then `Front
  else begin
    decrease t;
    (* The stale lane is several times the front lane: a stale cache hit
       costs microseconds, and the lane exists precisely to absorb the
       burst the limit just refused. *)
    match t.stale with
    | Some lane when push lane ~cap:(4 * t.capacity) x -> `Stale
    | _ -> `Shed
  end

let served t ~began =
  if Bx_obs.Clock.now () -. began <= t.budget then begin
    let cur = Atomic.get t.limit in
    if cur < t.capacity then ignore (Atomic.compare_and_set t.limit cur (cur + 1))
  end

let retry_after t =
  let hw = high_water t and depth = depth t in
  if depth < hw then 1 else min 8 (2 + (6 * (depth - hw) / max 1 (bound t - hw)))
