type t = {
  sub_bits : int;
  sub : int; (* 1 lsl sub_bits: slots per level, 1/error bound *)
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable max_v : int;
  mutable min_v : int;
}

(* Values are OCaml ints, at most 62 bits: the highest set bit is at
   index 62, so levels run 0 .. 63 - sub_bits and the whole table is
   (64 - sub_bits) * sub ints — ~29k words at the default sub_bits=7,
   allocated once at creation. *)
let levels sub_bits = 64 - sub_bits

let create ?(sub_bits = 7) () =
  if sub_bits < 1 || sub_bits > 16 then
    invalid_arg "Hist.create: sub_bits must be in 1..16";
  let sub = 1 lsl sub_bits in
  {
    sub_bits;
    sub;
    counts = Array.make (levels sub_bits * sub) 0;
    total = 0;
    sum = 0;
    max_v = 0;
    min_v = max_int;
  }

(* Index of the highest set bit (v > 0), branchy but allocation-free. *)
let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

(* Level 0 is exact; level l >= 1 covers [sub * 2^(l-1), sub * 2^l) in
   sub slots of width 2^(l-1).  For v in that range, v lsr (l-1) lands
   in [sub, 2*sub), so subtracting sub yields the slot. *)
let index t v =
  if v < t.sub then v
  else
    let l = msb v - t.sub_bits + 1 in
    (l * t.sub) + (v lsr (l - 1)) - t.sub

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v;
  if v < t.min_v then t.min_v <- v

let total t = t.total
let max_value t = t.max_v
let min_value t = if t.total = 0 then 0 else t.min_v
let sum t = t.sum
let mean t = if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total
let sub_buckets t = t.sub

(* The largest value filed under bucket [i] — what quantile reports, so
   estimates err high (never low) by at most the slot width. *)
let bucket_upper t i =
  if i < t.sub then i
  else
    let l = i / t.sub and slot = i mod t.sub in
    ((t.sub + slot + 1) lsl (l - 1)) - 1

let quantile t q =
  if t.total = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let acc = ref 0 and i = ref 0 and result = ref t.max_v in
    (try
       while !i < Array.length t.counts do
         acc := !acc + t.counts.(!i);
         if !acc >= rank then begin
           result := bucket_upper t !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    min !result t.max_v
  end

(* Prefix sum up to and including [v]'s own slot: every value <= v, plus
   any value sharing that slot though above v. *)
let count_le t v =
  if v < 0 then 0
  else begin
    let last = index t v and acc = ref 0 in
    for i = 0 to min last (Array.length t.counts - 1) do
      acc := !acc + t.counts.(i)
    done;
    !acc
  end

let merge a b =
  if a.sub_bits <> b.sub_bits then
    invalid_arg "Hist.merge: sub_bits differ";
  let c = create ~sub_bits:a.sub_bits () in
  Array.iteri (fun i n -> c.counts.(i) <- n + b.counts.(i)) a.counts;
  c.total <- a.total + b.total;
  c.sum <- a.sum + b.sum;
  c.max_v <- max a.max_v b.max_v;
  c.min_v <- min a.min_v b.min_v;
  c
