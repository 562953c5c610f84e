let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The single wall-clock reading in the program: it only anchors the
   monotonic readings to the epoch so that deadlines expressed by
   callers in epoch seconds stay comparable. *)
let offset = Unix.gettimeofday () -. (float_of_int (now_ns ()) *. 1e-9)
let now () = offset +. (float_of_int (now_ns ()) *. 1e-9)
