(* Monotonic time in seconds, at nanosecond resolution: [Unix.gettimeofday]
   ticks in microseconds, too coarse for sub-millisecond cache hits. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
