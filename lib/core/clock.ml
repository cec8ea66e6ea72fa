(** The one clock for the timings the libraries report (constraint
    generation, solving, epoch seals, the explorer's solves, the record
    service's latencies): monotonic wall time, so a timing neither jumps
    with the system clock nor, as process CPU time would, counts other
    domains' work under a pool. *)

let now_s () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
