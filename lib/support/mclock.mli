(** Monotonic timing for pass and benchmark measurements.

    Backed by [CLOCK_MONOTONIC] (via bechamel's clock stubs), so
    elapsed times are never negative regardless of wall-clock steps. *)

type counter = int64
(** An opaque instant, in nanoseconds since an arbitrary origin. *)

val counter : unit -> counter
(** The current instant. *)

val elapsed_s : counter -> float
(** Seconds elapsed since [c]. Never negative. *)
