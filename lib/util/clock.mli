(** Simulated time.

    All components read time through a [Clock.t] handle so that the discrete
    event engine can drive a whole world on virtual time. Times are seconds
    as floats. *)

type t

val manual : unit -> t
(** A clock at time 0, advanced explicitly (by the simulation engine or by
    tests). *)

val now : t -> float

val advance_to : t -> float -> unit
(** Moves the clock forward. Raises [Invalid_argument] on attempts to move
    time backwards — simulations must never reorder the past. *)

