(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the reproduction (network jitter, workload
    generators, Byzantine behaviour) draws from an explicit [Rng.t] so that
    experiments are replayable from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Generators created from the same
    seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. Use to give
    each simulated component its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. Raises [Invalid_argument] on []. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential inter-arrival time. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes, e.g. for nonces and secrets. *)
