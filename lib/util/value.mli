(** Parameter values carried by parametrised roles and certificates.

    OASIS role parameters "might be the identifier or location of the
    computer, the name of the activator of the role, some identifier of the
    activator, such as a public key or health service identifier, the patient
    the activator is treating, and so on" (Sect. 2). [Value.t] is the closed
    universe of such parameter values used throughout the reproduction. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Time of float  (** seconds of simulated time *)
  | Id of Ident.t  (** a principal / service / domain / certificate id *)

val compare : t -> t -> int
val equal : t -> t -> bool

val same_float : float -> float -> bool
(** Bit-pattern equality: [0.0] and [-0.0] differ, and a NaN matches
    itself. *)

val identical : t -> t -> bool
(** As {!equal}, but a [Time] compares with {!same_float}. Use it where
    two values must encode alike, as a presented certificate must match
    one remembered after a signature check. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val string_length : t -> int
(** [String.length (to_string v)]; only a [Time] is rendered to measure it. *)

val encoded_length : t -> int
(** The length of [v]'s wire encoding, computed without encoding. *)

val write : Bytes.t -> int -> t -> int
(** [write buf pos v] writes [v]'s unambiguous, length-prefixed wire
    encoding at [pos] and returns [pos + encoded_length v]; used when
    computing certificate signatures so that distinct field lists can never
    collide ([Fig. 4]'s protected fields). Allocates nothing. *)
