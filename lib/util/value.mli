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
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val type_name : t -> string
(** ["int"], ["str"], ["bool"], ["time"] or ["id"]; used in error messages
    and for parameter signature checks. *)

val encode : Buffer.t -> t -> unit
(** Appends an unambiguous, length-prefixed wire encoding; used when
    computing certificate signatures so that distinct field lists can never
    collide ([Fig. 4]'s protected fields). *)

val encoded_length : t -> int
(** The number of bytes {!encode} appends, computed without encoding. *)

val of_string : string -> t
(** Best-effort parse used by the policy parser: integers, [true]/[false],
    [t:<float>] for times, [tag#n] for identifiers, anything else a string. *)
