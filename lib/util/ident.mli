(** Namespaced unique identifiers.

    OASIS names many kinds of entity — principals, services, roles, domains,
    certificates, sessions. An [Ident.t] pairs a namespace tag with a unique
    number so that identifiers of different kinds never collide and print
    readably (e.g. ["principal#12"]). *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val string_length : t -> int
(** [String.length (to_string t)], without building the string. *)

val write : Bytes.t -> int -> t -> int
(** [write buf pos t] writes [to_string t] at [pos] and returns
    [pos + string_length t], without allocating. *)

val tag : t -> string
(** The namespace tag the identifier was minted under. *)

val number : t -> int

type gen
(** A generator mints identifiers under a fixed tag with increasing numbers.
    Generators are independent: two worlds built from fresh generators mint
    identical identifier sequences, which keeps simulations deterministic. *)

val generator : string -> gen
val fresh : gen -> t

val make : string -> int -> t
(** [make tag n] names an identifier directly. Intended for tests and for
    reconstructing identifiers parsed off the wire. *)

val of_string : string -> t option
(** Parses the [to_string] form ["tag#n"]. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
