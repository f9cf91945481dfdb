(** Append-only bytes in fixed-size chunks.

    A store grows one {!chunk_size} chunk at a time: an append copies its
    bytes once, into the tail chunk (spilling into a fresh one), and never
    moves what is already stored, so a large store costs its bytes plus at
    most one part-filled chunk, with no doubling copy. Decision-log chains
    live in these ({!Oasis_trust.Decision_log}), and the simulated durable
    store keeps them across a crash. *)

type t

val chunk_size : int
(** 65,536 bytes. *)

val create : unit -> t

val of_string : string -> t
(** A store holding a copy of the bytes of the string. *)

val length : t -> int
(** Bytes stored. *)

val add_sub : t -> Bytes.t -> int -> int -> unit
(** [add_sub t b pos len] appends the [len] bytes of [b] from [pos].
    [Invalid_argument] if the range is out of bounds. *)

val get : t -> int -> char
(** [Invalid_argument] outside [0 .. length t - 1]. *)

val set : t -> int -> char -> unit
(** Overwrites one stored byte in place; [Invalid_argument] outside
    [0 .. length t - 1]. *)

val sub_string : t -> int -> int -> string
(** [sub_string t pos len] copies [len] stored bytes from [pos]. *)
