(** The decimal and hexadecimal-float spellings the wire format uses:
    their lengths, computed from the number itself so that sizing a
    message never prints it, and writers that put the same bytes straight
    into a caller's buffer without allocating. *)

val int : int -> int
(** [String.length (string_of_int n)], [min_int] included. *)

val hex_float : float -> int
(** [String.length (Printf.sprintf "%h" f)] for every float: signed zeros,
    subnormals, infinities and NaNs of either sign included. *)

val write_int : Bytes.t -> int -> int -> int
(** [write_int buf pos n] writes [string_of_int n] at [pos] and returns
    [pos + int n], the position after it. *)

val write_hex_float : Bytes.t -> int -> float -> int
(** [write_hex_float buf pos f] writes [Printf.sprintf "%h" f] at [pos]
    and returns [pos + hex_float f]. *)
