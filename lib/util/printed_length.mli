(** Lengths of the decimal and hexadecimal-float spellings the wire format
    uses, computed from the number itself so that sizing a message never
    prints it. *)

val int : int -> int
(** [String.length (string_of_int n)], [min_int] included. *)

val hex_float : float -> int
(** [String.length (Printf.sprintf "%h" f)] for every float: signed zeros,
    subnormals, infinities and NaNs of either sign included. *)
