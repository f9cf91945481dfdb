(** Lowercase hexadecimal, the one codec behind every hex string the
    repository writes or reads: digest renderings ({!Oasis_crypto.Sha256.to_hex}),
    domain-root addresses and the exported decision-log chain. *)

val encode : string -> string
(** Two lowercase digits per byte, high nibble first, through a
    16-character lookup table. *)

val write : Bytes.t -> int -> int -> Bytes.t -> int -> int
(** [write src src_pos len dst dst_pos] writes the [2 * len] digits of
    [src]'s bytes [src_pos .. src_pos + len - 1] at [dst_pos] and returns
    the position after them: {!encode} into a caller's buffer, with no
    intermediate string. [Invalid_argument] if either range is out of
    bounds. *)

val decode : string -> string option
(** Inverse of {!encode}. Strict: [None] on odd length or on any character
    outside [0-9a-f] (uppercase included), so every string has at most one
    decoding and a one-bit tamper of an encoded file never parses to the
    same bytes. *)
