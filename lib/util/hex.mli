(** Lowercase hexadecimal, the one codec behind every hex string the
    repository writes or reads: digest renderings ({!Oasis_crypto.Sha256.to_hex}),
    domain-root addresses and the exported decision-log chain. *)

val encode : string -> string
(** Two lowercase digits per byte, high nibble first, through a
    16-character lookup table. *)

val decode : string -> string option
(** Inverse of {!encode}. Strict: [None] on odd length or on any character
    outside [0-9a-f] (uppercase included), so every string has at most one
    decoding and a one-bit tamper of an encoded file never parses to the
    same bytes. *)
