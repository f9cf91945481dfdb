(** Schnorr signatures over GF(2^61 − 1): the offline-verifiable layer.

    Sect. 4 certificates are "public-key certificates"; this module provides
    the signature half so relying services can verify credentials with zero
    network round trips (DESIGN.md §12). Same toy field caveat as {!Modp} —
    genuine algorithm, 61-bit security parameter, recorded in DESIGN.md.

    Exponentiation reads fixed-base combs ({!Modp.table}) where the base is
    long-lived: signing's g^k and verification's g^s come from the
    generator's table, and a verifier that keeps a {!key} reads y^e from
    that key's own table (16 rows of 16 entries, 256 multiplications to
    build). {!verify} computes y^e by square-and-multiply instead; both run
    the same checks. The side-channel note in {!Modp} applies: table loads
    indexed by secret digits are no worse than square-and-multiply
    branching on secret bits, in a toy 61-bit field. *)

type signature = { e : int64; s : int64 }
(** A (challenge, response) pair; both scalars are in [\[0, p − 1)]. *)

type keypair = { public : int64; secret : int64 }

val generate : Oasis_util.Rng.t -> keypair
(** {!Elgamal.generate}'s keypair, with the same draws: its public key
    passes {!Elgamal.valid_public}. *)

val sign : secret:int64 -> Oasis_util.Rng.t -> string -> signature

val verify : public:int64 -> string -> signature -> bool
(** Rejects out-of-range scalars and invalid public keys before the group
    equation; verification uses public data only. *)

type key
(** A public key with its table, for a verifier that checks many
    signatures under one key. *)

val key : int64 -> key
(** Builds the table of a public key. An invalid key gets one too, and
    {!verify_key} under it rejects every signature. *)

val verify_key : key -> string -> signature -> bool
(** [verify_key (key public)] is [verify ~public], with y^e read from the
    key's table. *)

val mulmod : int -> int -> int
(** [mulmod a b] is [a·b mod (p − 1)] for [a], [b] in [\[0, 2^61)]: the
    scalar product in [s = k − x·e], a split product reduced with
    2^61 ≡ 2 (mod p − 1). *)

val to_digest : signature -> Sha256.digest
(** Packs [e ‖ s] (8-byte big-endian each) plus 16 zero bytes into the
    32-byte signature field certificates already carry. *)

val of_digest : Sha256.digest -> signature option
(** Inverse of {!to_digest}; [None] if the pad is non-zero or either scalar
    is out of range — which is where HMAC digests land, so scheme confusion
    on the wire is rejected here. *)
