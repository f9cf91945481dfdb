(** ElGamal over GF(2^61 − 1): the simulated public-key layer.

    Sect. 4.1 integrates OASIS with public/private key cryptography: "a
    key-pair can be created by the principal and the public key sent to the
    service to be bound into the certificate". This module supplies such key
    pairs and the asymmetric encryption used by the challenge–response
    protocol. Toy field size; genuine algorithm (see DESIGN.md §3). *)

type public = int64
type private_key = private int64
(** The exponent [x] of [public = g^x]; readable (as {!Schnorr.generate}
    reads it for a signing key), never forged from an [int64]. *)

type keypair = { public : public; private_key : private_key }

val generate : Oasis_util.Rng.t -> keypair
(** The one keypair generator ({!Schnorr.generate} returns its keypair):
    draws [x], computes [g^x] with {!Modp.pow_generator}, and draws again
    while the public key fails {!valid_public}. *)

type ciphertext = { c1 : int64; c2 : int64 }

val encrypt : Oasis_util.Rng.t -> public -> int64 -> ciphertext
(** [encrypt rng pub m] encrypts a field element under [pub]. *)

val decrypt : private_key -> ciphertext -> int64

val valid_public : public -> bool
(** Partial public-key validation (SP 800-56A style): [2 <= y <= p - 2],
    excluding the identity and the order-2 element — the two
    subgroup-confinement points a bare range check would admit. Full
    membership of the generator's subgroup is not cheaply decidable here;
    DESIGN.md §12 records the residual gap. *)

val public_to_string : public -> string

val public_of_string : string -> public option
(** Strict canonical decimal (no sign, hex, underscores or leading zeros)
    and [valid_public]; every accepted key has exactly one encoding. *)

val proves : private_key -> public -> bool
(** [proves priv pub] — whether [priv] is the private key of [pub]; used by
    tests and by local key-consistency checks. *)
