(** Arithmetic in GF(p) for the Mersenne prime p = 2^61 − 1.

    Provides the group underlying the simulated public-key operations
    (Diffie–Hellman / ElGamal in {!Elgamal}). A 61-bit field is far too small
    for real security; it is used here so that the challenge–response
    integration of Sect. 4.1 exercises genuine modular-exponentiation code
    paths without an arbitrary-precision dependency. DESIGN.md records the
    substitution. *)

val p : int64
(** 2305843009213693951 = 2^61 − 1 (prime). *)

val generator : int64
(** A fixed multiplicative generator used for key generation. *)

(** The arithmetic runs on native ints (every intermediate stays below
    2^62, so none is boxed); [int64] is only the interface type.
    Operands are canonical elements, in [\[0, p)] — what {!of_int64},
    {!random} and every function here return. A non-canonical operand is
    first reduced by {!of_int64}, so results are always canonical. *)

val add : int64 -> int64 -> int64
val sub : int64 -> int64 -> int64
val mul : int64 -> int64 -> int64

val pow : int64 -> int64 -> int64
(** [pow base e] with [e >= 0], by square-and-multiply over the bits of
    [e]; raises [Invalid_argument] on a negative exponent. *)

val pow2 : int64 -> int64 -> int64 -> int64 -> int64
(** [pow2 b1 e1 b2 e2] is [mul (pow b1 e1) (pow b2 e2)], computed in one
    interleaved square-and-multiply over the bits of both exponents
    (Shamir's trick): one squaring per bit of the longer exponent instead
    of one per bit of each. Every non-negative [int64] exponent is
    accepted; Schnorr verification passes scalars below p − 1 < 2^61.
    Raises [Invalid_argument] on a negative exponent. *)

val inv : int64 -> int64
(** Multiplicative inverse by Fermat; raises [Invalid_argument] on 0. *)

val of_int64 : int64 -> int64
(** Canonicalises an arbitrary int64 into [\[0, p)]. *)

val random : Oasis_util.Rng.t -> int64
(** Uniform in [\[1, p)]. *)
