(** Arithmetic in GF(p) for the Mersenne prime p = 2^61 − 1.

    Provides the group underlying the simulated public-key operations
    (Diffie–Hellman / ElGamal in {!Elgamal}, Schnorr in {!Schnorr}). A
    61-bit field is far too small for real security; it is used here so
    that the challenge–response integration of Sect. 4.1 exercises genuine
    modular-exponentiation code paths without an arbitrary-precision
    dependency. DESIGN.md records the substitution.

    Exponentiation has two paths. {!pow} is square-and-multiply for any
    base: about 90 multiplications for a 61-bit exponent. A base used
    again and again gets a {!table}, a fixed-base comb: row [i] holds
    [base^(d·2^(4i))] for every 4-bit digit [d], 16 rows of 16 native ints
    (2 KiB, in a Bigarray outside the OCaml heap), so [base^e] is one
    table product per digit of [e], 15 multiplications. Byte digits would
    save 8 more, but their 16 KiB tables moved the peak RSS of the perf
    scale workload by ~6 MB, up as an int array, down as a Bigarray. The generator's table is built once at start-up and
    serves {!pow_generator}; {!Schnorr.key} builds one per issuer key a
    verifier keeps, read by {!pow_generator_mul_pow}.

    Side channels: a table power loads entries indexed by the digits of a
    secret exponent, where {!pow} branches on its bits. Neither is
    constant-time, and in a toy 61-bit field neither matters. *)

val p : int64
(** 2305843009213693951 = 2^61 − 1 (prime). *)

(** The arithmetic runs on native ints (every intermediate stays below
    2^62, so none is boxed); [int64] is only the interface type.
    Operands are canonical elements, in [\[0, p)] — what {!of_int64},
    {!random} and every function here return. A non-canonical operand is
    first reduced by {!of_int64}, so results are always canonical. *)

val mul : int64 -> int64 -> int64

val pow : int64 -> int64 -> int64
(** [pow base e] with [e >= 0], by square-and-multiply over the bits of
    [e]; raises [Invalid_argument] on a negative exponent. *)

type table
(** A fixed-base comb for one base (see the header). Its rows cover all
    63 bits of a non-negative [int64] exponent, so no exponent is reduced
    mod p − 1 and every base, 0 included, gets exactly {!pow}'s answer. *)

val table : int64 -> table
(** [table base] builds the comb: 256 multiplications. *)

val pow_generator : int64 -> int64
(** [pow_generator e] is [pow 3L e], 3 being the fixed multiplicative
    generator of key generation, signing and encryption, read from its
    table; raises [Invalid_argument] on a negative exponent. *)

val pow_generator_mul_pow : int64 -> ?table:table -> int64 -> int64 -> int64
(** [pow_generator_mul_pow s ?table y e] is
    [mul (pow_generator s) (pow y e)], boxing only the product: y^e is
    read from [table], which must be [table y], when one is given, and
    computed by square-and-multiply otherwise. Raises [Invalid_argument]
    on a negative exponent. This is Schnorr verification's g^s·y^e. *)

val inv : int64 -> int64
(** Multiplicative inverse by Fermat; raises [Invalid_argument] on 0. *)

val of_int64 : int64 -> int64
(** Canonicalises an arbitrary int64 into [\[0, p)]. *)

val random : Oasis_util.Rng.t -> int64
(** Uniform in [\[1, p)]. *)
