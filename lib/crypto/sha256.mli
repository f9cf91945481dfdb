(** SHA-256 (FIPS 180-4), implemented from scratch.

    No cryptographic package is available in the build environment, so the
    hash underlying certificate signatures (Fig. 4) and the decision-log
    chain is provided here. The 32-bit words are native ints masked to 32
    bits (the module refuses to initialise on a build with ints narrower
    than 63 bits), and whole 64-byte blocks are compressed straight from
    the caller's bytes, bounds-checked once per block. The compression runs
    eight rounds per loop iteration, renaming the working variables instead
    of shifting them, so each round writes only its new [d] and [h]; every
    rotation is one shift of the word doubled into 63 bits, and each sum is
    masked once. Nothing is allocated per block: a digest costs its
    context, its chaining words, its 64-byte block (the padding is written
    into it) and the 32 output bytes, 31 minor words in all. The message
    schedule is one module-level array reused by every call, so hashing is
    single-domain, as the whole reproduction is. Not hardened against side
    channels. *)

type digest
(** A 32-byte digest. *)

val digest_string : string -> digest

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val feed_string : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> unit

val feed_sub : ctx -> bytes -> int -> int -> unit
(** [feed_sub ctx b pos len] feeds the [len] bytes of [b] from [pos]: a
    caller that reuses one buffer hashes its filled prefix without copying
    it out. *)

val finalize : ctx -> digest
(** [finalize] consumes the context; feeding it afterwards raises
    [Invalid_argument]. *)

val to_raw_string : digest -> string
(** The 32 raw bytes. *)

val to_hex : digest -> string
(** Lowercase hexadecimal, 64 characters ({!Oasis_util.Hex.encode}). *)

val of_raw_string : string -> digest option
(** Re-wraps 32 raw bytes (e.g. parsed off the wire); [None] on wrong size. *)

val equal_ct : digest -> digest -> bool
(** Constant-time comparison: runs over all 32 bytes regardless of where the
    first mismatch sits, so MAC checks leak no prefix-length timing signal.
    This is the comparison every verifier (HMAC, signature pad checks) must
    use on secret-derived digests. *)

val equal : digest -> digest -> bool
(** Alias of {!equal_ct}; kept for callers that compare public digests. *)
