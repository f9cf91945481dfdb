(** SHA-256 (FIPS 180-4), implemented from scratch.

    No cryptographic package is available in the build environment, so the
    hash underlying certificate signatures (Fig. 4) and the decision-log
    chain is provided here. The 32-bit words are native ints masked to 32
    bits (the module refuses to initialise on a build with ints narrower
    than 63 bits), whole 64-byte blocks are compressed straight from the
    caller's string, and nothing is allocated per block: a digest costs
    its context, the padding block and the 32 output bytes. The message
    schedule is one module-level array reused by every call, so hashing is
    single-domain, as the whole reproduction is. Not hardened against side
    channels. *)

type digest
(** A 32-byte digest. *)

val digest_string : string -> digest
val digest_bytes : bytes -> digest

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val feed_string : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> unit
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

val pp : Format.formatter -> digest -> unit
