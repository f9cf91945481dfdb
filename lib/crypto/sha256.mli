(** SHA-256 (FIPS 180-4), implemented from scratch.

    No cryptographic package is available in the build environment, so the
    hash underlying certificate signatures (Fig. 4) and the decision-log
    chain is provided here. Whole 64-byte blocks are compressed straight
    from the caller's bytes, bounds-checked once per block in OCaml, by one
    of two kernels:

    - the SHA-instruction kernel ([sha256_stubs.c], [sha256rnds2],
      [sha256msg1], [sha256msg2]), used when a CPUID probe run once at
      module initialisation finds the SHA extensions with SSE4.1 and SSSE3
      ({!sha_ni}). The C stub reads only the 64 bytes of the block the
      OCaml side has checked and writes back the eight chaining words; it
      allocates nothing. A build for another architecture compiles the
      stub, whose probe answers false there;
    - the portable OCaml kernel otherwise, and for contexts made with
      {!init_portable}. Its 32-bit words are native ints masked to 32 bits
      (the module refuses to initialise on a build with ints narrower than
      63 bits). It runs eight rounds per loop iteration, renaming the
      working variables instead of shifting them, so each round writes only
      its new [d] and [h]; every rotation is one shift of the word doubled
      into 63 bits, and each sum is masked once. Its message schedule is
      one module-level array reused by every call, so hashing is
      single-domain, as the whole reproduction is.

    Nothing picks the kernel but the probe: the two compute the same
    digest, which the tests check on both. Nothing is allocated per block:
    a digest costs its context, its chaining words, its 64-byte block (the
    padding is written into it) and the 32 output bytes, 31 minor words in
    all. Not hardened against side channels. *)

type digest
(** A 32-byte digest. *)

val digest_string : string -> digest

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
(** A context compressed by the kernel the probe chose. *)

val init_portable : unit -> ctx
(** A context compressed by the portable OCaml kernel whatever the probe
    chose, so the tests and bench E4 reach it on a CPU with the SHA
    extensions too. *)

val sha_ni : bool
(** Whether {!init} contexts use the SHA-instruction kernel. *)

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

val zero : digest
(** 32 zero bytes: what an issuer puts in a record's signature field before
    it signs the record (the signing bytes exclude that field). *)

val equal_ct : digest -> digest -> bool
(** Constant-time comparison: runs over all 32 bytes regardless of where the
    first mismatch sits, so MAC checks leak no prefix-length timing signal.
    This is the comparison every verifier (HMAC, signature pad checks) must
    use on secret-derived digests. *)

val equal : digest -> digest -> bool
(** Alias of {!equal_ct}; kept for callers that compare public digests. *)
