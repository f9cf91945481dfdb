type digest = string (* exactly 32 bytes *)

(* The 32-bit words live in native ints masked to 32 bits, so the schedule,
   chaining state and round variables are immediate values: no boxing and
   no allocation per block. That needs 63-bit ints (a rotation reads a
   word doubled into bits 0-62, see [big_sigma0]); a 32-bit build stops
   here rather than hashing wrongly. *)
let () = assert (Sys.int_size >= 63)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* The SHA-instruction kernel (sha256_stubs.c): it reads the 64 bytes at
   the offset and writes back the eight chaining words, bounds-checked by
   [compress] before the call. *)
external sha_ni_available : unit -> bool = "oasis_sha256_hw_available" [@@noalloc]

external compress_sha_ni : int array -> Bytes.t -> (int[@untagged]) -> unit
  = "oasis_sha256_compress_byte" "oasis_sha256_compress"
[@@noalloc]

let sha_ni = sha_ni_available ()

type ctx = {
  h : int array; (* 8 chaining words *)
  block : Bytes.t; (* 64-byte buffer being filled *)
  mutable fill : int; (* bytes currently in [block]; -1 once finalized *)
  mutable length : int; (* total message bytes fed *)
  sha_ni : bool; (* which kernel compresses this context's blocks *)
}

let make sha_ni =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
         0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    length = 0;
    sha_ni;
  }

let init () = make sha_ni
let init_portable () = make false

let w = Array.make 64 0

(* Big-endian 32-bit load without a bounds check of its own: [compress]
   checks the whole block once, at entry. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] load buf p =
  let x = get32u buf p in
  Int32.to_int (if Sys.big_endian then x else swap32 x) land mask

(* Every rotation comes from one doubled word: for a 32-bit [x],
   [xx = x lor (x lsl 32)] holds [x] in bits 0-31 and bits 0-30 of [x] in
   bits 32-62, so bits 0-31 of [xx lsr n] are [x] rotated right by [n] for
   any n <= 31 (SHA-256 rotates by at most 25). The argument must be a
   clean 32-bit word; the result carries junk above bit 31, which is left
   there: every Σ/σ value only ever goes into a sum, and the low 32 bits
   of a sum depend only on the low 32 bits of its terms, so the one mask
   on the sum clears it. *)
let[@inline] big_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)

let[@inline] big_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)

let[@inline] small_sigma0 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = x lor (x lsl 32) in
  (xx lsr 17) lxor (xx lsr 19) lxor (x lsr 10)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))

(* T1 of round [i], unmasked: only its low 32 bits are ever used. The
   sums add the term that hangs off the previous round's result last (Σ1
   here, Σ0 for the new [h], σ1 of w[i-2] in the schedule), so the next
   round waits on one addition after it rather than on the whole sum. *)
let[@inline] t1 e f g h i =
  h + Array.unsafe_get k i + Array.unsafe_get w i + ch e f g + big_sigma1 e

(* The portable kernel: compresses the 64-byte block starting at [off] in
   [buf] into [h]. Eight rounds per iteration: instead of shifting all
   eight working variables along each round, round j of an iteration names
   them from offset j, so a round writes only its new [d] and [h]. The
   loads are unchecked: [compress] has checked the block and the state.
   Shared schedule array [w] makes this module non-reentrant across
   domains; the reproduction is single-domain. *)
let compress_portable h buf off =
  for i = 0 to 15 do
    Array.unsafe_set w i (load buf (off + (4 * i)))
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16)
       + Array.unsafe_get w (i - 7)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + small_sigma1 (Array.unsafe_get w (i - 2)))
      land mask)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  let i = ref 0 in
  while !i < 64 do
    let r = !i in
    let t = t1 !e !f !g !hh r in
    d := (!d + t) land mask;
    hh := (t + maj !a !b !c + big_sigma0 !a) land mask;
    let t = t1 !d !e !f !g (r + 1) in
    c := (!c + t) land mask;
    g := (t + maj !hh !a !b + big_sigma0 !hh) land mask;
    let t = t1 !c !d !e !f (r + 2) in
    b := (!b + t) land mask;
    f := (t + maj !g !hh !a + big_sigma0 !g) land mask;
    let t = t1 !b !c !d !e (r + 3) in
    a := (!a + t) land mask;
    e := (t + maj !f !g !hh + big_sigma0 !f) land mask;
    let t = t1 !a !b !c !d (r + 4) in
    hh := (!hh + t) land mask;
    d := (t + maj !e !f !g + big_sigma0 !e) land mask;
    let t = t1 !hh !a !b !c (r + 5) in
    g := (!g + t) land mask;
    c := (t + maj !d !e !f + big_sigma0 !d) land mask;
    let t = t1 !g !hh !a !b (r + 6) in
    f := (!f + t) land mask;
    b := (t + maj !c !d !e + big_sigma0 !c) land mask;
    let t = t1 !f !g !hh !a (r + 7) in
    e := (!e + t) land mask;
    a := (t + maj !b !c !d + big_sigma0 !b) land mask;
    i := r + 8
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask)

(* One bounds check per block, for either kernel. *)
let compress ctx buf off =
  if off < 0 || off > Bytes.length buf - 64 || Array.length ctx.h < 8 then
    invalid_arg "Sha256.compress";
  if ctx.sha_ni then compress_sha_ni ctx.h buf off else compress_portable ctx.h buf off

(* Tops up a partly filled block, then compresses whole blocks straight
   out of [src]; only a trailing partial block is copied. *)
let feed_sub ctx src pos len =
  if ctx.fill < 0 then invalid_arg "Sha256: context already finalized";
  if pos < 0 || len < 0 || pos + len > Bytes.length src then invalid_arg "Sha256.feed_sub";
  ctx.length <- ctx.length + len;
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) !len in
    Bytes.blit src !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !pos ctx.block 0 !len;
    ctx.fill <- !len
  end

(* [compress] and [feed_sub] only read their source. *)
let feed_string ctx s = feed_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)
let feed_bytes ctx b = feed_sub ctx b 0 (Bytes.length b)

(* Pads inside the context's own block: 0x80, zeros up to 56 mod 64 (one
   extra block when fewer than 9 bytes are left), then the 8-byte
   big-endian bit length. *)
let finalize ctx =
  if ctx.fill < 0 then invalid_arg "Sha256: context already finalized";
  let block = ctx.block and fill = ctx.fill in
  Bytes.set block fill '\x80';
  if fill >= 56 then begin
    Bytes.fill block (fill + 1) (63 - fill) '\x00';
    compress ctx block 0;
    Bytes.fill block 0 56 '\x00'
  end
  else Bytes.fill block (fill + 1) (55 - fill) '\x00';
  Bytes.set_int64_be block 56 (Int64.shift_left (Int64.of_int ctx.length) 3);
  compress ctx block 0;
  ctx.fill <- -1;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let to_raw_string d = d

let to_hex = Oasis_util.Hex.encode

let of_raw_string s = if String.length s = 32 then Some s else None

let zero = String.make 32 '\x00'

let equal_ct a b =
  (* Constant time over the full 32 bytes: the accumulator folds every byte
     pair regardless of where the first difference sits, so the running time
     is independent of the digest contents. *)
  let acc = ref 0 in
  for i = 0 to 31 do
    acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
  done;
  !acc = 0

let equal = equal_ct
