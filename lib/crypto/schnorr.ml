(* Schnorr signatures over GF(2^61 - 1).

   Exponent arithmetic is modulo the group exponent n = p - 1 (Fermat:
   g^(k mod (p-1)) = g^k for any g in the field, whatever ord(g)), so the
   scheme is sound even though full <g>-membership of keys is not checked.
   g^k and g^s come from the generator's comb; y^e from the key's own comb
   when the verifier keeps one, by square-and-multiply otherwise. *)

type signature = { e : int64; s : int64 }

type keypair = { public : int64; secret : int64 }

(* n = p - 1 = 2^61 - 2: the exponent group order. Scalars are native
   ints below n < 2^61, so a + b < 2^62 never wraps the 63-bit int. *)
let n = Int64.to_int Modp.p - 1
let n64 = Int64.of_int n

let addm a b =
  let sum = a + b in
  if sum >= n then sum - n else sum

(* Reduces x in [0, 2^62) modulo n using 2^61 ≡ 2 (mod n): the result
   is below 2^61 + 2, so one subtraction brings it under n. *)
let[@inline] reduce_n x =
  let r = (x land 0x1FFFFFFFFFFFFFFF) + ((x lsr 61) lsl 1) in
  if r >= n then r - n else r

(* a*b mod n for a, b in [0, 2^61), split into 31-bit halves as
   [Modp.mul_int] splits them for p:
     a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0
   with 2^62 ≡ 4 and mid*2^31 = m1*2^61 + m0*2^31 ≡ 2*m1 + m0*2^31. *)
let mulmod a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFFFFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFFFFFF in
  (* a1*b1 < 2^60 *)
  let hi = reduce_n ((a1 * b1) lsl 2) in
  (* < 2^62 *)
  let mid = (a1 * b0) + (a0 * b1) in
  let m1 = mid lsr 30 and m0 = mid land 0x3FFFFFFF in
  let mid = reduce_n ((m1 lsl 1) + (m0 lsl 31)) in
  (* a0*b0 < 2^62 *)
  addm (addm hi mid) (reduce_n (a0 * b0))

(* k - x*e mod n, with k <= n and xe < n. *)
let subm a b = if a >= b then a - b else a + n - b

let generate rng =
  let { Elgamal.public; private_key } = Elgamal.generate rng in
  { public; secret = (private_key :> int64) }

(* "oasis-schnorr\x00" followed by the 8 bytes of r: one scratch buffer
   reused by every challenge (single-domain, as Sha256's schedule is). *)
let challenge_prefix = Bytes.of_string ("oasis-schnorr\x00" ^ String.make 8 '\x00')
let r_at = Bytes.length challenge_prefix - 8

(* H("oasis-schnorr\x00" || r || msg): its first 8 bytes (sign bit
   cleared) reduced mod n. *)
let challenge r msg =
  let ctx = Sha256.init () in
  Bytes.set_int64_be challenge_prefix r_at r;
  Sha256.feed_bytes ctx challenge_prefix;
  Sha256.feed_string ctx msg;
  let d = Sha256.to_raw_string (Sha256.finalize ctx) in
  Int64.rem (Int64.logand (String.get_int64_be d 0) Int64.max_int) n64

let sign ~secret rng msg =
  let k = Modp.random rng in
  let r = Modp.pow_generator k in
  let e = challenge r msg in
  let s = subm (Int64.to_int k mod n) (mulmod (Int64.to_int secret) (Int64.to_int e)) in
  { e; s = Int64.of_int s }

(* The table is kept as the option [check] takes, so passing it
   allocates nothing. *)
type key = { public : int64; table : Modp.table option }

let key public = { public; table = Some (Modp.table public) }

(* The one verification routine: [table], when given, is [public]'s comb
   and yields y^e; without it y^e is square-and-multiply. e and s are
   public once the signature is on the wire, so the int64 comparison
   needs no masking; the verifier recomputes only from public data. *)
let check ~public table msg { e; s } =
  e >= 0L && e < n64 && s >= 0L && s < n64
  && Elgamal.valid_public public
  &&
  Int64.equal (challenge (Modp.pow_generator_mul_pow s ?table public e) msg) e

let verify ~public msg sg = check ~public None msg sg

let verify_key { public; table } msg sg = check ~public table msg sg

(* ------------------------------------------------------------------ *)
(* Packing into the 32-byte certificate signature field               *)
(* ------------------------------------------------------------------ *)

(* e (8 bytes BE) || s (8 bytes BE) || 16 zero bytes, carried in the same
   [Sha256.digest]-typed field HMAC certificates use. An HMAC digest read
   as a packed signature fails the zero-pad check (and the scalar range
   checks) with overwhelming probability, so the two schemes cannot be
   confused on the wire. *)
let to_digest { e; s } =
  let b = Bytes.make 32 '\x00' in
  Bytes.set_int64_be b 0 e;
  Bytes.set_int64_be b 8 s;
  match Sha256.of_raw_string (Bytes.unsafe_to_string b) with
  | Some d -> d
  | None -> assert false

let of_digest d =
  let raw = Sha256.to_raw_string d in
  let e = String.get_int64_be raw 0 and s = String.get_int64_be raw 8 in
  if
    Int64.equal (String.get_int64_ne raw 16) 0L
    && Int64.equal (String.get_int64_ne raw 24) 0L
    && e >= 0L && e < n64 && s >= 0L && s < n64
  then Some { e; s }
  else None
