(* Schnorr signatures over GF(2^61 - 1).

   Exponent arithmetic is modulo the group exponent n = p - 1 (Fermat:
   g^(k mod (p-1)) = g^k for any g in the field, whatever ord(g)), so the
   scheme is sound even though full <g>-membership of keys is not checked.
   Products x*e overflow the 63-bit int, hence the double-and-add [mulmod]. *)

type signature = { e : int64; s : int64 }

type keypair = { public : int64; secret : int64 }

(* n = p - 1 = 2^61 - 2: the exponent group order. Scalars are native
   ints below n < 2^61, so a + b < 2^62 never wraps the 63-bit int. *)
let n = Int64.to_int Modp.p - 1
let n64 = Int64.of_int n

let addm a b =
  let sum = a + b in
  if sum >= n then sum - n else sum

let mulmod a b =
  let acc = ref 0 and a = ref (a mod n) and b = ref (b mod n) in
  while !b > 0 do
    if !b land 1 = 1 then acc := addm !acc !a;
    a := addm !a !a;
    b := !b lsr 1
  done;
  !acc

(* k - x*e mod n, with k <= n and xe < n. *)
let subm a b = if a >= b then a - b else a + n - b

let rec generate rng =
  let x = Modp.random rng in
  let public = Modp.pow Modp.generator x in
  if Elgamal.valid_public public then { public; secret = x } else generate rng

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
  let r = Modp.pow Modp.generator k in
  let e = challenge r msg in
  let s = subm (Int64.to_int k mod n) (mulmod (Int64.to_int secret) (Int64.to_int e)) in
  { e; s = Int64.of_int s }

(* e and s are public once the signature is on the wire, so the int64
   comparison needs no masking; the verifier recomputes only from public
   data. *)
let verify ~public msg { e; s } =
  e >= 0L && e < n64 && s >= 0L && s < n64
  && Elgamal.valid_public public
  &&
  let r' = Modp.pow2 Modp.generator s public e in
  Int64.equal (challenge r' msg) e

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
