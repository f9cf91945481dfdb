let p = 0x1FFFFFFFFFFFFFFFL (* 2^61 - 1 *)

let generator = 3L

(* The arithmetic runs on native ints: every canonical element is below
   2^61 and every intermediate below 2^62, so it fits the 63-bit int
   without boxing. int64 appears only at the API boundary. *)
let () = assert (Sys.int_size >= 63)

let pn = Int64.to_int p

(* Reduces x in [0, 2^62) modulo the Mersenne prime using 2^61 ≡ 1 (mod p). *)
let[@inline] reduce x =
  let r = (x land pn) + (x lsr 61) in
  if r >= pn then r - pn else r

let of_int64 x =
  let x = Int64.rem x p in
  if x < 0L then Int64.add x p else x

(* Canonical operands pass through; anything else is first reduced. *)
let[@inline] to_field x = Int64.to_int (if x >= 0L && x < p then x else of_int64 x)

let add a b = Int64.of_int (reduce (to_field a + to_field b))

let sub a b = Int64.of_int (reduce (to_field a + (pn - to_field b)))

(* Full 61x61 -> 122-bit product reduced mod p. Operands are split into
   31-bit halves so every intermediate fits in a 63-bit int:
     a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0
   and 2^62 ≡ 2, mid*2^31 = m1*2^61 + m0*2^31 ≡ m1 + m0*2^31 (mod p). *)
let mul_int a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFFFFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFFFFFF in
  let hi = reduce (a1 * b1) in
  (* a1*b1 < 2^60 *)
  let mid = (a1 * b0) + (a0 * b1) in
  (* < 2^62 *)
  let m1 = mid lsr 30 and m0 = mid land 0x3FFFFFFF in
  let mid_red = reduce (m1 + (m0 lsl 31)) in
  let lo = reduce (a0 * b0) in
  (* a0*b0 < 2^62 *)
  reduce (reduce (reduce (hi lsl 1) + mid_red) + lo)

let mul a b = Int64.of_int (mul_int (to_field a) (to_field b))

let pow base e =
  if e < 0L then invalid_arg "Modp.pow: negative exponent";
  let acc = ref 1 and base = ref (to_field base) and e = ref e in
  while !e <> 0L do
    if Int64.logand !e 1L = 1L then acc := mul_int !acc !base;
    base := mul_int !base !base;
    e := Int64.shift_right_logical !e 1
  done;
  Int64.of_int !acc

(* Shamir's trick: one square per bit of the longer exponent, and one
   multiply by b1, b2 or b1*b2 per bit where either exponent is set.
   Non-negative int64 exponents fit the 63-bit int bit for bit, and [lsr]
   reads them unsigned. *)
let pow2 b1 e1 b2 e2 =
  if e1 < 0L || e2 < 0L then invalid_arg "Modp.pow2: negative exponent";
  let b1 = to_field b1 and b2 = to_field b2 in
  let b12 = mul_int b1 b2 in
  let e1 = Int64.to_int e1 and e2 = Int64.to_int e2 in
  let top = ref 62 in
  while !top >= 0 && ((e1 lor e2) lsr !top) land 1 = 0 do
    decr top
  done;
  let acc = ref 1 in
  for i = !top downto 0 do
    acc := mul_int !acc !acc;
    match ((e1 lsr i) land 1) lor (((e2 lsr i) land 1) lsl 1) with
    | 1 -> acc := mul_int !acc b1
    | 2 -> acc := mul_int !acc b2
    | 3 -> acc := mul_int !acc b12
    | _ -> ()
  done;
  Int64.of_int !acc

let inv a =
  let a = of_int64 a in
  if a = 0L then invalid_arg "Modp.inv: zero has no inverse";
  pow a (Int64.sub p 2L)

let random rng =
  let rec draw () =
    let x = Int64.logand (Oasis_util.Rng.int64 rng) p in
    if x = 0L || x >= p then draw () else x
  in
  draw ()
