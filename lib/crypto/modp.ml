let p = 0x1FFFFFFFFFFFFFFFL (* 2^61 - 1 *)

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

(* Square-and-multiply on native ints: a non-negative int64 exponent
   fits the 63-bit int bit for bit. *)
let pow_int base e =
  let acc = ref 1 and base = ref base and e = ref e in
  while !e <> 0 do
    if !e land 1 = 1 then acc := mul_int !acc !base;
    base := mul_int !base !base;
    e := !e lsr 1
  done;
  !acc

let pow base e =
  if e < 0L then invalid_arg "Modp.pow: negative exponent";
  Int64.of_int (pow_int (to_field base) (Int64.to_int e))

(* A comb: row [i] holds base^(d * 2^(window * i)) for every digit [d]
   of [window] bits, row-major. A non-negative int64 exponent has 63
   significant bits, which the 63-bit int holds bit for bit ([lsr] reads
   them unsigned), and [rows] digits cover all of them, so no exponent is
   reduced mod p - 1 first: reducing would not save a row at any window,
   and without it 0^e is right too.

   The entries live in a Bigarray, outside the OCaml heap: they hold no
   pointers, so the collector never scans them. The same 256 words as an
   int array, one per issuer key, shifted where the major collector's
   cycles fall: the perf revoke workload's peak RSS, which sits in one of
   two modes (~37.5 or ~41.2 MB) by that, changed mode on 6 of 10 seeds;
   as a Bigarray it changed on none. *)
let window = 4
let rows = (63 + window - 1) / window
let digit_mask = (1 lsl window) - 1

type table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let table base =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (rows lsl window) in
  let b = ref (to_field base) in
  for i = 0 to rows - 1 do
    let row = i lsl window in
    t.{row} <- 1;
    for d = 1 to digit_mask do
      t.{row + d} <- mul_int t.{row + d - 1} !b
    done;
    (* The next row's unit: b^(2^window) = b^(2^window - 1) * b. *)
    b := mul_int t.{row + digit_mask} !b
  done;
  t

(* Every index is below [rows lsl window]: a digit is masked to [window]
   bits and the row is a loop bound. *)
let pow_table (t : table) e =
  let acc = ref (Bigarray.Array1.unsafe_get t (e land digit_mask)) in
  for i = 1 to rows - 1 do
    acc :=
      mul_int !acc
        (Bigarray.Array1.unsafe_get t ((i lsl window) lor ((e lsr (window * i)) land digit_mask)))
  done;
  !acc

(* The fixed multiplicative generator, 3. *)
let generator_table = table 3L

let pow_generator e =
  if e < 0L then invalid_arg "Modp.pow_generator: negative exponent";
  Int64.of_int (pow_table generator_table (Int64.to_int e))

(* Both powers stay native ints until the product is boxed. *)
let pow_generator_mul_pow s ?table y e =
  if s < 0L || e < 0L then invalid_arg "Modp.pow_generator_mul_pow: negative exponent";
  let e = Int64.to_int e in
  let y_e = match table with Some t -> pow_table t e | None -> pow_int (to_field y) e in
  Int64.of_int (mul_int (pow_table generator_table (Int64.to_int s)) y_e)

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
