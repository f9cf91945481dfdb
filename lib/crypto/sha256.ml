type digest = string (* exactly 32 bytes *)

(* The 32-bit words live in native ints masked to 32 bits, so the schedule,
   chaining state and round variables are immediate values: no boxing and
   no allocation per block. That needs at least 63-bit ints (a sum of five
   32-bit words must not wrap); a 32-bit build stops here rather than
   hashing wrongly. *)
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

type ctx = {
  h : int array; (* 8 chaining words *)
  block : Bytes.t; (* 64-byte buffer being filled *)
  mutable fill : int; (* bytes currently in [block] *)
  mutable length : int; (* total message bytes fed *)
  mutable finished : bool;
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
         0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    length = 0;
    finished = false;
  }

(* Rotates the 32-bit word [x] right by [n]; bits above 32 are left for the
   caller to mask once per sum of rotations. *)
let[@inline] rotr x n = (x lsr n) lor (x lsl (32 - n))

let w = Array.make 64 0

(* Compresses the 64-byte block starting at [off] in [buf] into [h].
   Shared schedule array [w] makes this module non-reentrant across domains;
   the reproduction is single-domain. *)
let compress h buf off =
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be buf (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let s0 = (rotr x 7 lxor rotr x 18 lxor (x lsr 3)) land mask in
    let s1 = (rotr y 17 lxor rotr y 19 lxor (y lsr 10)) land mask in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = (rotr e' 6 lxor rotr e' 11 lxor rotr e' 25) land mask in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = (rotr a' 2 lxor rotr a' 13 lxor rotr a' 22) land mask in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* Tops up a partly filled block, then compresses whole blocks straight
   out of [src]; only a trailing partial block is copied. *)
let feed_sub ctx src pos len =
  if ctx.finished then invalid_arg "Sha256: context already finalized";
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
      compress ctx.h ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx.h src !pos;
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

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256: context already finalized";
  (* Padding in one buffer: 0x80, zeros up to 56 mod 64, then the 8-byte
     big-endian bit length. *)
  let pad_len = if ctx.fill < 56 then 64 - ctx.fill else 128 - ctx.fill in
  let pad = Bytes.make pad_len '\x00' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad (pad_len - 8) (Int64.shift_left (Int64.of_int ctx.length) 3);
  feed_bytes ctx pad;
  assert (ctx.fill = 0);
  ctx.finished <- true;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let digest_bytes b =
  let ctx = init () in
  feed_bytes ctx b;
  finalize ctx

let to_raw_string d = d

let to_hex = Oasis_util.Hex.encode

let of_raw_string s = if String.length s = 32 then Some s else None

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

let pp ppf d = Format.pp_print_string ppf (to_hex d)
