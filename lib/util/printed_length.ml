(* Counts on the non-positive side, where every int has a negation, so
   [min_int] needs no special case. *)
let int n =
  let rec digits n acc = if n > -10 then acc else digits (n / 10) (acc + 1) in
  if n < 0 then digits n 2 else digits (-n) 1

(* "%h" prints [-] for a set sign bit, then [nan] or [infinity]; or else
   [0x] and the leading digit, then, unless the fraction is zero, a [.]
   and its 13 hex digits without the trailing zeros, then [p], the
   exponent's sign and its decimal digits. *)
let hex_float f =
  let bits = Int64.bits_of_float f in
  let sign = if Int64.compare bits 0L < 0 then 1 else 0 in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let fraction = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  if biased = 0x7FF then sign + if fraction = 0 then 8 else 3
  else
    let exponent = if biased = 0 then if fraction = 0 then 0 else -1022 else biased - 1023 in
    let rec trailing_zeros m n = if m land 0xF = 0 then trailing_zeros (m lsr 4) (n + 1) else n in
    let point_and_digits = if fraction = 0 then 0 else 1 + 13 - trailing_zeros fraction 0 in
    sign + 3 + point_and_digits + 2 + int (abs exponent)
