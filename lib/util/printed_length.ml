(* Counts on the non-positive side, where every int has a negation, so
   [min_int] needs no special case. *)
let int n =
  let rec digits n acc = if n > -10 then acc else digits (n / 10) (acc + 1) in
  if n < 0 then digits n 2 else digits (-n) 1

(* Writes [m <= 0]'s digits leftwards, ending at [i]; [m mod 10] is in
   [-9, 0]. *)
let rec write_digits buf i m =
  Bytes.set buf i (Char.unsafe_chr (Char.code '0' - (m mod 10)));
  if m <= -10 then write_digits buf (i - 1) (m / 10)

let write_int buf pos n =
  let stop = pos + int n in
  write_digits buf (stop - 1) (if n < 0 then n else -n);
  if n < 0 then Bytes.set buf pos '-';
  stop

(* "%h" prints [-] for a set sign bit, then [nan] or [infinity]; or else
   [0x] and the leading digit, then, unless the fraction is zero, a [.]
   and its 13 hex digits without the trailing zeros, then [p], the
   exponent's sign and its decimal digits. The fields are read from the
   bits one at a time, so nothing is boxed. *)
let negative f = Int64.compare (Int64.bits_of_float f) 0L < 0
let biased f = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 52) land 0x7FF
let fraction f = Int64.to_int (Int64.logand (Int64.bits_of_float f) 0xF_FFFF_FFFF_FFFFL)

let exponent ~biased ~fraction =
  if biased = 0 then if fraction = 0 then 0 else -1022 else biased - 1023

let rec trailing_zero_digits m n =
  if m land 0xF = 0 then trailing_zero_digits (m lsr 4) (n + 1) else n

let fraction_digits fraction = if fraction = 0 then 0 else 13 - trailing_zero_digits fraction 0

let hex_float f =
  let sign = if negative f then 1 else 0 and biased = biased f and fraction = fraction f in
  if biased = 0x7FF then sign + if fraction = 0 then 8 else 3
  else
    let digits = fraction_digits fraction in
    let point_and_digits = if digits = 0 then 0 else 1 + digits in
    sign + 3 + point_and_digits + 2 + int (abs (exponent ~biased ~fraction))

let hex_digit d = Char.unsafe_chr (if d < 10 then Char.code '0' + d else Char.code 'a' + d - 10)

let write_string buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let write_hex_float buf pos f =
  let biased = biased f and fraction = fraction f in
  let pos = if negative f then write_string buf pos "-" else pos in
  if biased = 0x7FF then write_string buf pos (if fraction = 0 then "infinity" else "nan")
  else begin
    let pos = write_string buf pos (if biased = 0 then "0x0" else "0x1") in
    let digits = fraction_digits fraction in
    let pos =
      if digits = 0 then pos
      else begin
        Bytes.set buf pos '.';
        for i = 0 to digits - 1 do
          Bytes.set buf (pos + 1 + i) (hex_digit ((fraction lsr (48 - (4 * i))) land 0xF))
        done;
        pos + 1 + digits
      end
    in
    let e = exponent ~biased ~fraction in
    write_int buf (write_string buf pos (if e < 0 then "p-" else "p+")) (abs e)
  end
