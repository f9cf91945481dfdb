let digits = "0123456789abcdef"

let write src src_pos len dst dst_pos =
  if src_pos < 0 || len < 0 || src_pos + len > Bytes.length src || dst_pos < 0
     || dst_pos + (2 * len) > Bytes.length dst
  then invalid_arg "Hex.write";
  for i = 0 to len - 1 do
    let c = Char.code (Bytes.unsafe_get src (src_pos + i)) in
    Bytes.unsafe_set dst (dst_pos + (2 * i)) (String.unsafe_get digits (c lsr 4));
    Bytes.unsafe_set dst (dst_pos + (2 * i) + 1) (String.unsafe_get digits (c land 15))
  done;
  dst_pos + (2 * len)

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  ignore (write (Bytes.unsafe_of_string s) 0 n out 0);
  Bytes.unsafe_to_string out

(* -1 marks a character outside the lowercase alphabet. *)
let digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | _ -> -1

let decode s =
  let n = String.length s in
  if n land 1 <> 0 then None
  else
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i = n / 2 then Some (Bytes.unsafe_to_string out)
      else
        let hi = digit (String.unsafe_get s (2 * i))
        and lo = digit (String.unsafe_get s ((2 * i) + 1)) in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0
