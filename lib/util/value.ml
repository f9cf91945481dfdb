type t =
  | Int of int
  | Str of string
  | Bool of bool
  | Time of float
  | Id of Ident.t

let type_rank = function
  | Int _ -> 0
  | Str _ -> 1
  | Bool _ -> 2
  | Time _ -> 3
  | Id _ -> 4

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Time x, Time y -> Float.compare x y
  | Id x, Id y -> Ident.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let same_float x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let identical a b =
  match (a, b) with Time x, Time y -> same_float x y | _ -> equal a b

let to_string = function
  | Int n -> string_of_int n
  | Str s -> s
  | Bool b -> string_of_bool b
  | Time f -> Printf.sprintf "t:%g" f
  | Id i -> Ident.to_string i

let string_length = function
  | Int n -> Printed_length.int n
  | Str s -> String.length s
  | Bool b -> if b then 4 else 5
  | Time _ as v -> String.length (to_string v) (* "%g" has no length function *)
  | Id i -> Ident.string_length i

let pp ppf v = Format.pp_print_string ppf (to_string v)

let encoded_length v =
  let tagged payload = 1 + Printed_length.int payload + 1 + payload in
  match v with
  | Int n -> tagged (Printed_length.int n)
  | Str s -> tagged (String.length s)
  | Bool _ -> tagged 1
  | Time f -> tagged (Printed_length.hex_float f)
  | Id i -> tagged (Ident.string_length i)

(* The tag, the payload's decimal length and a [:]; returns where the
   payload starts. *)
let write_header buf pos tag payload =
  Bytes.set buf pos tag;
  let pos = Printed_length.write_int buf (pos + 1) payload in
  Bytes.set buf pos ':';
  pos + 1

let write buf pos v =
  match v with
  | Int n -> Printed_length.write_int buf (write_header buf pos 'i' (Printed_length.int n)) n
  | Str s ->
      let pos = write_header buf pos 's' (String.length s) in
      Bytes.blit_string s 0 buf pos (String.length s);
      pos + String.length s
  | Bool b ->
      let pos = write_header buf pos 'b' 1 in
      Bytes.set buf pos (if b then '1' else '0');
      pos + 1
  | Time f ->
      Printed_length.write_hex_float buf (write_header buf pos 't' (Printed_length.hex_float f)) f
  | Id i -> Ident.write buf (write_header buf pos 'd' (Ident.string_length i)) i
