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

let to_string = function
  | Int n -> string_of_int n
  | Str s -> s
  | Bool b -> string_of_bool b
  | Time f -> Printf.sprintf "t:%g" f
  | Id i -> Ident.to_string i

let pp ppf v = Format.pp_print_string ppf (to_string v)

let type_name = function
  | Int _ -> "int"
  | Str _ -> "str"
  | Bool _ -> "bool"
  | Time _ -> "time"
  | Id _ -> "id"

let encode buf v =
  let add_tagged tag payload =
    Buffer.add_char buf tag;
    Buffer.add_string buf (string_of_int (String.length payload));
    Buffer.add_char buf ':';
    Buffer.add_string buf payload
  in
  match v with
  | Int n -> add_tagged 'i' (string_of_int n)
  | Str s -> add_tagged 's' s
  | Bool b -> add_tagged 'b' (if b then "1" else "0")
  | Time f -> add_tagged 't' (Printf.sprintf "%h" f)
  | Id i -> add_tagged 'd' (Ident.to_string i)

let encoded_length v =
  let tagged payload = 1 + Printed_length.int payload + 1 + payload in
  match v with
  | Int n -> tagged (Printed_length.int n)
  | Str s -> tagged (String.length s)
  | Bool _ -> tagged 1
  | Time f -> tagged (Printed_length.hex_float f)
  | Id i -> tagged (Ident.string_length i)

let of_string s =
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
      match s with
      | "true" -> Bool true
      | "false" -> Bool false
      | _ ->
          if String.length s > 2 && String.sub s 0 2 = "t:" then
            match float_of_string_opt (String.sub s 2 (String.length s - 2)) with
            | Some f -> Time f
            | None -> Str s
          else
            match Ident.of_string s with
            | Some i -> Id i
            | None -> Str s)
