module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Printed_length = Oasis_util.Printed_length

type field =
  | Fident : Ident.t -> field
  | Fstring : string -> field
  | Fvalue : Value.t -> field
  | Ffloat : float -> field
  | Fint : int -> field
  | Fvalues : Value.t list -> field

let add_lp buf tag payload =
  Buffer.add_char buf tag;
  Buffer.add_string buf (string_of_int (String.length payload));
  Buffer.add_char buf ':';
  Buffer.add_string buf payload

let add_field buf = function
  | Fident id -> add_lp buf 'I' (Ident.to_string id)
  | Fstring s -> add_lp buf 'S' s
  | Fvalue v ->
      let b = Buffer.create 16 in
      Value.encode b v;
      add_lp buf 'V' (Buffer.contents b)
  | Ffloat f -> add_lp buf 'F' (Printf.sprintf "%h" f)
  | Fint n -> add_lp buf 'N' (string_of_int n)
  | Fvalues vs ->
      let b = Buffer.create 32 in
      List.iter (Value.encode b) vs;
      add_lp buf 'L' (Buffer.contents b)

let encode tag fields =
  let buf = Buffer.create 128 in
  add_lp buf 'T' tag;
  List.iter (add_field buf) fields;
  Buffer.contents buf

let signature_bytes = 32

(* The length of [encode tag fields], field by field, without building it. *)
let lp_length payload = 1 + Printed_length.int payload + 1 + payload

let field_length = function
  | Fident id -> lp_length (Ident.string_length id)
  | Fstring s -> lp_length (String.length s)
  | Fvalue v -> lp_length (Value.encoded_length v)
  | Ffloat f -> lp_length (Printed_length.hex_float f)
  | Fint n -> lp_length (Printed_length.int n)
  | Fvalues vs -> lp_length (List.fold_left (fun acc v -> acc + Value.encoded_length v) 0 vs)

let size_bytes tag fields =
  List.fold_left
    (fun acc field -> acc + field_length field)
    (lp_length (String.length tag) + signature_bytes)
    fields
