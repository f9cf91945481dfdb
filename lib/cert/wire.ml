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

(* Every frame is a tag, the payload's decimal length, [:] and the
   payload. *)
let lp_length payload = 1 + Printed_length.int payload + 1 + payload

let values_length vs = List.fold_left (fun acc v -> acc + Value.encoded_length v) 0 vs

let payload_length = function
  | Fident id -> Ident.string_length id
  | Fstring s -> String.length s
  | Fvalue v -> Value.encoded_length v
  | Ffloat f -> Printed_length.hex_float f
  | Fint n -> Printed_length.int n
  | Fvalues vs -> values_length vs

let encoded_length tag fields =
  List.fold_left
    (fun acc field -> acc + lp_length (payload_length field))
    (lp_length (String.length tag))
    fields

let signature_bytes = 32
let size_bytes tag fields = encoded_length tag fields + signature_bytes

(* Writes a frame header; returns where the payload starts. *)
let write_header buf pos tag payload =
  Bytes.set buf pos tag;
  let pos = Printed_length.write_int buf (pos + 1) payload in
  Bytes.set buf pos ':';
  pos + 1

let write_string buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let rec write_field buf pos field =
  let payload = payload_length field in
  match field with
  | Fident id -> Ident.write buf (write_header buf pos 'I' payload) id
  | Fstring s -> write_string buf (write_header buf pos 'S' payload) s
  | Fvalue v -> Value.write buf (write_header buf pos 'V' payload) v
  | Ffloat f -> Printed_length.write_hex_float buf (write_header buf pos 'F' payload) f
  | Fint n -> Printed_length.write_int buf (write_header buf pos 'N' payload) n
  | Fvalues vs -> write_values buf (write_header buf pos 'L' payload) vs

and write_values buf pos = function
  | [] -> pos
  | v :: vs -> write_values buf (Value.write buf pos v) vs

let rec write_fields buf pos = function
  | [] -> pos
  | field :: fields -> write_fields buf (write_field buf pos field) fields

let write buf pos tag fields =
  write_fields buf (write_string buf (write_header buf pos 'T' (String.length tag)) tag) fields

let encode tag fields =
  let buf = Bytes.create (encoded_length tag fields) in
  ignore (write buf 0 tag fields);
  Bytes.unsafe_to_string buf
