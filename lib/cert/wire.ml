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

type error = { offset : int; reason : string }

exception Malformed of error

let fail offset reason = raise (Malformed { offset; reason })

(* Every piece is accepted only in the spelling the encoder writes back:
   decode ∘ encode is the identity, and every decodable string re-encodes
   to itself. *)
let canonical what parse print at s =
  match parse s with
  | Some v when String.equal (print v) s -> v
  | Some _ | None -> fail at (Printf.sprintf "malformed %s %S" what s)

let decode_int = canonical "int" int_of_string_opt string_of_int
let decode_float = canonical "float" float_of_string_opt (Printf.sprintf "%h")

(* [tag#n], split at the last [#]: any tag, any number. *)
let decode_ident =
  let parse s =
    match String.rindex_opt s '#' with
    | Some i ->
        let n = int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) in
        Option.map (Ident.make (String.sub s 0 i)) n
    | None -> None
  in
  canonical "identifier" parse Ident.to_string

(* The frame at [pos], which must end by [stop]: its tag, where its
   payload starts and the payload's length. *)
let read_frame src pos stop =
  if pos >= stop then fail pos "unexpected end of input";
  match String.index_from_opt src (pos + 1) ':' with
  | Some colon when colon < stop ->
      let len = canonical "length" int_of_string_opt string_of_int (pos + 1)
          (String.sub src (pos + 1) (colon - pos - 1)) in
      if len < 0 || len > stop - colon - 1 then fail colon "payload truncated";
      (src.[pos], colon + 1, len)
  | Some _ | None -> fail pos "missing length separator"

(* The frames in [pos .. stop - 1], each decoded by [f tag start len]. *)
let rec frames src pos stop f acc =
  if pos = stop then List.rev acc
  else
    let tag, start, len = read_frame src pos stop in
    frames src (start + len) stop f (f tag start len :: acc)

let decode_value src tag at len =
  match (tag, String.sub src at len) with
  | 'i', body -> Value.Int (decode_int at body)
  | 's', body -> Value.Str body
  | 'b', ("0" | "1" as body) -> Value.Bool (body = "1")
  | 't', body -> Value.Time (decode_float at body)
  | 'd', body -> Value.Id (decode_ident at body)
  | c, body -> fail at (Printf.sprintf "malformed value %C %S" c body)

let decode_field src tag at len =
  let body () = String.sub src at len in
  let values () = frames src at (at + len) (decode_value src) [] in
  match tag with
  | 'I' -> Fident (decode_ident at (body ()))
  | 'S' -> Fstring (body ())
  | 'V' -> ( match values () with [ v ] -> Fvalue v | _ -> fail at "not exactly one value")
  | 'F' -> Ffloat (decode_float at (body ()))
  | 'N' -> Fint (decode_int at (body ()))
  | 'L' -> Fvalues (values ())
  | c -> fail at (Printf.sprintf "unknown field tag %C" c)

let decode s =
  let stop = String.length s in
  match
    let tag, start, len = read_frame s 0 stop in
    if tag <> 'T' then fail 0 "expected a tag frame";
    (String.sub s start len, frames s (start + len) stop (decode_field s) [])
  with
  | decoded -> Ok decoded
  | exception Malformed e -> Error e
