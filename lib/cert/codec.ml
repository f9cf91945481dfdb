module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Sha256 = Oasis_crypto.Sha256

type error = { offset : int; reason : string }

let pp_error ppf { offset; reason } =
  Format.fprintf ppf "certificate decode error at byte %d: %s" offset reason

exception Decode of error

let fail offset reason = raise (Decode { offset; reason })

(* ------------------------------------------------------------------ *)
(* Reader for the tag-length-value stream produced by {!Wire}.        *)
(* ------------------------------------------------------------------ *)

type reader = { src : string; mutable pos : int }

let read_tlv r =
  let n = String.length r.src in
  if r.pos >= n then fail r.pos "unexpected end of input";
  let tag = r.src.[r.pos] in
  let len_start = r.pos + 1 in
  let colon = ref len_start in
  while !colon < n && r.src.[!colon] <> ':' do
    incr colon
  done;
  if !colon >= n then fail r.pos "missing length separator";
  let len =
    (* Strict canonical decimal: digits only, no leading zeros. Anything
       [int_of_string_opt] would also admit ("0x10", "+5", "1_0", "010")
       gives one certificate several encodings, which a signature over the
       canonical bytes must not allow. *)
    let s = String.sub r.src len_start (!colon - len_start) in
    let canonical =
      String.length s > 0
      && String.for_all (fun c -> c >= '0' && c <= '9') s
      && (String.length s = 1 || s.[0] <> '0')
    in
    if not canonical then fail len_start "malformed length"
    else
      match int_of_string_opt s with
      | Some l -> l
      | None -> fail len_start "length out of range"
  in
  if !colon + 1 + len > n then fail !colon "payload truncated";
  let payload = String.sub r.src (!colon + 1) len in
  r.pos <- !colon + 1 + len;
  (tag, payload)

let expect_tag r want =
  let at = r.pos in
  let tag, payload = read_tlv r in
  if tag <> want then fail at (Printf.sprintf "expected field %C, found %C" want tag);
  payload

(* Every field decoder below enforces canonicity by re-encoding: a payload
   is accepted only if it is byte-identical to how the encoder would write
   the decoded value. decode ∘ encode is then the identity, and any
   non-canonical re-encoding of a signed certificate is rejected before the
   signature is even checked. *)

let decode_ident at s =
  match Ident.of_string s with
  | Some id when String.equal (Ident.to_string id) s -> id
  | Some _ | None -> fail at (Printf.sprintf "malformed identifier %S" s)

let decode_float at s =
  match float_of_string_opt s with
  | Some f when Float.is_nan f -> fail at "NaN is not a valid certificate timestamp"
  | Some f when String.equal (Printf.sprintf "%h" f) s -> f
  | Some _ | None -> fail at (Printf.sprintf "malformed float %S" s)

let decode_int at s =
  match int_of_string_opt s with
  | Some n when String.equal (string_of_int n) s -> n
  | Some _ | None -> fail at (Printf.sprintf "malformed int %S" s)

(* Values were written by {!Oasis_util.Value.write}: a nested TLV stream. *)
let decode_values at payload =
  let r = { src = payload; pos = 0 } in
  let values = ref [] in
  while r.pos < String.length payload do
    let tag, body = read_tlv r in
    let value =
      match tag with
      | 'i' -> Value.Int (decode_int at body)
      | 's' -> Value.Str body
      | 'b' -> (
          match body with
          | "1" -> Value.Bool true
          | "0" -> Value.Bool false
          | _ -> fail at (Printf.sprintf "malformed bool %S" body))
      | 't' -> Value.Time (decode_float at body)
      | 'd' -> Value.Id (decode_ident at body)
      | c -> fail at (Printf.sprintf "unknown value tag %C" c)
    in
    values := value :: !values
  done;
  List.rev !values

let decode_signature at s =
  match Sha256.of_raw_string s with
  | Some d -> d
  | None -> fail at "signature must be 32 bytes"

(* ------------------------------------------------------------------ *)
(* RMC                                                                *)
(* ------------------------------------------------------------------ *)

let rmc_to_string (rmc : Rmc.t) =
  Wire.encode "rmc"
    [
      Wire.Fident rmc.id;
      Wire.Fident rmc.issuer;
      Wire.Fstring rmc.role;
      Wire.Fvalues rmc.args;
      Wire.Ffloat rmc.issued_at;
      Wire.Fstring (Sha256.to_raw_string rmc.signature);
    ]

let run_decoder f s =
  match f { src = s; pos = 0 } with
  | v -> Ok v
  | exception Decode e -> Error e

let decode_header r want =
  let at = r.pos in
  let kind = expect_tag r 'T' in
  if kind <> want then fail at (Printf.sprintf "expected a %s certificate, found %S" want kind)

let rmc_of_string s =
  run_decoder
    (fun r ->
      decode_header r "rmc";
      let id = decode_ident r.pos (expect_tag r 'I') in
      let issuer = decode_ident r.pos (expect_tag r 'I') in
      let role = expect_tag r 'S' in
      let args = decode_values r.pos (expect_tag r 'L') in
      let issued_at = decode_float r.pos (expect_tag r 'F') in
      let signature = decode_signature r.pos (expect_tag r 'S') in
      if r.pos <> String.length s then fail r.pos "trailing bytes after certificate";
      Rmc.of_parts ~id ~issuer ~role ~args ~issued_at ~signature)
    s

(* ------------------------------------------------------------------ *)
(* Appointment                                                        *)
(* ------------------------------------------------------------------ *)

let appointment_to_string (appt : Appointment.t) =
  Wire.encode "appt"
    [
      Wire.Fident appt.id;
      Wire.Fident appt.issuer;
      Wire.Fstring appt.kind;
      Wire.Fvalues appt.args;
      Wire.Fstring appt.holder;
      Wire.Ffloat appt.issued_at;
      Wire.Ffloat (match appt.expires_at with Some e -> e | None -> Float.infinity);
      Wire.Fint appt.epoch;
      Wire.Fstring (Sha256.to_raw_string appt.signature);
    ]

let appointment_of_string s =
  run_decoder
    (fun r ->
      decode_header r "appt";
      let id = decode_ident r.pos (expect_tag r 'I') in
      let issuer = decode_ident r.pos (expect_tag r 'I') in
      let kind = expect_tag r 'S' in
      let args = decode_values r.pos (expect_tag r 'L') in
      let holder = expect_tag r 'S' in
      let issued_at = decode_float r.pos (expect_tag r 'F') in
      let expiry_raw = decode_float r.pos (expect_tag r 'F') in
      (* Only +infinity (the encoder's spelling of None) means "never
         expires"; NaN is already rejected in [decode_float], and
         −infinity stays [Some] — a certificate expired since forever,
         not one that never expires. *)
      let expires_at = if expiry_raw = Float.infinity then None else Some expiry_raw in
      let epoch = decode_int r.pos (expect_tag r 'N') in
      let signature = decode_signature r.pos (expect_tag r 'S') in
      if r.pos <> String.length s then fail r.pos "trailing bytes after certificate";
      Appointment.of_parts ~id ~issuer ~kind ~args ~holder ~issued_at ~expires_at ~epoch ~signature)
    s
