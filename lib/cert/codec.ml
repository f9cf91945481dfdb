module Value = Oasis_util.Value
module Sha256 = Oasis_crypto.Sha256

type error = Wire.error = { offset : int; reason : string }

let pp_error ppf { offset; reason } =
  Format.fprintf ppf "certificate decode error at byte %d: %s" offset reason

type cert = Rmc of Rmc.t | Appointment of Appointment.t

(* [Wire.decode] does the framing and canonicity; what is left is the
   certificate's shape. A field-level failure has no byte offset of its
   own, so it reports the certificate's start. *)
let reject reason = Error { offset = 0; reason }

(* [Wire] carries any float and any string; a certificate's timestamps
   must be numbers and its signature 32 bytes. *)
let checked ~timestamps ~args raw k =
  let nan = function Value.Time f -> Float.is_nan f | _ -> false in
  match Sha256.of_raw_string raw with
  | _ when List.exists Float.is_nan timestamps || List.exists nan args ->
      reject "NaN is not a valid certificate timestamp"
  | None -> reject "signature must be 32 bytes"
  | Some signature -> Ok (k signature)

(* ------------------------------------------------------------------ *)
(* RMC                                                                *)
(* ------------------------------------------------------------------ *)

let rmc_bytes (rmc : Rmc.t) =
  Wire.encode "rmc"
    [
      Wire.Fident rmc.id;
      Wire.Fident rmc.issuer;
      Wire.Fstring rmc.role;
      Wire.Fvalues rmc.args;
      Wire.Ffloat rmc.issued_at;
      Wire.Fstring (Sha256.to_raw_string rmc.signature);
    ]

let rmc_of_fields = function
  | Wire.[ Fident id; Fident issuer; Fstring role; Fvalues args; Ffloat issued_at; Fstring raw ] ->
      checked ~timestamps:[ issued_at ] ~args raw (fun signature ->
          Rmc (Rmc.of_parts ~id ~issuer ~role ~args ~issued_at ~signature))
  | _ -> reject "malformed rmc fields"

(* ------------------------------------------------------------------ *)
(* Appointment                                                        *)
(* ------------------------------------------------------------------ *)

let appointment_bytes (appt : Appointment.t) =
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

let appointment_of_fields = function
  | Wire.
      [
        Fident id; Fident issuer; Fstring kind; Fvalues args; Fstring holder; Ffloat issued_at;
        Ffloat expiry; Fint epoch; Fstring raw;
      ] ->
      checked ~timestamps:[ issued_at; expiry ] ~args raw (fun signature ->
          (* Only +infinity (the encoder's spelling of None) means "never
             expires"; −infinity stays [Some] — a certificate expired since
             forever, not one that never expires. *)
          let expires_at = if expiry = Float.infinity then None else Some expiry in
          Appointment
            (Appointment.of_parts ~id ~issuer ~kind ~args ~holder ~issued_at ~expires_at ~epoch
               ~signature))
  | _ -> reject "malformed appt fields"

(* ------------------------------------------------------------------ *)
(* Either kind, told apart by the Wire kind tag                       *)
(* ------------------------------------------------------------------ *)

let to_string = function Rmc rmc -> rmc_bytes rmc | Appointment appt -> appointment_bytes appt

let of_string s =
  match Wire.decode s with
  | Error e -> Error e
  | Ok ("rmc", fields) -> rmc_of_fields fields
  | Ok ("appt", fields) -> appointment_of_fields fields
  | Ok (found, _) -> reject (Printf.sprintf "not a certificate kind: %S" found)
