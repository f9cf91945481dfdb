module Ident = Oasis_util.Ident
module Value = Oasis_util.Value

type credentials = {
  rmcs : Oasis_cert.Rmc.t list;
  appointments : Oasis_cert.Appointment.t list;
}

let no_credentials = { rmcs = []; appointments = [] }

type denial =
  | Unknown_role of string
  | Unknown_privilege of string
  | No_proof
  | Bad_credential of Ident.t
  | Challenge_failed
  | Bad_request of string

let denial_to_string = function
  | Unknown_role r -> Printf.sprintf "unknown role %s" r
  | Unknown_privilege p -> Printf.sprintf "unknown privilege %s" p
  | No_proof -> "no activation or authorization rule satisfied"
  | Bad_credential id -> Printf.sprintf "credential %s failed validation" (Ident.to_string id)
  | Challenge_failed -> "challenge-response failed"
  | Bad_request m -> Printf.sprintf "bad request: %s" m


type msg =
  | Activate of {
      principal : Ident.t;
      session_key : string;
      role : string;
      requested : Value.t option list;
      creds : credentials;
    }
  | Activate_ok of { rmc : Oasis_cert.Rmc.t; initial : bool }
  | Invoke of {
      principal : Ident.t;
      session_key : string;
      privilege : string;
      args : Value.t list;
      creds : credentials;
    }
  | Invoke_ok of Value.t option
  | Appoint of {
      principal : Ident.t;
      session_key : string;
      kind : string;
      args : Value.t list;
      holder : Ident.t;
      holder_key : string;
      expires_at : float option;
      creds : credentials;
    }
  | Appoint_ok of Oasis_cert.Appointment.t
  | Deactivate of { cert_id : Ident.t; session_key : string }
  | Deactivate_ok
  | Validate of Oasis_cert.Validation_cache.presented
  | Validate_result of bool
  | Challenge_msg of { challenge : Oasis_crypto.Challenge.challenge; key_hint : string }
  | Challenge_response of string
  | Env_check of { pred : string; args : Value.t list }
  | Env_result of bool
  | Check_cr of { cert_id : Ident.t }
  | Cr_status of { valid : bool }
  | Denied of denial

type event = { epoch : int; revoked : Ident.t list }

let header_bytes = 24 (* addressing, kind tag, request id *)

let creds_size { rmcs; appointments } =
  List.fold_left (fun acc r -> acc + Oasis_cert.Rmc.size_bytes r) 0 rmcs
  + List.fold_left (fun acc a -> acc + Oasis_cert.Appointment.size_bytes a) 0 appointments

let values_size args = List.fold_left (fun acc v -> acc + Value.string_length v + 4) 0 args

let size_of msg =
  header_bytes
  +
  match msg with
  | Activate { session_key; role; requested; creds; _ } ->
      String.length session_key + String.length role
      + (4 * List.length requested)
      + values_size (List.filter_map Fun.id requested)
      + creds_size creds
  | Activate_ok { rmc; _ } -> Oasis_cert.Rmc.size_bytes rmc + 1
  | Invoke { session_key; privilege; args; creds; _ } ->
      String.length session_key + String.length privilege + values_size args + creds_size creds
  | Invoke_ok result -> values_size (Option.to_list result)
  | Appoint { session_key; kind; args; holder_key; creds; _ } ->
      String.length session_key + String.length kind + values_size args
      + String.length holder_key + 8 + creds_size creds
  | Appoint_ok appt -> Oasis_cert.Appointment.size_bytes appt
  | Deactivate { session_key; _ } -> 16 + String.length session_key
  | Deactivate_ok -> 0
  | Validate (Rmc (rmc, principal_key)) ->
      Oasis_cert.Rmc.size_bytes rmc + String.length principal_key
  | Validate (Appointment appt) -> Oasis_cert.Appointment.size_bytes appt
  | Validate_result _ -> 1
  | Challenge_msg { key_hint; _ } -> 16 + 16 + String.length key_hint
  | Challenge_response r -> String.length r
  | Env_check { pred; args } -> String.length pred + values_size args
  | Env_result _ -> 1
  | Check_cr _ -> 16
  | Cr_status _ -> 1
  | Denied d -> String.length (denial_to_string d)
