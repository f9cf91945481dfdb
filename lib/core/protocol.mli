(** Wire protocol between OASIS nodes.

    One message type covers the four paths of Fig. 2 (role entry 1–2 and
    service use 3–4), validation callbacks, appointment issuance, explicit
    deactivation, and the challenge–response sub-protocol of Sect. 4.1.
    Event-channel traffic (Fig. 5) uses the separate {!event} type carried
    by the broker. *)

type credentials = {
  rmcs : Oasis_cert.Rmc.t list;
  appointments : Oasis_cert.Appointment.t list;
}

val no_credentials : credentials

(** Why a request was refused. The service deliberately reports coarse
    reasons to clients (fine-grained refusal reasons leak policy); the
    per-service statistics record the detail. *)
type denial =
  | Unknown_role of string
  | Unknown_privilege of string
  | No_proof  (** no activation/authorization rule could be satisfied *)
  | Bad_credential of Oasis_util.Ident.t  (** failed validation: forged, revoked, expired or stolen *)
  | Challenge_failed
  | Bad_request of string

val denial_to_string : denial -> string

type msg =
  (* Path 1: role entry request. [session_key] is the session-specific
     principal id bound into the RMC signature (Sect. 4.1). [requested]
     optionally pins head parameters positionally. *)
  | Activate of {
      principal : Oasis_util.Ident.t;
      session_key : string;
      role : string;
      requested : Oasis_util.Value.t option list;
      creds : credentials;
    }
  (* Path 2: the RMC, with whether the role is an initial (session-root) role. *)
  | Activate_ok of { rmc : Oasis_cert.Rmc.t; initial : bool }
  (* Path 3: service invocation. *)
  | Invoke of {
      principal : Oasis_util.Ident.t;
      session_key : string;
      privilege : string;
      args : Oasis_util.Value.t list;
      creds : credentials;
    }
  (* Path 4: result of the invocation's operation (if any is registered). *)
  | Invoke_ok of Oasis_util.Value.t option
  (* Appointment issuance: the appointer asks the service to certify
     [holder]. The appointer's own credentials must satisfy the service's
     appointer policy for [kind]. *)
  | Appoint of {
      principal : Oasis_util.Ident.t;
      session_key : string;
      kind : string;
      args : Oasis_util.Value.t list;
      holder : Oasis_util.Ident.t;
      holder_key : string;
      expires_at : float option;
      creds : credentials;
    }
  | Appoint_ok of Oasis_cert.Appointment.t
  (* Voluntary role deactivation / logout; must prove the session binding. *)
  | Deactivate of { cert_id : Oasis_util.Ident.t; session_key : string }
  | Deactivate_ok
  (* Validation callbacks to the issuer (Sect. 4): the full certificate is
     presented; only the issuer can check the signature (it holds SECRET). *)
  | Validate_rmc of { rmc : Oasis_cert.Rmc.t; principal_key : string }
  | Validate_appt of { appt : Oasis_cert.Appointment.t }
  | Validate_result of bool
  (* Challenge–response against a claimed public key; [key_hint] tells the
     responder which of its keys is being challenged. *)
  | Challenge_msg of { challenge : Oasis_crypto.Challenge.challenge; key_hint : string }
  | Challenge_response of string
  (* Remote environmental lookup: "the user is a member of a group; this may
     be ascertained by database lookup at some service" (Sect. 2). *)
  | Env_check of { pred : string; args : Oasis_util.Value.t list }
  | Env_result of bool
  (* Anti-entropy reconciliation: after a partition heals or a node
     restarts, a dependent service asks the issuer point-blank whether a
     credential record is still valid. Cheaper than a full validation
     callback — the dependent already holds the certificate; only the
     issuer's current record state is in question. *)
  | Check_cr of { cert_id : Oasis_util.Ident.t }
  | Cr_status of { valid : bool }
  | Denied of denial

val size_of : msg -> int
(** Estimated wire size in bytes: certificates at their exact {!Oasis_cert}
    encodings, other fields at representative sizes. Feeds the network's
    byte counters. *)

(** The event-channel payload (Fig. 5): a beat on an issuer's own channel
    ({!Issuer_records.beat_topic}), which names the issuer. The issuer is
    alive and names what it revoked. [epoch] numbers its beats (under
    heartbeats, since it last started); [revoked] lists the records it
    revoked since the previous beat, oldest first. Under change events
    each revocation is a beat of its own, and a beat may be re-sent. *)
type event = { epoch : int; revoked : Oasis_util.Ident.t list }
