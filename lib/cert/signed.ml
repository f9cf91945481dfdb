module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Sha256 = Oasis_crypto.Sha256
module Schnorr = Oasis_crypto.Schnorr
module Elgamal = Oasis_crypto.Elgamal

(* A per-service issuing key, certified by the domain root. The signature
   covers the canonical wire encoding of the other fields, so a key
   certificate has exactly one byte representation, like every other
   certificate in lib/cert. *)
type key_cert = {
  subject : Ident.t;
  subject_pk : Elgamal.public;
  key_epoch : int;
  issued_at : float;
  ksig : Schnorr.signature;
}

let key_cert_bytes kc =
  Wire.encode "keycert"
    [
      Wire.Fident kc.subject;
      Wire.Fstring (Elgamal.public_to_string kc.subject_pk);
      Wire.Fint kc.key_epoch;
      Wire.Ffloat kc.issued_at;
    ]

(* What one successful [verify_chain] vouched for. The chain value is
   immutable apart from this cell, and a record copy shares the cell, so
   the memo names the exact root key, key certificate and address it
   checked: a copy with another [cert] or [root_pk] misses it. *)
type vouched = { v_address : string; v_root_pk : Elgamal.public; v_cert : key_cert }

type memo = { mutable vouched : vouched option }

type chain = { root_pk : Elgamal.public; cert : key_cert; memo : memo }

let address_of_public pk =
  Sha256.to_hex (Sha256.digest_string ("oasis-root\x00" ^ Elgamal.public_to_string pk))

type authority = {
  rng : Rng.t;
  root : Schnorr.keypair;
  chains : chain Ident.Tbl.t;
}

let create_authority rng = { rng; root = Schnorr.generate rng; chains = Ident.Tbl.create 16 }

let address a = address_of_public a.root.Schnorr.public

let rng a = a.rng

let generate_keypair a = Schnorr.generate a.rng

let null_sig = { Schnorr.e = 0L; s = 0L }

let enrol a ~subject ~subject_pk ~key_epoch ~now =
  let unsigned = { subject; subject_pk; key_epoch; issued_at = now; ksig = null_sig } in
  let ksig = Schnorr.sign ~secret:a.root.Schnorr.secret a.rng (key_cert_bytes unsigned) in
  let chain =
    { root_pk = a.root.Schnorr.public; cert = { unsigned with ksig }; memo = { vouched = None } }
  in
  Ident.Tbl.replace a.chains subject chain;
  chain

let chain_for a subject = Ident.Tbl.find_opt a.chains subject

let revoke_chain a subject = Ident.Tbl.remove a.chains subject

(* Only a success is remembered, so a failure costs the full check every
   time and can never be served from the memo. *)
let verify_chain ~address:addr chain =
  match chain.memo.vouched with
  | Some v
    when v.v_cert == chain.cert
         && Int64.equal v.v_root_pk chain.root_pk
         && String.equal v.v_address addr ->
      true
  | Some _ | None ->
      let ok =
        String.equal (address_of_public chain.root_pk) addr
        && Schnorr.verify ~public:chain.root_pk (key_cert_bytes chain.cert) chain.cert.ksig
      in
      if ok then
        chain.memo.vouched <- Some { v_address = addr; v_root_pk = chain.root_pk; v_cert = chain.cert };
      ok

(* ------------------------------------------------------------------ *)
(* Offline-verifiable certificates                                    *)
(* ------------------------------------------------------------------ *)

let issue_rmc ~keypair ~rng ~principal_key ~id ~issuer ~role ~args ~issued_at =
  let unsigned =
    Rmc.of_parts ~id ~issuer ~role ~args ~issued_at ~signature:(Schnorr.to_digest null_sig)
  in
  let sg =
    Schnorr.sign ~secret:keypair.Schnorr.secret rng (Rmc.signing_bytes ~principal_key unsigned)
  in
  Rmc.of_parts ~id ~issuer ~role ~args ~issued_at ~signature:(Schnorr.to_digest sg)

let verify_rmc ?(signature_seen = false) ~address:addr ~chain ~principal_key (rmc : Rmc.t) =
  verify_chain ~address:addr chain
  && Ident.equal rmc.issuer chain.cert.subject
  (* [signature_seen]: the caller vouches that this exact certificate
     already passed this step under [chain.cert] (Validation_cache). *)
  && (signature_seen
     ||
     match Schnorr.of_digest rmc.signature with
     | Some sg ->
         Schnorr.verify ~public:chain.cert.subject_pk (Rmc.signing_bytes ~principal_key rmc) sg
     | None -> false)

let issue_appointment ~keypair ~rng ~epoch ~id ~issuer ~kind ~args ~holder ~issued_at ?expires_at
    () =
  let parts signature =
    Appointment.of_parts ~id ~issuer ~kind ~args ~holder ~issued_at ~expires_at ~epoch ~signature
  in
  let unsigned = parts (Schnorr.to_digest null_sig) in
  let sg = Schnorr.sign ~secret:keypair.Schnorr.secret rng (Appointment.signing_bytes unsigned) in
  parts (Schnorr.to_digest sg)

let verify_appointment ?(signature_seen = false) ~address:addr ~chain ~now (appt : Appointment.t)
    =
  verify_chain ~address:addr chain
  && Ident.equal appt.issuer chain.cert.subject
  (* The key certificate pins the issuer's current epoch: after a secret
     rotation the root re-certifies the key under the new epoch, and
     certificates of older epochs must be re-issued — the same semantics
     the epoch-HMAC scheme enforces with [current_epoch]. *)
  && appt.epoch = chain.cert.key_epoch
  && (not (Appointment.expired ~now appt))
  && (signature_seen
     ||
     match Schnorr.of_digest appt.signature with
     | Some sg -> Schnorr.verify ~public:chain.cert.subject_pk (Appointment.signing_bytes appt) sg
     | None -> false)
