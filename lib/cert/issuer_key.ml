module Ident = Oasis_util.Ident
module Secret = Oasis_crypto.Secret
module Schnorr = Oasis_crypto.Schnorr

type t = {
  authority : Signed.authority;
  subject : Ident.t;
  secret : Secret.t;
  keypair : Schnorr.keypair option; (* present iff enrolled with the domain root *)
  mutable epoch : int;
}

let enrol t ~now =
  match t.keypair with
  | Some kp ->
      ignore
        (Signed.enrol t.authority ~subject:t.subject ~subject_pk:kp.Schnorr.public
           ~key_epoch:t.epoch ~now)
  | None -> ()

let create authority ~rng ~subject ~offline_sign ~now =
  let secret = Secret.generate rng in
  let keypair = if offline_sign then Some (Signed.generate_keypair authority) else None in
  let t = { authority; subject; secret; keypair; epoch = 0 } in
  enrol t ~now;
  t

let subject t = t.subject
let epoch t = t.epoch

let issue_rmc t ~principal_key ~id ~role ~args ~issued_at =
  match t.keypair with
  | Some keypair ->
      Signed.issue_rmc ~keypair ~rng:(Signed.rng t.authority) ~principal_key ~id
        ~issuer:t.subject ~role ~args ~issued_at
  | None -> Rmc.issue ~secret:t.secret ~principal_key ~id ~issuer:t.subject ~role ~args ~issued_at

let issue_appointment t ~id ~kind ~args ~holder ~issued_at ?expires_at () =
  match t.keypair with
  | Some keypair ->
      Signed.issue_appointment ~keypair ~rng:(Signed.rng t.authority) ~epoch:t.epoch ~id
        ~issuer:t.subject ~kind ~args ~holder ~issued_at ?expires_at ()
  | None ->
      Appointment.issue ~master_secret:t.secret ~epoch:t.epoch ~id ~issuer:t.subject ~kind ~args
        ~holder ~issued_at ?expires_at ()

let rotate t ~now =
  t.epoch <- t.epoch + 1;
  enrol t ~now

let withdraw t = Signed.revoke_chain t.authority t.subject
