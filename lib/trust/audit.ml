module Ident = Oasis_util.Ident
module Wire = Oasis_cert.Wire
module Hmac = Oasis_crypto.Hmac
module Secret = Oasis_crypto.Secret
module Sha256 = Oasis_crypto.Sha256

type outcome = Fulfilled | Breached

type t = {
  id : Ident.t;
  registrar : Ident.t;
  client : Ident.t;
  server : Ident.t;
  at : float;
  client_outcome : outcome;
  server_outcome : outcome;
  signature : Sha256.digest;
}

let outcome_tag = function Fulfilled -> 1 | Breached -> 0

let fields t =
  [
    Wire.Fident t.id;
    Wire.Fident t.registrar;
    Wire.Fident t.client;
    Wire.Fident t.server;
    Wire.Ffloat t.at;
    Wire.Fint (outcome_tag t.client_outcome);
    Wire.Fint (outcome_tag t.server_outcome);
  ]

let signing_bytes t = Wire.encode "audit" (fields t)

let issue ~secret ~id ~registrar ~client ~server ~at ~client_outcome ~server_outcome =
  let unsigned =
    {
      id;
      registrar;
      client;
      server;
      at;
      client_outcome;
      server_outcome;
      signature = Sha256.zero;
    }
  in
  { unsigned with signature = Hmac.mac ~key:(Secret.to_key secret) (signing_bytes unsigned) }

let verify ~secret t = Hmac.verify ~key:(Secret.to_key secret) (signing_bytes t) t.signature

let outcome_for t party =
  if Ident.equal t.client party then Some t.client_outcome
  else if Ident.equal t.server party then Some t.server_outcome
  else None

let involves t party = Ident.equal t.client party || Ident.equal t.server party

let with_server_outcome t server_outcome = { t with server_outcome }
