module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Secret = Oasis_crypto.Secret
module Hmac = Oasis_crypto.Hmac
module Sha256 = Oasis_crypto.Sha256

type t = {
  id : Ident.t;
  issuer : Ident.t;
  role : string;
  args : Value.t list;
  issued_at : float;
  signature : Sha256.digest;
}

let tag = "rmc"

let protected_fields ~principal_key t =
  [
    Wire.Fstring principal_key;
    Wire.Fident t.id;
    Wire.Fident t.issuer;
    Wire.Fstring t.role;
    Wire.Fvalues t.args;
    Wire.Ffloat t.issued_at;
  ]

let signing_bytes ~principal_key t = Wire.encode tag (protected_fields ~principal_key t)

let issue ~secret ~principal_key ~id ~issuer ~role ~args ~issued_at =
  let unsigned = { id; issuer; role; args; issued_at; signature = Sha256.zero } in
  let signature = Hmac.mac ~key:(Secret.to_key secret) (signing_bytes ~principal_key unsigned) in
  { unsigned with signature }

let verify ~secret ~principal_key t =
  Hmac.verify ~key:(Secret.to_key secret) (signing_bytes ~principal_key t) t.signature

let of_parts ~id ~issuer ~role ~args ~issued_at ~signature =
  { id; issuer; role; args; issued_at; signature }

let identical a b =
  a == b
  || Ident.equal a.id b.id
     && Ident.equal a.issuer b.issuer
     && String.equal a.role b.role
     && List.equal Value.identical a.args b.args
     && Value.same_float a.issued_at b.issued_at
     && Sha256.equal_ct a.signature b.signature

let with_args t args = { t with args }


let size_bytes t =
  (* The principal key is not carried in the certificate. *)
  Wire.size_bytes tag
    [
      Wire.Fident t.id;
      Wire.Fident t.issuer;
      Wire.Fstring t.role;
      Wire.Fvalues t.args;
      Wire.Ffloat t.issued_at;
    ]

let pp ppf t =
  Format.fprintf ppf "RMC[%a %s(%a) by %a]" Ident.pp t.id t.role
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
    t.args Ident.pp t.issuer
