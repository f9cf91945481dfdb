module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Secret = Oasis_crypto.Secret
module Hmac = Oasis_crypto.Hmac
module Sha256 = Oasis_crypto.Sha256

type t = {
  id : Ident.t;
  issuer : Ident.t;
  kind : string;
  args : Value.t list;
  holder : string;
  issued_at : float;
  expires_at : float option;
  epoch : int;
  signature : Sha256.digest;
}

let tag = "appt"

let protected_fields t =
  [
    Wire.Fident t.id;
    Wire.Fident t.issuer;
    Wire.Fstring t.kind;
    Wire.Fvalues t.args;
    Wire.Fstring t.holder;
    Wire.Ffloat t.issued_at;
    Wire.Ffloat (match t.expires_at with Some e -> e | None -> Float.infinity);
    Wire.Fint t.epoch;
  ]

let signing_bytes t = Wire.encode tag (protected_fields t)

(* The tag is keyed with the secret of the certificate's epoch. *)
let key ~master_secret t = Secret.to_key (Secret.rotate master_secret ~epoch:t.epoch)

let issue ~master_secret ~epoch ~id ~issuer ~kind ~args ~holder ~issued_at ?expires_at () =
  let unsigned =
    { id; issuer; kind; args; holder; issued_at; expires_at; epoch; signature = Sha256.zero }
  in
  { unsigned with signature = Hmac.mac ~key:(key ~master_secret unsigned) (signing_bytes unsigned) }

let of_parts ~id ~issuer ~kind ~args ~holder ~issued_at ~expires_at ~epoch ~signature =
  { id; issuer; kind; args; holder; issued_at; expires_at; epoch; signature }

let expired ~now t = match t.expires_at with Some e -> now >= e | None -> false

let verify ~master_secret ~current_epoch ~now t =
  t.epoch = current_epoch
  && (not (expired ~now t))
  && Hmac.verify ~key:(key ~master_secret t) (signing_bytes t) t.signature

let identical a b =
  a == b
  || Ident.equal a.id b.id
     && Ident.equal a.issuer b.issuer
     && String.equal a.kind b.kind
     && List.equal Value.identical a.args b.args
     && String.equal a.holder b.holder
     && Value.same_float a.issued_at b.issued_at
     && Option.equal Value.same_float a.expires_at b.expires_at
     && a.epoch = b.epoch
     && Sha256.equal_ct a.signature b.signature

let with_holder t holder = { t with holder }

let with_args t args = { t with args }

let size_bytes t = Wire.size_bytes tag (protected_fields t)

let pp ppf t =
  Format.fprintf ppf "APPT[%a %s(%a) holder=%s by %a%s]" Ident.pp t.id t.kind
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
    t.args t.holder Ident.pp t.issuer
    (match t.expires_at with Some e -> Printf.sprintf " exp=%g" e | None -> "")
