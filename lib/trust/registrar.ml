module Ident = Oasis_util.Ident
module Rng = Oasis_util.Rng
module Secret = Oasis_crypto.Secret

type t = {
  rid : Ident.t;
  honest : bool;
  secret : Secret.t;
  cert_gen : Ident.gen;
  issued : Audit.t Ident.Tbl.t;
  repudiated : unit Ident.Tbl.t;
}

let create rng ~name ?(honest = true) () =
  {
    rid = Ident.make ("registrar-" ^ name) 0;
    honest;
    secret = Secret.generate rng;
    cert_gen = Ident.generator ("audit-" ^ name);
    issued = Ident.Tbl.create 256;
    repudiated = Ident.Tbl.create 16;
  }

let id t = t.rid

let issue_cert t ~client ~server ~at ~client_outcome ~server_outcome =
  let cert_id = Ident.fresh t.cert_gen in
  let cert =
    Audit.issue ~secret:t.secret ~id:cert_id ~registrar:t.rid ~client ~server ~at ~client_outcome
      ~server_outcome
  in
  Ident.Tbl.replace t.issued cert_id cert;
  cert

let record_interaction t ~client ~server ~at ~client_outcome ~server_outcome =
  issue_cert t ~client ~server ~at ~client_outcome ~server_outcome

let fabricate t ~client ~server ~at =
  if t.honest then invalid_arg "Registrar.fabricate: honest registrars do not fabricate";
  issue_cert t ~client ~server ~at ~client_outcome:Audit.Fulfilled
    ~server_outcome:Audit.Fulfilled

let repudiate t cert_id =
  if t.honest then invalid_arg "Registrar.repudiate: honest registrars do not repudiate";
  Ident.Tbl.replace t.repudiated cert_id ()

let validate t (cert : Audit.t) =
  Ident.equal cert.registrar t.rid
  && Ident.Tbl.mem t.issued cert.id
  && (not (Ident.Tbl.mem t.repudiated cert.id))
  && Audit.verify ~secret:t.secret cert


