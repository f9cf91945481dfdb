module Ident = Oasis_util.Ident

type t = { owner : Ident.t; mutable certs : Audit.t list; seen : unit Ident.Tbl.t }

let create owner = { owner; certs = []; seen = Ident.Tbl.create 16 }

let add t cert =
  (* Dedup by certificate id: re-presenting the same certificate must not
     inflate the wallet (and hence the beta estimate downstream). *)
  if Audit.involves cert t.owner && not (Ident.Tbl.mem t.seen cert.Audit.id) then begin
    Ident.Tbl.replace t.seen cert.Audit.id ();
    t.certs <- cert :: t.certs;
    true
  end
  else false

let present t = t.certs

let present_favourable t =
  List.filter (fun cert -> Audit.outcome_for cert t.owner = Some Audit.Fulfilled) t.certs

let size t = List.length t.certs
