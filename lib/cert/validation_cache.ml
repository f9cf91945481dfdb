module Ident = Oasis_util.Ident
module Obs = Oasis_obs.Obs

type verdict = Valid | Invalid

type t = {
  table : verdict Ident.Tbl.t;
  c_hits : Obs.Counter.t;
  c_negative_hits : Obs.Counter.t;
  c_misses : Obs.Counter.t;
  c_invalidations : Obs.Counter.t;
}

let create ?obs ?(labels = []) () =
  let obs = match obs with Some obs -> obs | None -> Obs.create () in
  let counter name = Obs.counter obs name ~labels in
  {
    table = Ident.Tbl.create 64;
    c_hits = counter "vcache.hits";
    c_negative_hits = counter "vcache.negative_hits";
    c_misses = counter "vcache.misses";
    c_invalidations = counter "vcache.invalidations";
  }

let cache_valid t cert_id = Ident.Tbl.replace t.table cert_id Valid

let lookup t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some Valid as v ->
      Obs.Counter.inc t.c_hits;
      v
  | Some Invalid as v ->
      Obs.Counter.inc t.c_negative_hits;
      v
  | None ->
      Obs.Counter.inc t.c_misses;
      None

let is_poisoned t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some Invalid ->
      Obs.Counter.inc t.c_negative_hits;
      true
  | Some Valid | None -> false

let invalidate t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some Invalid -> ()
  | Some Valid | None ->
      (* Revocation is permanent (the issuer never resurrects a certificate
         id), so the invalidation event is itself a cachable negative
         verdict: later presentations of the dead certificate answer [false]
         locally instead of re-issuing the callback. *)
      Ident.Tbl.replace t.table cert_id Invalid;
      Obs.Counter.inc t.c_invalidations

let drop t cert_id =
  match Ident.Tbl.find_opt t.table cert_id with
  | Some Valid -> Ident.Tbl.remove t.table cert_id
  | Some Invalid | None -> ()

let clear t = Ident.Tbl.reset t.table
