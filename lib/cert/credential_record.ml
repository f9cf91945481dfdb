module Ident = Oasis_util.Ident
module Value = Oasis_util.Value

type status = Valid | Revoked of { at : float; reason : string }

type kind = Kind_rmc | Kind_appointment

type t = {
  cert_id : Ident.t;
  issuer : Ident.t;
  kind : kind;
  principal : Ident.t;
  name : string;
  args : Value.t list;
  issued_at : float;
  mutable status : status;
}

let topic_of ~issuer ~cert_id =
  Printf.sprintf "cr:%s/%s" (Ident.to_string issuer) (Ident.to_string cert_id)

let topic t = topic_of ~issuer:t.issuer ~cert_id:t.cert_id

let is_valid t = match t.status with Valid -> true | Revoked _ -> false

(* Records keyed by certificate id, with a secondary index keyed by
   (issuer, name) so "every record for role r" — the solver-candidate and
   introspection queries — costs the matching records, not a scan of the
   whole store. The valid count is maintained incrementally for the same
   reason.

   The store is sharded: primary records by certificate-id sequence
   number, the name index by (issuer, name)-key hash. One service holding
   10^6 records in a single hashtable pays resize pauses proportional to
   the whole store and pins one huge bucket array; sixteen shards cap each
   resize at a sixteenth of the store and keep every lookup O(1) within
   its shard. Shards also give revocation cascades and future parallel
   walks an embarrassingly partitionable layout. *)

let shard_bits = 4
let shard_count = 1 lsl shard_bits

type shard = {
  records : t Ident.Tbl.t;
  by_name : (string, t Ident.Tbl.t) Hashtbl.t;
}

type store = { shards : shard array; mutable valid : int }

let name_key ~issuer ~name = Ident.to_string issuer ^ "\x00" ^ name

let create_store () =
  {
    shards =
      Array.init shard_count (fun _ ->
          { records = Ident.Tbl.create 32; by_name = Hashtbl.create 8 });
    valid = 0;
  }

(* Not by [Ident.hash]: each shard's table indexes its buckets by the low
   bits of that hash, so picking the shard by the same bits would leave
   15/16 of every shard's buckets empty and its chains 16 times longer. *)
let record_shard store cert_id = store.shards.(Ident.number cert_id land (shard_count - 1))

let name_shard store key = store.shards.(Hashtbl.hash key land (shard_count - 1))

let add store ~cert_id ~issuer ~kind ~principal ~name ~args ~issued_at =
  let shard = record_shard store cert_id in
  if Ident.Tbl.mem shard.records cert_id then
    invalid_arg
      (Printf.sprintf "Credential_record.add: duplicate certificate %s" (Ident.to_string cert_id));
  let record = { cert_id; issuer; kind; principal; name; args; issued_at; status = Valid } in
  Ident.Tbl.replace shard.records cert_id record;
  let key = name_key ~issuer ~name in
  let by_name = (name_shard store key).by_name in
  let bucket =
    match Hashtbl.find_opt by_name key with
    | Some b -> b
    | None ->
        let b = Ident.Tbl.create 8 in
        Hashtbl.replace by_name key b;
        b
  in
  Ident.Tbl.replace bucket cert_id record;
  store.valid <- store.valid + 1;
  record

let find store cert_id = Ident.Tbl.find_opt (record_shard store cert_id).records cert_id

let find_named store ~issuer ~name =
  let key = name_key ~issuer ~name in
  match Hashtbl.find_opt (name_shard store key).by_name key with
  | None -> []
  | Some bucket -> Ident.Tbl.fold (fun _ record acc -> record :: acc) bucket []

let revoke store cert_id ~at ~reason =
  match find store cert_id with
  | Some record when is_valid record ->
      record.status <- Revoked { at; reason };
      store.valid <- store.valid - 1;
      Some record
  | Some _ | None -> None

let count store =
  Array.fold_left (fun acc shard -> acc + Ident.Tbl.length shard.records) 0 store.shards

let valid_count store = store.valid

let iter store f =
  Array.iter (fun shard -> Ident.Tbl.iter (fun _ record -> f record) shard.records) store.shards
