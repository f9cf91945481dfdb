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

let is_valid t = match t.status with Valid -> true | Revoked _ -> false

(* Records keyed by certificate id, sharded by its sequence number. One
   service holding 10^6 records in a single hashtable pays resize pauses proportional to
   the whole store and pins one huge bucket array; sixteen shards cap each
   resize at a sixteenth of the store and keep every lookup O(1) within
   its shard. Shards also give revocation cascades and future parallel
   walks an embarrassingly partitionable layout. *)

let shard_bits = 4
let shard_count = 1 lsl shard_bits

type store = { shards : t Ident.Tbl.t array }

let create_store () = { shards = Array.init shard_count (fun _ -> Ident.Tbl.create 32) }

(* Not by [Ident.hash]: each shard's table indexes its buckets by the low
   bits of that hash, so picking the shard by the same bits would leave
   15/16 of every shard's buckets empty and its chains 16 times longer. *)
let record_shard store cert_id = store.shards.(Ident.number cert_id land (shard_count - 1))

let add store ~cert_id ~issuer ~kind ~principal ~name ~args ~issued_at =
  let shard = record_shard store cert_id in
  if Ident.Tbl.mem shard cert_id then
    invalid_arg
      (Printf.sprintf "Credential_record.add: duplicate certificate %s" (Ident.to_string cert_id));
  let record = { cert_id; issuer; kind; principal; name; args; issued_at; status = Valid } in
  Ident.Tbl.replace shard cert_id record;
  record

let find store cert_id = Ident.Tbl.find_opt (record_shard store cert_id) cert_id

let revoke store cert_id ~at ~reason =
  match find store cert_id with
  | Some record when is_valid record ->
      record.status <- Revoked { at; reason };
      Some record
  | Some _ | None -> None

let count store =
  Array.fold_left (fun acc shard -> acc + Ident.Tbl.length shard) 0 store.shards

let iter store f =
  Array.iter (fun shard -> Ident.Tbl.iter (fun _ record -> f record) shard) store.shards
