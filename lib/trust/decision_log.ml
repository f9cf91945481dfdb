module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Wire = Oasis_cert.Wire
module Sha256 = Oasis_crypto.Sha256
module Hex = Oasis_util.Hex

type decision = Grant | Deny | Revoke | Suspect | Reconcile

let decision_label = function
  | Grant -> "grant"
  | Deny -> "deny"
  | Revoke -> "revoke"
  | Suspect -> "suspect"
  | Reconcile -> "reconcile"

let decision_of_label = function
  | "grant" -> Some Grant
  | "deny" -> Some Deny
  | "revoke" -> Some Revoke
  | "suspect" -> Some Suspect
  | "reconcile" -> Some Reconcile
  | _ -> None

type record = {
  seq : int;
  at : float;
  decision : decision;
  principal : Ident.t;
  action : string;
  args : Value.t list;
  rule : string;
  creds : Ident.t list;
  env_facts : string list;
  trace_seq : int;
  prev : Sha256.digest;
  hash : Sha256.digest;
}

(* A chain resumed from a durable export holds its pre-crash prefix as
   opaque (payload, hash) pairs: the wire encoding is one-way, so the
   typed fields are gone, but the bytes are exactly what re-export and
   re-verification need, and the chain keeps extending from the same
   head. *)
type entry = Full of record | Imported of { payload : string; hash : Sha256.digest }

type t = {
  owner : Ident.t;
  mutable rev_entries : entry list; (* newest first *)
  mutable length : int;
  mutable head : Sha256.digest;
}

(* Binding the genesis digest to the service identifier means a chain
   exported by one service can never verify as another's. *)
let genesis owner = Sha256.digest_string ("oasis-decision-log:" ^ Ident.to_string owner)

let create ~service = { owner = service; rev_entries = []; length = 0; head = genesis service }

let payload r =
  Wire.encode "decision"
    [
      Wire.Fint r.seq;
      Wire.Ffloat r.at;
      Wire.Fstring (decision_label r.decision);
      Wire.Fident r.principal;
      Wire.Fstring r.action;
      Wire.Fvalues r.args;
      Wire.Fstring r.rule;
      Wire.Fvalues (List.map (fun id -> Value.Id id) r.creds);
      Wire.Fstring (String.concat ";" r.env_facts);
      Wire.Fint r.trace_seq;
    ]

let chain_hash ~prev body =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx (Sha256.to_raw_string prev);
  Sha256.feed_string ctx body;
  Sha256.finalize ctx

let append t ~at ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = [])
    ?(env_facts = []) ?(trace_seq = 0) () =
  let r =
    {
      seq = t.length;
      at;
      decision;
      principal;
      action;
      args;
      rule;
      creds;
      env_facts;
      trace_seq;
      prev = t.head;
      hash = t.head;
    }
  in
  let r = { r with hash = chain_hash ~prev:t.head (payload r) } in
  t.rev_entries <- Full r :: t.rev_entries;
  t.length <- t.length + 1;
  t.head <- r.hash;
  r

let service t = t.owner
let length t = t.length
let head t = t.head

let records t =
  List.rev
    (List.filter_map (function Full r -> Some r | Imported _ -> None) t.rev_entries)

let imported_count t =
  List.length (List.filter (function Imported _ -> true | Full _ -> false) t.rev_entries)

let find t ~seq =
  List.find_opt
    (fun r -> r.seq = seq)
    (List.filter_map (function Full r -> Some r | Imported _ -> None) t.rev_entries)

let entry_payload = function Full r -> payload r | Imported { payload; _ } -> payload
let entry_hash = function Full r -> r.hash | Imported { hash; _ } -> hash

let verify t =
  let rec go seq prev = function
    | [] -> Ok t.length
    | e :: rest -> (
        match e with
        | Full r when not (Sha256.equal r.prev prev) -> Error (r.seq, "prev-hash mismatch")
        | _ ->
            let expect = chain_hash ~prev (entry_payload e) in
            if not (Sha256.equal expect (entry_hash e)) then
              Error (seq, "record hash mismatch")
            else go (seq + 1) expect rest)
  in
  go 0 (genesis t.owner) (List.rev t.rev_entries)

(* Textual export: hex payloads so the file survives editors and diffs, and
   so a one-byte tamper is always visible to the verifier (bad hex parses
   are failures too). *)

let header_magic = "oasis-decision-log v1 "

let export_header t = header_magic ^ Ident.to_string t.owner ^ "\n"

let line_of ~body ~hash = String.concat "" [ Hex.encode body; " "; Sha256.to_hex hash; "\n" ]

let export_line r = line_of ~body:(payload r) ~hash:r.hash

let export t =
  let buf = Buffer.create (256 * (t.length + 1)) in
  Buffer.add_string buf (export_header t);
  List.iter
    (fun e -> Buffer.add_string buf (line_of ~body:(entry_payload e) ~hash:(entry_hash e)))
    (List.rev t.rev_entries);
  Buffer.contents buf

(* Splits an exported chain into its owner and record lines. *)
let parse_header s =
  match String.split_on_char '\n' s |> List.filter (fun l -> l <> "") with
  | [] -> Error (0, "empty chain file")
  | header :: rest -> (
      let magic_len = String.length header_magic in
      if
        String.length header < magic_len
        || not (String.equal (String.sub header 0 magic_len) header_magic)
      then Error (0, "bad header")
      else
        let owner_s = String.sub header magic_len (String.length header - magic_len) in
        match Ident.of_string owner_s with
        | None -> Error (0, "unparseable service identifier in header")
        | Some owner -> Ok (owner, rest))

(* Re-derives every link from [owner]'s genesis; the verified prefix comes
   back as [Imported] entries, newest first, with its length and head. *)
let replay owner lines =
  let rec go seq prev acc = function
    | [] -> Ok (seq, prev, acc)
    | line :: rest -> (
        match String.index_opt line ' ' with
        | None -> Error (seq, "malformed record line")
        | Some sp -> (
            let payload_hex = String.sub line 0 sp in
            let hash_hex = String.sub line (sp + 1) (String.length line - sp - 1) in
            match Hex.decode payload_hex with
            | None -> Error (seq, "payload is not valid hex")
            | Some body ->
                let expect = chain_hash ~prev body in
                if not (String.equal (Sha256.to_hex expect) hash_hex) then
                  Error (seq, "chain hash mismatch")
                else go (seq + 1) expect (Imported { payload = body; hash = expect } :: acc) rest))
  in
  go 0 (genesis owner) [] lines

let verify_string s =
  Result.bind (parse_header s) (fun (owner, lines) ->
      Result.map (fun (length, _, _) -> length) (replay owner lines))

let resume ~service s =
  Result.bind (parse_header s) (fun (owner, lines) ->
      if not (Ident.equal owner service) then Error (0, "chain belongs to a different service")
      else
        Result.map
          (fun (length, head, rev_entries) -> { owner; rev_entries; length; head })
          (replay owner lines))

let tamper s ~byte =
  let n = String.length s in
  if n = 0 then s
  else
    let i = ((byte mod n) + n) mod n in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
