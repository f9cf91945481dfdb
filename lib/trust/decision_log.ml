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
  mutable scratch : Bytes.t;
      (* reused by every append; while the newest entry is [Full], its
         first [scratch_length] bytes are that record's payload *)
  mutable scratch_length : int;
}

(* Binding the genesis digest to the service identifier means a chain
   exported by one service can never verify as another's. *)
let genesis owner = Sha256.digest_string ("oasis-decision-log:" ^ Ident.to_string owner)

let of_entries owner ~rev_entries ~length ~head =
  { owner; rev_entries; length; head; scratch = Bytes.empty; scratch_length = 0 }

let create ~service = of_entries service ~rev_entries:[] ~length:0 ~head:(genesis service)

let payload_tag = "decision"

let fields ~seq ~at ~decision ~principal ~action ~args ~rule ~creds ~env_facts ~trace_seq =
  [
    Wire.Fint seq;
    Wire.Ffloat at;
    Wire.Fstring (decision_label decision);
    Wire.Fident principal;
    Wire.Fstring action;
    Wire.Fvalues args;
    Wire.Fstring rule;
    Wire.Fvalues (List.map (fun id -> Value.Id id) creds);
    Wire.Fstring (String.concat ";" env_facts);
    Wire.Fint trace_seq;
  ]

let payload r =
  Wire.encode payload_tag
    (fields ~seq:r.seq ~at:r.at ~decision:r.decision ~principal:r.principal ~action:r.action
       ~args:r.args ~rule:r.rule ~creds:r.creds ~env_facts:r.env_facts ~trace_seq:r.trace_seq)

(* SHA256(prev_raw || the first [len] bytes of [body]). *)
let chain_hash ~prev body len =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx (Sha256.to_raw_string prev);
  Sha256.feed_sub ctx body 0 len;
  Sha256.finalize ctx

let chain_hash_string ~prev body =
  chain_hash ~prev (Bytes.unsafe_of_string body) (String.length body)

(* The payload is encoded once, into [scratch], and hashed from there; the
   durable mirror's line is hexed from the same bytes ({!export_last_line}). *)
let append t ~at ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = [])
    ?(env_facts = []) ?(trace_seq = 0) () =
  let seq = t.length in
  let fields =
    fields ~seq ~at ~decision ~principal ~action ~args ~rule ~creds ~env_facts ~trace_seq
  in
  let length = Wire.encoded_length payload_tag fields in
  if Bytes.length t.scratch < length then
    t.scratch <- Bytes.create (max length (2 * Bytes.length t.scratch));
  ignore (Wire.write t.scratch 0 payload_tag fields);
  t.scratch_length <- length;
  let hash = chain_hash ~prev:t.head t.scratch length in
  let r =
    {
      seq;
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
      hash;
    }
  in
  t.rev_entries <- Full r :: t.rev_entries;
  t.length <- seq + 1;
  t.head <- hash;
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
            let expect = chain_hash_string ~prev (entry_payload e) in
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

(* Hex of the first [len] bytes of [body], a space, the hex hash and a
   newline, written straight into the one string returned. *)
let line_of body len hash =
  let raw = Sha256.to_raw_string hash in
  let line = Bytes.create ((2 * len) + 1 + (2 * String.length raw) + 1) in
  let pos = Hex.write body 0 len line 0 in
  Bytes.set line pos ' ';
  let pos = Hex.write (Bytes.unsafe_of_string raw) 0 (String.length raw) line (pos + 1) in
  Bytes.set line pos '\n';
  Bytes.unsafe_to_string line

let line_of_string body hash = line_of (Bytes.unsafe_of_string body) (String.length body) hash
let export_line r = line_of_string (payload r) r.hash
let entry_line e = line_of_string (entry_payload e) (entry_hash e)

let export_last_line t =
  match t.rev_entries with
  | Full r :: _ -> line_of t.scratch t.scratch_length r.hash
  | (Imported _ as e) :: _ -> entry_line e
  | [] -> invalid_arg "Decision_log.export_last_line: empty chain"

let export t =
  let buf = Buffer.create (256 * (t.length + 1)) in
  Buffer.add_string buf (export_header t);
  List.iter (fun e -> Buffer.add_string buf (entry_line e)) (List.rev t.rev_entries);
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
                let expect = chain_hash_string ~prev body in
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
          (fun (length, head, rev_entries) -> of_entries owner ~rev_entries ~length ~head)
          (replay owner lines))

let tamper s ~byte =
  let n = String.length s in
  if n = 0 then s
  else
    let i = ((byte mod n) + n) mod n in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
