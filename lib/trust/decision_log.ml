module Ident = Oasis_util.Ident
module Value = Oasis_util.Value
module Chunks = Oasis_util.Chunks
module Wire = Oasis_cert.Wire
module Sha256 = Oasis_crypto.Sha256
module Hex = Oasis_util.Hex

type decision = Grant | Deny | Revoke | Suspect | Reconcile

let labels =
  [ (Grant, "grant"); (Deny, "deny"); (Revoke, "revoke"); (Suspect, "suspect");
    (Reconcile, "reconcile") ]

let decision_label d = List.assq d labels
let decision_of_label l = List.find_map (fun (d, l') -> if l = l' then Some d else None) labels

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

(* The chain lives in [store], oldest record first, each as its payload's
   length (4 bytes, big-endian), the payload and its 32-byte chain hash.
   The log holds only what a crash may lose: the head, the length, the
   buffer the next record is framed in and each record's offset. *)
type t = {
  owner : Ident.t;
  store : Chunks.t;
  mutable index : int array; (* seq -> offset; the first [length] are used *)
  mutable length : int;
  mutable head : Sha256.digest;
  mutable scratch : Bytes.t;
}

let prefix_size = 4
let hash_size = 32

(* Binding the genesis digest to the service identifier means a chain
   exported by one service can never verify as another's. *)
let genesis owner = Sha256.digest_string ("oasis-decision-log:" ^ Ident.to_string owner)

let attach owner store =
  { owner; store; index = [||]; length = 0; head = genesis owner; scratch = Bytes.empty }

let create ~service = attach service (Chunks.create ())

let push t off =
  if t.length = Array.length t.index then begin
    let grown = Array.make (max 64 (2 * t.length)) 0 in
    Array.blit t.index 0 grown 0 t.length;
    t.index <- grown
  end;
  t.index.(t.length) <- off;
  t.length <- t.length + 1

(* Facts are joined with [;]; a [;] or [\] inside a fact is escaped with
   [\] and an empty fact is written [\e], so the join splits back into the
   facts logged. A plain fact is written as it is. *)
let needs_escape fact = fact = "" || String.exists (fun c -> c = ';' || c = '\\') fact

let escape fact =
  let replace sep by s = String.concat by (String.split_on_char sep s) in
  if fact = "" then "\\e" else replace ';' "\\;" (replace '\\' "\\\\" fact)

let join_facts facts =
  String.concat ";" (if List.exists needs_escape facts then List.map escape facts else facts)

(* The inverse of [join_facts], strict by re-joining. *)
let split_facts s =
  let b = Buffer.create 16 and n = String.length s in
  let take () =
    let fact = Buffer.contents b in
    Buffer.clear b;
    fact
  in
  (* [\e] adds nothing to its fact, which is what makes it the empty one. *)
  let rec go i acc =
    if i >= n then List.rev (take () :: acc)
    else if s.[i] = ';' then go (i + 1) (take () :: acc)
    else if s.[i] = '\\' then begin
      if i + 1 < n && s.[i + 1] <> 'e' then Buffer.add_char b s.[i + 1];
      go (i + 2) acc
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1) acc
    end
  in
  let facts = if s = "" then [] else go 0 [] in
  if String.equal (join_facts facts) s then Some facts else None

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
    Wire.Fstring (join_facts env_facts);
    Wire.Fint trace_seq;
  ]

let payload r =
  Wire.encode payload_tag
    (fields ~seq:r.seq ~at:r.at ~decision:r.decision ~principal:r.principal ~action:r.action
       ~args:r.args ~rule:r.rule ~creds:r.creds ~env_facts:r.env_facts ~trace_seq:r.trace_seq)

let of_payload ~prev ~hash body =
  match Wire.decode body with
  | Ok ("decision", Wire.[ Fint seq; Ffloat at; Fstring label; Fident principal; Fstring action;
                           Fvalues args; Fstring rule; Fvalues ids; Fstring facts; Fint trace_seq ])
    -> (
      let creds = List.filter_map (function Value.Id id -> Some id | _ -> None) ids in
      match (decision_of_label label, split_facts facts) with
      | Some decision, Some env_facts when List.compare_lengths creds ids = 0 ->
          Some
            { seq; at; decision; principal; action; args; rule; creds; env_facts; trace_seq;
              prev; hash }
      | _ -> None)
  | _ -> None

(* SHA256(prev_raw || the [len] bytes of [b] from [pos]). *)
let chain_hash ~prev b pos len =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx (Sha256.to_raw_string prev);
  Sha256.feed_sub ctx b pos len;
  Sha256.finalize ctx

(* The record is framed in [scratch] — length, payload, hash — with the
   payload encoded once and hashed where it lies, then copied into the
   store in one piece. *)
let append t ~at ~decision ~principal ~action ?(args = []) ?(rule = "") ?(creds = [])
    ?(env_facts = []) ?(trace_seq = 0) () =
  let seq = t.length and prev = t.head in
  let fields =
    fields ~seq ~at ~decision ~principal ~action ~args ~rule ~creds ~env_facts ~trace_seq
  in
  let len = Wire.encoded_length payload_tag fields in
  if len > 0xFFFF_FFFF then invalid_arg "Decision_log.append: record too large";
  let framed = prefix_size + len + hash_size in
  if Bytes.length t.scratch < framed then
    t.scratch <- Bytes.create (max framed (2 * Bytes.length t.scratch));
  Bytes.set_int32_be t.scratch 0 (Int32.of_int len);
  ignore (Wire.write t.scratch prefix_size payload_tag fields);
  let hash = chain_hash ~prev t.scratch prefix_size len in
  Bytes.blit_string (Sha256.to_raw_string hash) 0 t.scratch (prefix_size + len) hash_size;
  push t (Chunks.length t.store);
  Chunks.add_sub t.store t.scratch 0 framed;
  t.head <- hash;
  { seq; at; decision; principal; action; args; rule; creds; env_facts; trace_seq; prev; hash }

let length t = t.length
let head t = t.head
let store t = t.store

let payload_length store off =
  let byte i = Char.code (Chunks.get store (off + i)) in
  (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3

let stored_hash store pos =
  Option.get (Sha256.of_raw_string (Chunks.sub_string store pos hash_size))

(* The stored bytes were verified as they were appended or resumed, so a
   record that does not decode was changed under the live log. *)
let record_at t seq =
  let off = t.index.(seq) in
  let len = payload_length t.store off in
  let prev = if seq = 0 then genesis t.owner else stored_hash t.store (off - hash_size) in
  let hash = stored_hash t.store (off + prefix_size + len) in
  match of_payload ~prev ~hash (Chunks.sub_string t.store (off + prefix_size) len) with
  | Some r when r.seq = seq -> r
  | Some _ | None -> failwith (Printf.sprintf "Decision_log: stored record %d does not decode" seq)

let fold f init t =
  let rec go seq acc = if seq = t.length then acc else go (seq + 1) (f acc (record_at t seq)) in
  go 0 init

let records t = List.rev (fold (fun acc r -> r :: acc) [] t)

let find t ~seq = if seq < 0 || seq >= t.length then None else Some (record_at t seq)

(* Walks [store]'s records from [owner]'s genesis, re-deriving every link
   from the stored payload bytes, and calls [visit] with each verified
   record's offset. [Ok (length, head)] when the store ends exactly after
   a verified record. *)
let scan owner store visit =
  let size = Chunks.length store in
  let rec go seq off prev =
    let room = size - off - prefix_size - hash_size in
    if off = size then Ok (seq, prev)
    else if room < 0 || payload_length store off > room then Error (seq, "truncated record")
    else
      let len = payload_length store off in
      let body = Bytes.unsafe_of_string (Chunks.sub_string store (off + prefix_size) len) in
      let expect = chain_hash ~prev body 0 len in
      if not (Sha256.equal expect (stored_hash store (off + prefix_size + len))) then
        Error (seq, "chain hash mismatch")
      else begin
        visit off;
        go (seq + 1) (off + prefix_size + len + hash_size) expect
      end
  in
  go 0 0 (genesis owner)

let verify t =
  match scan t.owner t.store ignore with
  | Ok (n, head) when n = t.length && Sha256.equal head t.head -> Ok n
  | Ok (n, _) -> Error (n, "stored chain does not end at the head")
  | Error _ as e -> e

let resume ~service store =
  let t = attach service store in
  Result.map (fun (_, head) -> t.head <- head; t) (scan service store (push t))

(* Textual export: hex payloads so the file survives editors and diffs, and
   so a one-byte tamper is always visible to the verifier (bad hex parses
   are failures too). *)
let header_magic = "oasis-decision-log v1 "

let export_line r = Hex.encode (payload r) ^ " " ^ Sha256.to_hex r.hash ^ "\n"

let export t =
  let b = Buffer.create ((2 * Chunks.length t.store) + 64) in
  Buffer.add_string b (header_magic ^ Ident.to_string t.owner ^ "\n");
  for seq = 0 to t.length - 1 do
    let off = t.index.(seq) + prefix_size in
    let len = payload_length t.store (off - prefix_size) in
    Buffer.add_string b (Hex.encode (Chunks.sub_string t.store off len));
    Buffer.add_char b ' ';
    Buffer.add_string b (Hex.encode (Chunks.sub_string t.store (off + len) hash_size));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let verify_string s =
  let magic = String.length header_magic in
  match String.split_on_char '\n' s |> List.filter (fun l -> l <> "") with
  | [] -> Error (0, "empty chain file")
  | header :: _ when not (String.starts_with ~prefix:header_magic header) -> Error (0, "bad header")
  | header :: lines -> (
      match Ident.of_string (String.sub header magic (String.length header - magic)) with
      | None -> Error (0, "unparseable service identifier in header")
      | Some owner ->
          let rec go seq prev = function
            | [] -> Ok seq
            | line :: rest -> (
                match String.index_opt line ' ' with
                | None -> Error (seq, "malformed record line")
                | Some sp -> (
                    match Hex.decode (String.sub line 0 sp) with
                    | None -> Error (seq, "payload is not valid hex")
                    | Some body ->
                        let body = Bytes.unsafe_of_string body in
                        let expect = chain_hash ~prev body 0 (Bytes.length body) in
                        let hash = String.sub line (sp + 1) (String.length line - sp - 1) in
                        if Sha256.to_hex expect <> hash then Error (seq, "chain hash mismatch")
                        else go (seq + 1) expect rest))
          in
          go 0 (genesis owner) lines)

let tamper s ~byte =
  let n = String.length s in
  let i = if n = 0 then 0 else ((byte mod n) + n) mod n in
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
