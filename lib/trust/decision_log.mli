(** Hash-chained, append-only log of access-control decisions.

    Sect. 6 motivates "a distributed record of the histories of services
    and principals". The per-service decision log is the service-side half
    of that record: every grant, deny, revoke, suspect and reconcile
    decision is appended with full provenance — the rule that fired, the
    credentials and environmental facts it rested on, and the obs trace
    sequence number it correlates with — and chained with SHA-256 so that
    any later mutation of any byte of any record is detectable.

    Chaining: record [i] stores [prev], the hash of record [i-1] (record 0
    stores a genesis digest derived from the owning service's identifier),
    and [hash = SHA256(prev_raw || payload_i)] where [payload_i] is the
    canonical {!Oasis_cert.Wire} encoding of the record's fields. The
    environmental facts are one string field, joined with [;]; a [;] or
    [\] inside a fact is escaped with [\] and an empty fact is written
    [\e], so the facts decode back exactly as logged.

    Storage: each decision is kept once, as raw bytes in an append-only
    {!Oasis_util.Chunks} store — the payload's length (4 bytes,
    big-endian), the payload and the 32-byte hash; [prev] is the hash
    stored before it. The payload is encoded once per append, hashed and
    copied into the store; {!records}, {!find} and {!fold} decode from the
    stored bytes, and {!verify} hashes them where they lie. The log itself
    keeps only its head, its length, one scratch buffer and each record's
    offset, so a crash that drops the log and keeps the store (the
    simulated durable store does exactly that) loses nothing {!resume}
    cannot rebuild. Hex appears only in the textual {!export}, which can be
    re-verified offline with {!verify_string}: flipping a single byte
    anywhere in the export makes verification fail ([oasisctl audit verify
    --tamper] demonstrates this).

    What the chain cannot show: a store cut short exactly at a record
    boundary is a shorter valid chain. {!resume} detects a flipped byte
    anywhere and a cut inside a record, but a rollback to an earlier record
    boundary verifies; only an external witness of the length or head (an
    audit certificate, a peer's copy) can tell. *)

type decision = Grant | Deny | Revoke | Suspect | Reconcile

val decision_label : decision -> string
(** ["grant"], ["deny"], ["revoke"], ["suspect"], ["reconcile"]. *)

val decision_of_label : string -> decision option

(** One decision with its provenance. *)
type record = {
  seq : int;  (** position in the chain, from 0 *)
  at : float;  (** simulated time of the decision *)
  decision : decision;
  principal : Oasis_util.Ident.t;  (** the party the decision is about *)
  action : string;  (** e.g. ["activate:doctor"], ["invoke:read_record"] *)
  args : Oasis_util.Value.t list;  (** role / privilege parameters *)
  rule : string;  (** canonical text of the rule that fired, or the reason *)
  creds : Oasis_util.Ident.t list;  (** credential ids supporting the decision *)
  env_facts : string list;  (** environmental constraints consulted *)
  trace_seq : int;  (** obs event seq this correlates with; 0 = tracing off *)
  prev : Oasis_crypto.Sha256.digest;
  hash : Oasis_crypto.Sha256.digest;
}

type t

val create : service:Oasis_util.Ident.t -> t
(** An empty chain in a store of its own ({!store}). *)

val resume :
  service:Oasis_util.Ident.t -> Oasis_util.Chunks.t -> (t, int * string) result
(** The chain held in a store, after a crash dropped the log that wrote it:
    walks every stored record, re-deriving each link from [service]'s
    genesis digest (a store written by a different service fails at record
    0), and returns a log whose length, head and index continue exactly
    where the store ends. The returned log appends to the same store, and
    its {!records} decode the pre-crash records in full. An empty store
    resumes as an empty chain. [Error (seq, why)] is the fail-closed
    signal: the store was tampered with or cut inside a record, and the
    service must refuse to build on it. A cut at a record boundary is not
    detected (see above). *)

val store : t -> Oasis_util.Chunks.t
(** The bytes the chain lives in; appends extend it in place. *)

val append :
  t ->
  at:float ->
  decision:decision ->
  principal:Oasis_util.Ident.t ->
  action:string ->
  ?args:Oasis_util.Value.t list ->
  ?rule:string ->
  ?creds:Oasis_util.Ident.t list ->
  ?env_facts:string list ->
  ?trace_seq:int ->
  unit ->
  record

val length : t -> int

val head : t -> Oasis_crypto.Sha256.digest
(** Hash of the most recent record (the genesis digest when empty). *)

val records : t -> record list
(** Every record, oldest first, decoded from the store. *)

val fold : ('a -> record -> 'a) -> 'a -> t -> 'a
(** [fold f init t] folds [f] over the records oldest first, decoding one at
    a time. *)

val find : t -> seq:int -> record option
(** Decodes the one record [seq] through the offset index. *)

(** {!records}, {!fold} and {!find} raise [Failure] if the stored bytes no
    longer decode, which only a change to the store under the live log can
    cause (run {!verify} first). *)

val verify : t -> (int, int * string) result
(** Recomputes the whole chain from genesis over the stored bytes. [Ok n]
    means all [n] records are intact and the chain ends at {!head};
    [Error (seq, why)] names the first record that fails. *)

val export : t -> string
(** Textual chain: a header line naming the service, then one line per
    record — hex canonical payload and hex chain hash. [prev] is implicit
    (the previous line's hash). Suitable for writing to a file and
    re-verifying offline. Hexed straight from the stored bytes; [export t]
    is the header followed by {!export_line} of every record. *)

val export_line : record -> string
(** One record's export line (newline-terminated), encoding the record
    again. *)

val verify_string : string -> (int, int * string) result
(** Verifies an {!export}ed chain without access to the original log.
    [Ok n] = [n] records intact. Any single-byte change to the exported
    string — payload, hash, header or structure — yields [Error]. *)

val tamper : string -> byte:int -> string
(** [tamper s ~byte] flips the low bit of byte [byte mod length] of [s] —
    the adversary move that {!verify_string} must detect, whether the byte
    lands in a payload, a hash, the header or a line separator. *)
