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
    payload is encoded once per append, into one buffer the log reuses,
    and hashed from there; the durable mirror's line
    ({!export_last_line}) is made from the same hashed bytes. The
    exported textual form ({!export}) can be re-verified offline with
    {!verify_string} — flipping a single byte anywhere in the export makes
    verification fail ([oasisctl audit verify --tamper] demonstrates
    this). *)

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

val service : t -> Oasis_util.Ident.t
val length : t -> int

val head : t -> Oasis_crypto.Sha256.digest
(** Hash of the most recent record (the genesis digest when empty). *)

val records : t -> record list
(** Oldest first. A chain rebuilt with {!resume} holds its pre-crash prefix
    only as verified bytes, so [records] returns just the post-resume
    (typed) records; {!length} still counts the whole chain. *)

val imported_count : t -> int
(** How many records in the chain are the opaque resumed prefix (0 for a
    chain that never crossed a crash). *)

val find : t -> seq:int -> record option

val verify : t -> (int, int * string) result
(** Recomputes the whole chain from genesis. [Ok n] means all [n] records
    are intact; [Error (seq, why)] names the first record that fails. *)

val export : t -> string
(** Textual chain: a header line naming the service, then one line per
    record — hex canonical payload and hex chain hash. [prev] is implicit
    (the previous line's hash). Suitable for writing to a file and
    re-verifying offline. [export t = export_header t ^ concat of
    export_line per record], which is what lets services mirror the chain
    into their durable store incrementally — one line per append, from
    {!export_last_line} — instead of rewriting the whole export every time.
    [export] encodes every record again: a different path to the same
    bytes. *)

val export_header : t -> string
(** Just the header line (newline-terminated) — written once when the
    durable mirror of a chain is created. *)

val export_line : record -> string
(** One record's export line (newline-terminated), encoding the record
    again. *)

val export_last_line : t -> string
(** The export line of the newest record — what {!export_line} gives for
    it — appended to the durable mirror as the decision is logged. The
    line is made from the very bytes {!append} encoded and hashed, hexed
    into one allocation, so a decision's payload is encoded exactly once.
    The log keeps those bytes only until the next append (one reusable
    buffer, never a payload per record). [Invalid_argument] on an empty
    chain. *)

val resume : service:Oasis_util.Ident.t -> string -> (t, int * string) result
(** Rebuild a chain from its durable export after a crash: verifies every
    line against the genesis digest for [service] (a chain exported by a
    different service is rejected outright) and returns a log whose length
    and head continue exactly where the export stopped. The verified prefix
    is kept as opaque bytes (the wire encoding is one-way); new appends
    chain onto it and re-exports reproduce the prefix byte-for-byte.
    [Error (seq, why)] is the fail-closed signal: the durable record was
    tampered with or truncated mid-line, and the service must refuse to
    build on it. *)

val verify_string : string -> (int, int * string) result
(** Verifies an {!export}ed chain without access to the original log.
    [Ok n] = [n] records intact. Any single-byte change to the exported
    string — payload, hash, header or structure — yields [Error]. *)

val tamper : string -> byte:int -> string
(** [tamper s ~byte] flips the low bit of byte [byte mod length] of [s] —
    the adversary move that {!verify_string} must detect, whether the byte
    lands in a payload, a hash, the header or a line separator. *)
