(** A service's audit trail (DESIGN.md §15).

    Every access-control decision a service takes — grant, deny, revoke,
    suspect, reconcile — is appended to its hash-chained decision log with
    its provenance, counted under [audit.records{service,decision}], and
    mirrored into the world's durable store one export line at a time, so a
    restarted service resumes the chain instead of starting a new one. The
    decide path ({!Service}) and the monitor ({!Monitor}) both append here. *)

type t

val create : World.t -> service:Oasis_util.Ident.t -> name:string -> t
(** An empty chain for [service], whose header is written to the durable
    store at once. *)

val log :
  t ->
  decision:Oasis_trust.Decision_log.decision ->
  principal:Oasis_util.Ident.t ->
  action:string ->
  ?args:Oasis_util.Value.t list ->
  ?rule:string ->
  ?creds:Oasis_util.Ident.t list ->
  ?env_facts:string list ->
  unit ->
  unit
(** Appends one decision. Its [trace_seq] is the obs event emitted just
    before it (0 while tracing is off). *)

val record_grant :
  t ->
  ?issued:Oasis_util.Ident.t ->
  principal:Oasis_util.Ident.t ->
  action:string ->
  args:Oasis_util.Value.t list ->
  support:Oasis_policy.Solve.support list ->
  rule:string ->
  unit ->
  unit
(** Logs a grant (Sect. 3: "the identity of the original requester ...
    recorded for audit"): the credentials of the proof's support, led by
    the certificate the grant minted ([issued]) if any — [oasisctl audit
    why --cert] finds either — and its env facts rendered. *)

val render_env_fact : string * Oasis_util.Value.t list -> string
(** [name(a, b)], or [name] for a nullary fact. *)

exception Chain_tampered of { service : string; seq : int; why : string }

val resume : t -> unit
(** Resumes the chain from its durable mirror: re-verifies every line and
    continues appending from the verified head, counting
    [audit.chain{outcome=resumed}]. A line that fails verification means
    the store was tampered with or truncated while the service was down:
    counts [audit.chain{outcome=tampered}] and raises {!Chain_tampered} —
    building new decisions onto a forged prefix would launder the forgery.
    A no-op when nothing was ever mirrored. *)

val decision_log : t -> Oasis_trust.Decision_log.t
