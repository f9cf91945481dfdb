(** Deterministic fault injection on the virtual clock.

    Three failure shapes, all replayable from a seed because they run on the
    simulation engine rather than wall time:

    - {b named partitions} — bidirectional link cuts between two node sets,
      installed with {!partition} and removed with {!heal}. Overlapping
      partitions compose (the underlying {!Network} blocks are refcounted).
    - {b crash} — the node goes down ({!Network.set_down}) and its
      registered [on_crash] hook runs, dropping in-flight state and
      silencing emitters.
    - {b restart} — the node comes back up and its [on_restart] hook
      rebuilds subscriptions and monitors from durable credential records.

    The controller lives in the sim layer, so it only knows node idents; the
    layers above register per-node hooks ({!set_hooks}) and consult
    {!is_cut} to make non-network channels (the event broker) honour the
    same partitions. Partition installs are counted as [net.partitioned] in
    the registry. *)

type 'msg t

val create : 'msg Network.t -> 'msg t

val partition :
  'msg t -> name:string -> Oasis_util.Ident.t list -> Oasis_util.Ident.t list -> unit
(** [partition t ~name left right] cuts every (left, right) pair in both
    directions. Raises [Invalid_argument] if [name] is already active. Nodes
    appearing on both sides are not cut from themselves. *)

val heal : 'msg t -> string -> unit
(** Removes the named partition, then runs the {!on_heal} hook with its
    pairs. Raises [Invalid_argument] on an unknown name — a typo in a
    scenario must surface loudly. *)

val on_heal : 'msg t -> ((Oasis_util.Ident.t * Oasis_util.Ident.t) list -> unit) -> unit
(** Registers the hook {!heal} runs once a partition is gone (replacing
    any earlier one). It receives the healed partition's (left, right)
    pairs, each of which was cut in both directions. The world wires it to
    its issuers: each one that appears in a pair and has no beat period
    re-sends its latest beat, so a dependant the partition kept it from
    reads its tombstones; an issuer the partition did not name sends
    nothing. A {!restart} does not run it; a restarted issuer re-sends from
    its own restart hook. *)

val heal_all : 'msg t -> unit

val is_cut : 'msg t -> Oasis_util.Ident.t -> Oasis_util.Ident.t -> bool
(** Whether traffic from the first node to the second is currently severed —
    by a partition, or because either endpoint was {!crash}ed. The event
    broker consults this so partitions cut notification channels too. A
    plain [Network.set_down] does not register here: the legacy lossy-link
    experiments keep their network-only semantics. *)

val set_hooks :
  'msg t -> Oasis_util.Ident.t -> on_crash:(unit -> unit) -> on_restart:(unit -> unit) -> unit
(** Registers crash/restart behaviour for a node. Re-registering replaces
    the hooks (a service decommissioned and re-created under the same
    ident). *)

val crash : 'msg t -> Oasis_util.Ident.t -> unit
(** Takes the node down, then runs its [on_crash] hook (if any). Idempotent
    while crashed. *)

val restart : 'msg t -> Oasis_util.Ident.t -> unit
(** Brings the node up, then runs its [on_restart] hook (if any). A no-op
    unless the node was crashed by {!crash}. If the hook raises — the node
    refused to resume, e.g. its durable decision-log chain failed
    verification — the node is rolled back to crashed (network down,
    [is_crashed] true) and the exception propagates to the caller. *)

val is_crashed : 'msg t -> Oasis_util.Ident.t -> bool
