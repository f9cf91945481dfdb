(** Topic-based publish/subscribe event middleware.

    OASIS "is closely integrated with an active, event-based middleware
    infrastructure ... one service can be notified of a change of state at
    another without any requirement for periodic polling" (Sect. 1, 4;
    ref [2] is the Cambridge Event Architecture). This broker supplies the
    primitive OASIS needs: asynchronous notification on named event
    channels. Fig. 5's "heartbeats or change events" are two ways of
    running one channel per issuer on it: [Oasis_core.Issuer_records]
    sends the issuer's beats, and the relying [Oasis_core.Monitor] keeps
    the deadline on them.

    Notifications are delivered after a configurable latency through the
    simulation engine, and counted in the broker's registry
    ([broker.published], [broker.notified], [broker.suppressed{cause=...}]
    with causes [unsubscribed] and [partitioned]), so experiments can report
    event-channel traffic separately from RPC traffic. *)

type 'a t
(** A broker carrying payloads of type ['a]. *)

type topic = string
(** Event channels are named; OASIS uses one channel per issuer (e.g.
    ["hb:service#3"]), on which the issuer's beats name the credential
    records it revoked. *)

type subscription

val create : Oasis_sim.Engine.t -> notify_latency:float -> obs:Oasis_obs.Obs.t -> 'a t
(** [obs] is the registry publish/notify counters and trace events report
    into: the world's shared instance, or a test's own. *)

val subscribe :
  'a t -> topic -> owner:Oasis_util.Ident.t -> (topic -> 'a -> unit) -> subscription
(** The callback fires once per matching publish made after the
    subscription, after the notification latency. [owner] identifies the
    subscribing service for partition filtering, statistics and
    debugging. *)

val unsubscribe : 'a t -> subscription -> unit
(** Idempotent, O(1) amortised: the entry is flagged and swept out of the
    topic bucket once flagged entries outnumber live ones. Publishes in
    flight at unsubscribe time are suppressed at delivery and counted under
    [broker.suppressed{cause=unsubscribed}], so every scheduled notification
    is accounted for: for each publish, subscribers-at-publish-time =
    [broker.notified] + the [broker.suppressed{cause=...}] sum. *)

val publish : src:Oasis_util.Ident.t -> 'a t -> topic -> 'a -> unit
(** Callable from any context. Delivery order to distinct subscribers of one
    publish follows subscription order; distinct publishes to one subscriber
    arrive in publish order (FIFO per link latency). [src] names the
    publishing node; every delivery is subject to the partition filter
    ({!set_filter}). The broker keeps nothing once a publish is delivered: a
    notification the filter suppresses is lost, and the publisher repairs
    the loss (an issuer re-sends its latest beat after a heal).

    A publish allocates O(1): the audience is snapshotted by (array, length)
    rather than a list copy, and the whole fan-out rides a single engine
    event instead of one per subscriber. *)

val set_filter : 'a t -> (publisher:Oasis_util.Ident.t -> owner:Oasis_util.Ident.t -> bool) option -> unit
(** Installs a delivery filter, consulted at delivery time with each
    publish's [src]: [true] means the channel from publisher to
    subscriber owner is cut and the notification is suppressed (counted
    under [broker.suppressed{cause=partitioned}]). The world wires this to
    [Fault.is_cut] so partitions cut event channels alongside the
    network. *)
