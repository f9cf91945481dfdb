(** Heartbeat emitters and liveness monitors.

    Fig. 5 labels its event channels "heartbeats or change events": instead
    of (or in addition to) explicit invalidation events, an issuing service
    may emit periodic beats asserting it is alive, and a dependent service
    treats a missed beat as the loss of everything it watches there. This
    module provides both halves, so the E5 ablation can compare the two
    monitoring disciplines (DESIGN.md §6). What a beat says beyond liveness
    is the caller's payload; a monitor without a deadline follows the same
    feed when its beats are change events rather than periodic. *)

type emitter

val start_emitter :
  ?src:Oasis_util.Ident.t ->
  'a Broker.t ->
  Oasis_sim.Engine.t ->
  topic:Broker.topic ->
  period:float ->
  beat:(unit -> 'a) ->
  emitter
(** Publishes [beat ()] on [topic] every [period] until {!stop_emitter}: the
    payload is built at each tick. The first beat fires one period after
    the start. [src] names the emitting node so beats are subject to the
    broker's partition filter; without it beats pass through partitions
    (legacy behaviour). Every beat counts under [hb.beats] in the broker's
    registry. *)

val stop_emitter : emitter -> unit
(** Stopping models the issuer falling silent: beats cease and monitors
    fire after their deadline. Idempotent. Cancels the underlying recurring
    engine timer, so a stopped emitter holds no live closure. *)

type monitor

val watch :
  ?on_beat:('a -> unit) ->
  ?owner:Oasis_util.Ident.t ->
  ?deadline:float ->
  'a Broker.t ->
  Oasis_sim.Engine.t ->
  topic:Broker.topic ->
  on_miss:(unit -> unit) ->
  monitor
(** Calls [on_miss] once if no beat arrives on [topic] for [deadline]
    virtual seconds (measured from the start of the watch, then from each
    beat). After a miss the monitor stops. Without a [deadline] the monitor
    never misses: it follows a feed with no period, whose beats come only
    when there is news (change events). [on_beat] runs on each beat, after
    the deadline clock has restarted (default: nothing). [owner] identifies
    the watching node for owner-scoped broker operations (partition
    filtering); each monitor defaults to its own fresh ident, so concurrent
    monitors never collide. Raises [Invalid_argument] if [deadline] is not
    positive. *)

val cancel_watch : monitor -> unit
(** Stops the monitor without firing [on_miss]. Idempotent. *)
