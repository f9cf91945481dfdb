(** Unified observability: a metrics registry and a span/event tracer.

    The paper's active-security claims (Sect. 4, Fig. 5) are claims about
    runtime behaviour — how fast an env change cascades into revocation, how
    many messages a validation round costs. Every layer of the reproduction
    therefore reports into one shared registry owned by the world, and the
    registry is the only place a count lives: callers read it back through
    rendered keys ({!value}, the scenario-script [expect-metric] directive,
    [oasisctl stats]). [Service.stats] and [Civ.stats] are the only record
    views left; they read the same counters. Spans and events stream to
    pluggable sinks: an in-memory sink for tests and a JSONL exporter for
    tooling ([oasisctl trace]). See DESIGN.md §10.

    {b Cost model.} Metrics are always live: a counter increment is one
    mutable-field update. Tracing is off until a sink is attached; the
    hot-path idiom is

    {[ if Obs.tracing obs then Obs.event obs "net.drop" ~labels:[ ... ] ]}

    so a sink-less ("null") configuration pays one load-and-branch per
    potential event and allocates nothing. *)

type label = string * string
(** A key/value pair qualifying a metric or event, e.g. [("cause", "link_loss")]. *)

(** Monotone integer counters: nothing zeroes one, so a phase is measured
    as the difference of two reads. *)
module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** Last-value float gauges. *)
module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

(** Streaming histograms (count / sum / min / max; no buckets — the
    experiments report aggregates). One histogram records one unit,
    virtual seconds or wall seconds; the name says which. *)
module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** [nan] while empty. *)

  val min : t -> float
  val max : t -> float
end

type t
(** A registry plus tracer. Each {!Oasis_core.World} owns one; components
    created outside a world default to a private instance. *)

val create : ?now:(unit -> float) -> unit -> t
(** [now] supplies event timestamps — virtual time when driven by an
    engine. Defaults to a constant 0 clock. *)

val tracing : t -> bool
(** [true] iff at least one sink is attached. Guard event construction with
    this so disabled tracing costs one branch. *)

(** {1 Registry} *)

val counter : t -> ?labels:label list -> string -> Counter.t
(** Finds or creates the counter registered under [name] and [labels]
    (label order is irrelevant). Raises [Invalid_argument] if the key is
    registered as a different metric kind. *)

val gauge : t -> ?labels:label list -> string -> Gauge.t
val histogram : t -> ?labels:label list -> string -> Histogram.t


val metric_values : t -> (string * float) list
(** Every registered metric as [(rendered key, value)], sorted by key. A
    rendered key is [name] or [name{k=v,k2=v2}] with labels sorted by key,
    the format {!value} and the scenario-script [expect-metric] directive
    use.
    Histograms expand into [name.count], [name.sum], [name.mean],
    [name.max] entries. *)

val value : t -> string -> float option
(** Looks one rendered key up in {!metric_values}. *)

(** {1 Tracing} *)

type phase = Begin | End | Instant

type event = {
  seq : int;  (** 1-based, strictly increasing per registry: total order *)
  at : float;  (** virtual time from [now] *)
  name : string;
  phase : phase;
  span : int;  (** joins the Begin/End pair of one span; 0 for instants *)
  labels : label list;
}

type sink = event -> unit

val attach : t -> sink -> unit
(** Sinks receive every subsequent event, in attach order. Attaching the
    first sink turns {!tracing} on. *)

val detach_all : t -> unit
(** Removes every sink and turns tracing off. *)

val event : t -> ?labels:label list -> string -> unit
(** Emits an [Instant] event; a no-op without sinks. *)

val last_seq : t -> int
(** Sequence number of the most recently emitted event; 0 before any event
    (or while tracing is off). Decision-provenance records store this to
    correlate an audit-log entry with the trace neighbourhood it was made
    in. *)

val span : t -> ?labels:label list -> string -> (unit -> 'a) -> 'a
(** Runs the thunk between a [Begin] and an [End] event sharing a fresh
    span id; the [End] carries a ["wall_ms"] label with the elapsed
    wall-clock duration (monotonic clock, not CPU time). Without sinks the thunk runs with no other work. An exception
    still emits the [End] (labelled ["error"]) and re-raises. *)

val memory_sink : unit -> sink * (unit -> event list)
(** An in-memory sink and a function returning everything captured so far,
    in emission order. *)

(** {1 JSONL export}

    One event per line:
    [{"seq":12,"ts":0.004,"ph":"I","span":0,"name":"net.drop","labels":{"cause":"link_loss"}}] *)

val json_string : string -> string
(** A JSON string literal, quotes included: the one escaper every JSON
    writer in the library and the CLI uses. *)

val event_to_jsonl : event -> string
(** Without the trailing newline. *)

val event_of_jsonl : string -> (event, string) result
(** Parses and schema-checks one line: required fields [seq] (positive
    integer), [ts] (number), [ph] (["B"|"E"|"I"]), [span] (non-negative
    integer), [name] (non-empty string), [labels] (object of strings).
    Round-trips {!event_to_jsonl} exactly. *)

val validate_jsonl_line : string -> (unit, string) result
(** {!event_of_jsonl} with the event discarded — the schema check
    [oasisctl trace --check] and [make trace-smoke] run. *)
