(** Simulated message-passing network.

    Substitutes for the paper's real inter-service communication. Nodes are
    named by {!Oasis_util.Ident.t}; links have latency, deterministic jitter
    and an optional loss probability; traffic counters feed the benchmark
    harness (messages and round trips are the paper-shape quantities we
    report, see DESIGN.md §4).

    The counters live in the network's registry ({!obs}): [net.sent]
    (messages handed to the network, lost ones included), [net.delivered],
    [net.rpcs] (completed round trips), [net.bytes_sent] (per [size_of]) and
    one [net.dropped{cause=...}] per drop cause ([src_down], [dst_missing],
    [partitioned], [link_loss], [in_flight_down], [handler_error]). The
    total drop count is the sum over the causes, and once nothing is in
    flight [net.sent] = [net.delivered] + that sum.

    The payload type ['msg] is chosen by the instantiating layer (the OASIS
    core defines a protocol variant). RPC handlers run inside {!Proc}
    processes, so a handler may itself perform nested RPCs — exactly the
    structure of Fig. 3, where the local EHR service calls back the hospital
    and onward to the national service. *)

type 'msg t

type 'msg handler = {
  on_oneway : src:Oasis_util.Ident.t -> 'msg -> unit;
      (** One-way messages: event notifications, heartbeats. *)
  on_rpc : src:Oasis_util.Ident.t -> 'msg -> 'msg;
      (** Request/response; runs in a process and may suspend. *)
}

val create :
  Engine.t ->
  Oasis_util.Rng.t ->
  default_latency:float ->
  ?default_jitter:float ->
  ?size_of:('msg -> int) ->
  ?obs:Oasis_obs.Obs.t ->
  unit ->
  'msg t
(** [size_of] estimates a message's wire size for the byte counters;
    defaults to 0 (bytes not tracked). [obs] is the registry traffic
    counters and trace events report into — normally the world's shared
    instance; defaults to a private one so standalone networks behave as
    before. *)

val engine : 'msg t -> Engine.t

val obs : 'msg t -> Oasis_obs.Obs.t
(** The registry this network reports into. *)

val add_node : 'msg t -> Oasis_util.Ident.t -> 'msg handler -> unit
(** Registering the same node twice raises [Invalid_argument]. *)

val remove_node : 'msg t -> Oasis_util.Ident.t -> unit
(** Also purges every link override touching the node (both directions), so
    a later node reusing the ident starts from the network defaults. *)

val set_link :
  'msg t -> Oasis_util.Ident.t -> Oasis_util.Ident.t -> latency:float -> ?jitter:float -> ?loss:float -> unit -> unit
(** Directed link override; unset pairs use the network defaults. *)

val set_down : 'msg t -> Oasis_util.Ident.t -> bool -> unit
(** A down node neither sends nor receives; messages to/from it are dropped
    (counted). Used for failure injection. *)

val is_down : 'msg t -> Oasis_util.Ident.t -> bool
(** [true] for down or unregistered nodes. *)

val block_pair : 'msg t -> Oasis_util.Ident.t -> Oasis_util.Ident.t -> unit
(** Severs the directed [src -> dst] pair: messages are dropped at the
    sender (counted under the [partitioned] cause). Blocks are refcounted so
    overlapping partitions compose; call {!unblock_pair} once per block.
    {!Fault} installs these in both directions for named partitions. *)

val unblock_pair : 'msg t -> Oasis_util.Ident.t -> Oasis_util.Ident.t -> unit
(** Releases one block on the pair; a no-op when none is held. *)

val pair_blocked : 'msg t -> Oasis_util.Ident.t -> Oasis_util.Ident.t -> bool
(** Whether any block is currently held on the directed pair. *)

val send : 'msg t -> src:Oasis_util.Ident.t -> dst:Oasis_util.Ident.t -> 'msg -> unit
(** One-way send; delivery is scheduled after link latency. Sends to unknown
    nodes are dropped and counted. Callable from any context. *)

exception Rpc_dropped

val rpc :
  ?timeout:float -> 'msg t -> src:Oasis_util.Ident.t -> dst:Oasis_util.Ident.t -> 'msg -> 'msg
(** Request/response round trip; must be called inside a {!Proc} process.
    If the request or the response is lost and [timeout] is given, raises
    {!Proc.Timeout} after that much virtual time; without a timeout, a loss
    raises {!Rpc_dropped} immediately at the point of loss detection
    (simulator privilege: we know the packet died — this keeps lossless
    experiments free of timeout tuning). A handler that raises fails the
    round trip with {!Rpc_dropped} in both modes (counted under the
    [handler_error] drop cause and recorded as a trace event) — the caller
    is never stranded on an unfilled ivar. *)

val set_tracer :
  'msg t -> (src:Oasis_util.Ident.t -> dst:Oasis_util.Ident.t -> 'msg -> unit) option -> unit
(** Observes every message handed to the network (including ones that will
    be lost), before delivery scheduling. For debugging and packet traces;
    [None] removes the tracer. *)
