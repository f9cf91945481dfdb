(** Discrete-event simulation engine.

    The reproduction substitutes a deterministic discrete-event simulator for
    the paper's distributed deployment (DESIGN.md §3). The engine owns the
    virtual clock; all asynchrony — network delivery, event-channel
    notification, heartbeats — is expressed as thunks scheduled at virtual
    times and executed in [(time, scheduling order)] order.

    Timer lifecycle (DESIGN.md §14): cancelling releases the event closure
    immediately, and cancelled entries are compacted out of the heap once
    tombstones exceed half of it, so heap occupancy stays proportional to
    the number of live timers under arbitrary schedule/cancel churn. *)

type t

type cancel
(** Handle to a scheduled event; see {!cancel}. *)

val create : unit -> t

val clock : t -> Oasis_util.Clock.t
val now : t -> float

val schedule : t -> after:float -> (unit -> unit) -> cancel
(** [schedule t ~after f] runs [f] at [now t +. after]. [after < 0] raises
    [Invalid_argument]. *)

val schedule_at : t -> at:float -> (unit -> unit) -> cancel

val cancel : t -> cancel -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. The
    event closure is released immediately; the heap slot is reclaimed lazily
    (at fire time or by tombstone compaction). Cancelling an {!every} handle
    stops the recurrence, including from within its own callback. *)

val every : t -> period:float -> (unit -> bool) -> cancel
(** [every t ~period f] runs [f] each [period]; stops when [f] returns
    [false] or when the returned handle is cancelled. Used for an issuer's heartbeat
    emitters and pollers — decommissioning must be able to stop them, so the
    handle is not optional. *)

val run : t -> unit
(** Executes events until the queue is empty, advancing the clock. *)

val run_until : t -> float -> unit
(** Executes events with time ≤ the horizon, then advances the clock to the
    horizon exactly. *)

val step : t -> bool
(** Executes the single next event; [false] if the queue was empty. *)

val pending : t -> int
(** Live (uncancelled) scheduled events. *)

val heap_size : t -> int
(** Physical heap entries, live plus not-yet-compacted tombstones; bounded
    by twice {!pending} (plus a small constant) by compaction. *)

val events_executed : t -> int
