(** Cooperative simulated processes via OCaml effect handlers.

    Distributed protocol logic (role activation with validation callbacks,
    cross-domain invocation chains) reads naturally in direct style. [Proc]
    lets such code suspend on virtual-time waits and on asynchronous replies
    while the {!Engine} interleaves all live processes deterministically.

    All [Proc] operations must be called from inside a process started with
    {!spawn}; calling them elsewhere raises [Effect.Unhandled]. *)

type 'a ivar
(** A write-once cell that processes can block on. *)

val spawn : Engine.t -> (unit -> unit) -> unit
(** Starts a process. It runs immediately until it first suspends; thereafter
    the engine resumes it as its waits complete. An uncaught exception in the
    process propagates out of the engine's [run]. *)

val sleep : float -> unit
(** Suspends the calling process for a virtual-time delay. *)

val ivar : unit -> 'a ivar

val fill : 'a ivar -> 'a -> unit
(** Fills the cell and wakes all readers. Filling twice raises
    [Invalid_argument]. May be called from any context (e.g. an engine
    callback), not only from inside a process. *)

val read : 'a ivar -> 'a
(** Returns the value, suspending the calling process until filled. *)
