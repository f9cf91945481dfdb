(** Simulated durable storage (DESIGN.md §16).

    A crash drops a node's in-memory state; what it wrote here survives.
    One store per world, holding {!Oasis_util.Chunks} stores under opaque
    string keys (services prefix their own identifier). A service's live
    decision log appends straight into the store it {!set} here, and
    {!Oasis_trust.Decision_log.resume} rebuilds the log from the same
    store on restart. *)

type t

val create : unit -> t

val set : t -> string -> Oasis_util.Chunks.t -> unit
(** Keep [chunks] under a key, replacing whatever was there. The store is
    shared, not copied: later appends to it are durable. *)

val find : t -> string -> Oasis_util.Chunks.t option

val corrupt : t -> string -> byte:int -> bool
(** Flip the low bit of byte [byte mod size] of the stored bytes, in place
    — the adversary tampering with "disk" while the node is down. Returns
    [false] when there is nothing to corrupt. *)
