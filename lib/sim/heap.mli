(** Minimal binary min-heap keyed by [(time, sequence)].

    The sequence number breaks ties so that events scheduled for the same
    instant fire in scheduling order — a determinism requirement for
    replayable simulations.

    Storage is three parallel arrays (the time column is an unboxed float
    array), so a push allocates nothing and a {!pop_min} returns without
    allocating. Popped and filtered-out slots are overwritten with the
    [dummy] value supplied at creation, so the heap never retains a value
    (and the event closure it carries) past its removal; the arrays shrink
    when occupancy falls below a quarter of capacity. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] is a sentinel used to clear vacated slots; it is never returned
    by {!pop_min}. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val min_time : 'a t -> float
(** The key of the minimum element. Raises [Invalid_argument] when empty. *)

val pop_min : 'a t -> 'a
(** Removes the minimum element and returns its value, allocating nothing
    ({!min_time} reads its key first). Raises [Invalid_argument] when
    empty. *)

val peek_time : 'a t -> float option
(** The key of the minimum element without removing it. *)

val filter_in_place : 'a t -> ('a -> bool) -> unit
(** Drops every element whose value fails the predicate, clears the vacated
    slots, and restores the heap property in O(n) (Floyd heapify). Used by
    the engine to compact cancelled-timer tombstones. *)
