(** A binary min-heap keyed by float priority with FIFO tie-breaking.

    The event queue of the discrete-event simulator: events at equal
    times fire in insertion order, which keeps simulations
    deterministic.

    The heap is monomorphic — unboxed float keys and int payloads on
    parallel arrays — so push/pop allocate nothing; callers that need
    richer payloads encode them into the int (as {!Sim}'s callers
    do with client and step). *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool
val push : t -> float -> int -> unit

val peek : t -> (float * int) option
(** Smallest key (earliest inserted among equals), without removing. *)

val pop : t -> (float * int) option
(** Remove and return the smallest key. *)

val min_key_le : t -> float -> bool
(** [min_key_le h bound]: the heap is non-empty and its smallest key
    is [<= bound] — the horizon test, without boxing the key. *)

val pop_into : t -> floatarray -> int
(** [pop_into h dst] removes the minimum, stores its key in cell 0 of
    [dst] and returns its payload, without allocating.
    @raise Invalid_argument on an empty heap. *)

val clear : t -> unit
(** Empty the heap, keeping its storage for reuse. *)
