(** Discrete-event simulation engine.

    A simulation is an event loop over a time-ordered heap of int
    events, all dispatched to the one handler given at {!create}; the
    handler receives the engine so it can read the clock and schedule
    further events.  What an int means is the caller's encoding (a
    client index and a step, say), so scheduling allocates nothing.
    Equal-time events fire in schedule order (deterministic). *)

type t

val create : (t -> int -> unit) -> t
(** [create handler]: every event fires as [handler sim event]. *)

val now : t -> float
(** Current simulation time (starts at 0). *)

val schedule : t -> delay:float -> int -> unit
(** Schedule an event [delay] time units from now.
    @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> time:float -> int -> unit
(** Schedule at an absolute time, which must not be in the past. *)

val pending : t -> int
(** Number of scheduled events not yet fired. *)

val run : ?until:float -> t -> unit
(** Fire events in time order until the queue empties, or — when
    [until] is given — until the clock would pass it (the clock is
    then left at [until]; remaining events stay queued). *)

val step : t -> bool
(** Fire exactly one event; [false] when the queue is empty. *)
