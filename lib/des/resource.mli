(** A capacity-limited server pool with a bounded FIFO accept queue.

    Models one tier of the web-service pipeline: [capacity] parallel
    servers (worker processes / connections), and a waiting queue of
    at most [queue_limit] requests (the accept/backlog queue).  A
    request that arrives when all servers are busy and the queue is
    full is rejected — the paper's accept-count parameters control
    exactly this.

    A request is the int event its service completion fires on the
    {!Sim}; the handler for that event must call {!finish}. *)

type t

val create : capacity:int -> ?queue_limit:int -> unit -> t
(** [queue_limit] defaults to unbounded.  Requires [capacity >= 1] and
    [queue_limit >= 0]. *)

val capacity : t -> int
val busy : t -> int
val queued : t -> int

val submit : Sim.t -> t -> event:int -> service_time:float -> bool
(** Submit a request.  Either it starts service now (its [event] is
    scheduled [service_time] from now) or waits in FIFO order —
    [true] either way — or, if the queue is full, it is rejected and
    [submit] returns [false].  [service_time] is fixed at submission
    (sampled by the caller). *)

val finish : Sim.t -> t -> (Sim.t -> 'a -> unit) -> 'a -> unit
(** [finish sim t k x] ends one service when its event fires: it frees
    the server, runs the completed request's continuation [k sim x],
    and only then starts the oldest queued request if a server is
    free. *)

val utilization_time : t -> float
(** Integral of (busy servers) over simulation time so far: divide by
    elapsed time and capacity for average utilization. *)

val completed : t -> int
val rejected : t -> int
