(* Waiting requests sit in a ring buffer of parallel arrays — int
   events and unboxed service times — so queueing allocates nothing
   once the buffer has grown to the run's peak backlog.  The busy-time
   integral and the time of its last update share a two-cell
   floatarray: mutable float fields of this mixed record would box on
   every store. *)
type t = {
  capacity : int;
  queue_limit : int option;
  mutable events : int array;
  mutable service : floatarray;
  mutable head : int;
  mutable len : int;
  mutable busy : int;
  mutable completed : int;
  mutable rejected : int;
  acc : floatarray;  (* [| busy integral; last change |] *)
}

let create ~capacity ?queue_limit () =
  if capacity < 1 then invalid_arg "Resource.create: capacity < 1";
  (match queue_limit with
  | Some q when q < 0 -> invalid_arg "Resource.create: negative queue_limit"
  | Some _ | None -> ());
  {
    capacity;
    queue_limit;
    events = [||];
    service = Float.Array.create 0;
    head = 0;
    len = 0;
    busy = 0;
    completed = 0;
    rejected = 0;
    acc = Float.Array.make 2 0.0;
  }

let capacity t = t.capacity
let busy t = t.busy
let queued t = t.len
let completed t = t.completed
let rejected t = t.rejected
let utilization_time t = Float.Array.get t.acc 0

let account t sim =
  let now = Sim.now sim in
  Float.Array.set t.acc 0
    (Float.Array.get t.acc 0
    +. (float_of_int t.busy *. (now -. Float.Array.get t.acc 1)));
  Float.Array.set t.acc 1 now

let start sim t event service_time =
  account t sim;
  t.busy <- t.busy + 1;
  Sim.schedule sim ~delay:service_time event

(* Unroll the ring into a buffer twice the size, oldest entry first. *)
let grow t =
  let cap = Array.length t.events in
  let bigger = Stdlib.max 16 (2 * cap) in
  let events = Array.make bigger 0 and service = Float.Array.make bigger 0.0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    events.(i) <- t.events.(j);
    Float.Array.set service i (Float.Array.get t.service j)
  done;
  t.events <- events;
  t.service <- service;
  t.head <- 0

let finish sim t k x =
  account t sim;
  t.busy <- t.busy - 1;
  t.completed <- t.completed + 1;
  k sim x;
  (* The freed server picks up the next queued request, if any. *)
  if t.busy < t.capacity && t.len > 0 then begin
    let i = t.head in
    t.head <- (i + 1) mod Array.length t.events;
    t.len <- t.len - 1;
    start sim t t.events.(i) (Float.Array.get t.service i)
  end

let submit sim t ~event ~service_time =
  if service_time < 0.0 then invalid_arg "Resource.submit: negative service time";
  if t.busy < t.capacity then begin
    start sim t event service_time;
    true
  end
  else if match t.queue_limit with None -> false | Some q -> t.len >= q then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    if t.len = Array.length t.events then grow t;
    let i = (t.head + t.len) mod Array.length t.events in
    t.events.(i) <- event;
    Float.Array.set t.service i service_time;
    t.len <- t.len + 1;
    true
  end
