(* Events are plain ints on the heap's payload slot, dispatched to the
   one handler given at [create], so scheduling allocates nothing: the
   caller encodes whatever an event means (which client, which step)
   into the int.  The clock lives in a one-cell floatarray: a mutable
   float field in this mixed record would box on every event. *)
type t = { clock : floatarray; events : Heap.t; handler : t -> int -> unit }

let create handler = { clock = Float.Array.make 1 0.0; events = Heap.create (); handler }
let now t = Float.Array.get t.clock 0

let schedule_at t ~time event =
  if time < now t then invalid_arg "Sim.schedule_at: time in the past";
  Heap.push t.events time event

let schedule t ~delay event =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Heap.push t.events (now t +. delay) event

let pending t = Heap.size t.events

let step t =
  if Heap.is_empty t.events then false
  else begin
    let event = Heap.pop_into t.events t.clock in
    t.handler t event;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while Heap.min_key_le t.events horizon do
        t.handler t (Heap.pop_into t.events t.clock)
      done;
      Float.Array.set t.clock 0 (Float.max (now t) horizon)
