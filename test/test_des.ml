module Heap = Harmony_des.Heap
module Sim = Harmony_des.Sim
module Resource = Harmony_des.Resource
module Rng = Harmony_numerics.Rng

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.push h 1.0 2;
  Heap.push h 1.0 3;
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> -1 in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ]
    [ first; second; third ]

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty peek" true (Heap.peek h = None);
  Heap.push h 2.0 20;
  Heap.push h 1.0 10;
  (match Heap.peek h with
  | Some (k, v) ->
      Alcotest.(check (float 1e-12)) "key" 1.0 k;
      Alcotest.(check int) "value" 10 v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "peek does not pop" 2 (Heap.size h);
  Alcotest.(check bool) "min key at most 1" true (Heap.min_key_le h 1.0);
  Alcotest.(check bool) "min key above pred 1" false (Heap.min_key_le h (Float.pred 1.0))

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 0;
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_pop_into () =
  let h = Heap.create () in
  Heap.push h 3.0 30;
  Heap.push h 1.0 10;
  Heap.push h 2.0 20;
  let dst = Float.Array.make 1 0.0 in
  Alcotest.(check int) "first" 10 (Heap.pop_into h dst);
  Alcotest.(check (float 0.0)) "first key" 1.0 (Float.Array.get dst 0);
  Alcotest.(check bool) "min_key_le below" false (Heap.min_key_le h 1.5);
  Alcotest.(check bool) "min_key_le at" true (Heap.min_key_le h 2.0);
  Alcotest.(check int) "second" 20 (Heap.pop_into h dst);
  Alcotest.(check (float 0.0)) "second key" 2.0 (Float.Array.get dst 0);
  Alcotest.(check int) "third" 30 (Heap.pop_into h dst);
  Alcotest.(check bool) "min_key_le empty" false (Heap.min_key_le h infinity);
  Alcotest.check_raises "empty" (Invalid_argument "Heap.pop_into: empty heap")
    (fun () -> ignore (Heap.pop_into h dst))

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains keys in order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (float_range (-1e3) 1e3))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

(* Differential reference for the flat heap: a sorted association
   list ordered by (key, insertion sequence) — the semantics of the
   previous boxed-entry heap.  Interleaved pushes and pops must
   dequeue identical (key, payload) sequences. *)
module Ref_heap = struct
  type t = { mutable entries : (float * int * int) list; mutable next_seq : int }

  let create () = { entries = []; next_seq = 0 }

  let push t key value =
    let rec insert = function
      | [] -> [ (key, t.next_seq, value) ]
      | (k, s, v) :: rest when k < key || (Float.equal k key && s < t.next_seq)
        ->
          (k, s, v) :: insert rest
      | rest -> (key, t.next_seq, value) :: rest
    in
    t.entries <- insert t.entries;
    t.next_seq <- t.next_seq + 1

  let pop t =
    match t.entries with
    | [] -> None
    | (k, _, v) :: rest ->
        t.entries <- rest;
        Some (k, v)
end

let prop_heap_matches_reference =
  (* Operation stream: [Some key] pushes (payload = op index), [None]
     pops from both and compares. *)
  QCheck2.Test.make ~name:"flat heap dequeues like the reference" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 200) (option (float_range 0.0 10.0)))
    (fun ops ->
      let h = Heap.create () in
      let r = Ref_heap.create () in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | Some key ->
              Heap.push h key i;
              Ref_heap.push r key i
          | None ->
              let a = Heap.pop h in
              let b = Ref_heap.pop r in
              if a <> b then ok := false)
        ops;
      (* Drain the rest. *)
      let rec drain () =
        match (Heap.pop h, Ref_heap.pop r) with
        | None, None -> ()
        | a, b ->
            if a <> b then ok := false
            else drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)

(* Events are ints dispatched to one handler; these tests give each
   event its own meaning through small lookup tables. *)

let test_sim_fires_in_order () =
  let log = ref [] in
  let sim = Sim.create (fun _ e -> log := [| "a"; "b"; "c" |].(e) :: !log) in
  Sim.schedule sim ~delay:2.0 1;
  Sim.schedule sim ~delay:1.0 0;
  Sim.schedule sim ~delay:3.0 2;
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "clock at last event" 3.0 (Sim.now sim)

let test_sim_handlers_can_schedule () =
  let count = ref 0 in
  let tick s e =
    incr count;
    if !count < 5 then Sim.schedule s ~delay:1.0 (e + 1)
  in
  let sim = Sim.create tick in
  Sim.schedule sim ~delay:1.0 0;
  Sim.run sim;
  Alcotest.(check int) "chain of events" 5 !count;
  Alcotest.(check (float 1e-12)) "clock" 5.0 (Sim.now sim)

let test_sim_until () =
  let fired = ref 0 in
  let sim = Sim.create (fun _ _ -> incr fired) in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) i
  done;
  Sim.run ~until:4.5 sim;
  Alcotest.(check int) "only early events" 4 !fired;
  Alcotest.(check (float 1e-12)) "clock parked at horizon" 4.5 (Sim.now sim);
  Alcotest.(check int) "rest still queued" 6 (Sim.pending sim)

let ignore_events (_ : Sim.t) (_ : int) = ()

let test_sim_negative_delay () =
  let sim = Sim.create ignore_events in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Sim.schedule sim ~delay:(-1.0) 0)

let test_sim_schedule_past () =
  let sim = Sim.create ignore_events in
  Sim.schedule sim ~delay:5.0 0;
  Sim.run sim;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time in the past")
    (fun () -> Sim.schedule_at sim ~time:1.0 0)

let test_sim_step () =
  let sim = Sim.create ignore_events in
  Alcotest.(check bool) "empty step" false (Sim.step sim);
  Sim.schedule sim ~delay:1.0 0;
  Alcotest.(check bool) "one step" true (Sim.step sim);
  Alcotest.(check bool) "drained" false (Sim.step sim)

(* ------------------------------------------------------------------ *)
(* Resource                                                            *)

(* A simulation over one resource whose events are request ids: a
   completion finishes service on [r] and runs [on_complete id]. *)
let resource_sim r on_complete =
  Sim.create (fun sim id -> Resource.finish sim r (fun _ id -> on_complete id) id)

let test_resource_serves_within_capacity () =
  let r = Resource.create ~capacity:2 () in
  let done_count = ref 0 in
  let sim = resource_sim r (fun _ -> incr done_count) in
  for id = 1 to 2 do
    if not (Resource.submit sim r ~event:id ~service_time:1.0) then
      Alcotest.fail "unexpected rejection"
  done;
  Alcotest.(check int) "both in service" 2 (Resource.busy r);
  Sim.run sim;
  Alcotest.(check int) "both completed" 2 !done_count;
  Alcotest.(check int) "counter" 2 (Resource.completed r)

let test_resource_queues_fifo () =
  let r = Resource.create ~capacity:1 () in
  let names = [| "first"; "second"; "third" |] in
  let order = ref [] in
  let sim = resource_sim r (fun id -> order := names.(id) :: !order) in
  let submit id service_time =
    ignore (Resource.submit sim r ~event:id ~service_time : bool)
  in
  submit 0 5.0;
  submit 1 1.0;
  submit 2 1.0;
  Alcotest.(check int) "two waiting" 2 (Resource.queued r);
  Sim.run sim;
  Alcotest.(check (list string)) "FIFO" [ "first"; "second"; "third" ] (List.rev !order)

let test_resource_rejects_when_full () =
  let r = Resource.create ~capacity:1 ~queue_limit:1 () in
  let sim = resource_sim r ignore in
  let rejected = ref 0 in
  for id = 1 to 3 do
    if not (Resource.submit sim r ~event:id ~service_time:1.0) then incr rejected
  done;
  (* 1 in service, 1 queued, 1 rejected. *)
  Alcotest.(check int) "one rejection" 1 !rejected;
  Alcotest.(check int) "rejected counter" 1 (Resource.rejected r);
  Sim.run sim;
  Alcotest.(check int) "two served" 2 (Resource.completed r)

let test_resource_zero_queue () =
  let r = Resource.create ~capacity:1 ~queue_limit:0 () in
  let sim = resource_sim r ignore in
  Alcotest.(check bool) "first served" true (Resource.submit sim r ~event:0 ~service_time:1.0);
  Alcotest.(check bool) "no waiting room" false
    (Resource.submit sim r ~event:1 ~service_time:1.0)

let test_resource_utilization () =
  let r = Resource.create ~capacity:1 () in
  let sim = resource_sim r ignore in
  ignore (Resource.submit sim r ~event:0 ~service_time:4.0 : bool);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "busy integral" 4.0 (Resource.utilization_time r)

let test_resource_invalid () =
  Alcotest.check_raises "capacity" (Invalid_argument "Resource.create: capacity < 1")
    (fun () -> ignore (Resource.create ~capacity:0 ()));
  Alcotest.check_raises "queue" (Invalid_argument "Resource.create: negative queue_limit")
    (fun () -> ignore (Resource.create ~capacity:1 ~queue_limit:(-1) ()))

(* Little's-law style check: an M/M/1 queue's simulated throughput
   matches the offered rate when utilization < 1.  Event 0 is an
   arrival, event 1 a service completion. *)
let test_mm1_throughput () =
  let rng = Rng.create 4 in
  let r = Resource.create ~capacity:1 () in
  let completed = ref 0 in
  let horizon = 50_000.0 in
  let sim =
    Sim.create (fun s e ->
        if e = 1 then Resource.finish s r (fun _ () -> incr completed) ()
        else begin
          ignore (Resource.submit s r ~event:1 ~service_time:(Rng.exponential rng 0.5) : bool);
          if Sim.now s < horizon then Sim.schedule s ~delay:(Rng.exponential rng 1.0) 0
        end)
  in
  Sim.schedule sim ~delay:0.0 0;
  Sim.run sim;
  let rate = float_of_int !completed /. Sim.now sim in
  Alcotest.(check bool) "throughput ~= arrival rate" true (Float.abs (rate -. 1.0) < 0.05)

(* Property: events always fire in nondecreasing time order, whatever
   the scheduling pattern. *)
let prop_sim_monotonic_time =
  QCheck2.Test.make ~name:"events fire in time order" ~count:100
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.0 100.0))
    (fun delays ->
      let times = ref [] in
      let sim = Sim.create (fun s _ -> times := Sim.now s :: !times) in
      List.iteri (fun i d -> Sim.schedule sim ~delay:d i) delays;
      Sim.run sim;
      let fired = List.rev !times in
      List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length fired - 1) fired)
        (List.tl fired))

(* Property: resource accounting conserves requests. *)
let prop_resource_conserves =
  QCheck2.Test.make ~name:"resource conserves requests" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 1 60) (float_range 0.1 5.0)))
    (fun (capacity, services) ->
      let r = Resource.create ~capacity ~queue_limit:2 () in
      let rejected = ref 0 and completed = ref 0 in
      let sim = resource_sim r (fun _ -> incr completed) in
      List.iteri
        (fun id service_time ->
          if not (Resource.submit sim r ~event:id ~service_time) then incr rejected)
        services;
      Sim.run sim;
      !completed + !rejected = List.length services
      && !completed = Resource.completed r
      && !rejected = Resource.rejected r)

(* Differential test of the ring-buffer wait queue against
   [Stdlib.Queue].  One server, unbounded queue: [Some s] submits a
   request with service time [s], [None] fires the next event.  The
   reference tracks the request in service and the FIFO backlog; every
   completion must carry the reference's id at the reference's time,
   and the backlog lengths must agree after every operation.  Long
   submit runs grow the ring past its initial 16 slots; interleaved
   completions move its head, so later submits wrap around. *)
let prop_resource_ring_matches_queue =
  QCheck2.Test.make ~name:"resource ring buffer matches Queue" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency [ (3, map Option.some (float_range 0.0 3.0)); (2, pure None) ]))
    (fun ops ->
      let r = Resource.create ~capacity:1 () in
      let fired = ref [] in
      let sim = resource_sim r (fun id -> fired := id :: !fired) in
      let backlog = Queue.create () in
      let in_service = ref None in
      let ok = ref true in
      let start now (id, s) = in_service := Some (id, now +. s) in
      List.iteri
        (fun id op ->
          (match op with
          | Some s ->
              ignore (Resource.submit sim r ~event:id ~service_time:s : bool);
              if !in_service = None then start (Sim.now sim) (id, s)
              else Queue.push (id, s) backlog
          | None -> (
              fired := [];
              ignore (Sim.step sim : bool);
              match !in_service with
              | None -> if !fired <> [] then ok := false
              | Some (expected, at) ->
                  if !fired <> [ expected ] || not (Float.equal (Sim.now sim) at) then
                    ok := false;
                  in_service := None;
                  Option.iter (start at) (Queue.take_opt backlog)));
          if Resource.queued r <> Queue.length backlog then ok := false)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap peek" `Quick test_heap_peek;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    Alcotest.test_case "heap pop into" `Quick test_heap_pop_into;
    Alcotest.test_case "sim fires in order" `Quick test_sim_fires_in_order;
    Alcotest.test_case "sim handlers schedule" `Quick test_sim_handlers_can_schedule;
    Alcotest.test_case "sim until" `Quick test_sim_until;
    Alcotest.test_case "sim negative delay" `Quick test_sim_negative_delay;
    Alcotest.test_case "sim schedule past" `Quick test_sim_schedule_past;
    Alcotest.test_case "sim step" `Quick test_sim_step;
    Alcotest.test_case "resource capacity" `Quick test_resource_serves_within_capacity;
    Alcotest.test_case "resource fifo" `Quick test_resource_queues_fifo;
    Alcotest.test_case "resource rejects" `Quick test_resource_rejects_when_full;
    Alcotest.test_case "resource zero queue" `Quick test_resource_zero_queue;
    Alcotest.test_case "resource utilization" `Quick test_resource_utilization;
    Alcotest.test_case "resource invalid" `Quick test_resource_invalid;
    Alcotest.test_case "mm1 throughput" `Slow test_mm1_throughput;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_sorts; prop_heap_matches_reference; prop_sim_monotonic_time;
        prop_resource_conserves; prop_resource_ring_matches_queue;
      ]
