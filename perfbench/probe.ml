(* Timing and tracing at the benchmark boundary.

   The library never reads a wall clock (lint rule D1), so the
   monotonic clock is read here, around the benchmark's own calls into
   the library and inside the public hooks the library exposes
   (objective [eval]/[batch] fields, analyzer classifiers, journal
   sink wrappers).

   Untraced units time only what the end-to-end metrics need.  Traced
   units additionally install the per-layer wrappers and record spans
   into one in-memory telemetry handle per domain (pool workers
   included), stamped by the same monotonic clock; {!write_trace}
   writes them out at exit as segmented JSONL that [harmony_trace self]
   reads. *)

module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Objective = Harmony_objective.Objective
module Stats = Harmony_numerics.Stats

let now_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)
let since_s t0 = float_of_int (since_ns t0) *. 1e-9

(* Run [f] and return its result with its wall time in seconds. *)
let wall f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let tracing = Atomic.make false

type domain_trace = { dom : int; tel : Telemetry.t }

let traces_lock = Mutex.create ()
let traces = ref []

let clock_us () = Int64.to_float (now_ns ()) *. 1e-3

(* Each domain records into its own handle, so pool workers never
   contend on a shared trace; the registry lock is taken once per
   domain, when its buffer is created. *)
let trace_key =
  Domain.DLS.new_key (fun () ->
      let t = { dom = (Domain.self () :> int); tel = Telemetry.create ~clock:clock_us () } in
      Mutex.protect traces_lock (fun () -> traces := t :: !traces);
      t)

let span name f =
  if Atomic.get tracing then Telemetry.span (Domain.DLS.get trace_key).tel name f
  else f ()

(* One segment per domain: span nesting is only meaningful within a
   domain, and [harmony_trace] pairs begin/end events per segment. *)
let write_trace path =
  let all =
    Mutex.protect traces_lock (fun () -> !traces)
    |> List.filter (fun t -> Telemetry.event_count t.tel > 0)
    |> List.sort (fun a b -> Int.compare a.dom b.dom)
  in
  let text =
    String.concat ""
      (List.map
         (fun t ->
           Printf.sprintf "{\"type\":\"segment\",\"name\":\"domain%d\"}\n%s" t.dom
             (Export.jsonl t.tel))
         all)
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  text

(* ------------------------------------------------------------------ *)
(* Accumulators: call count, busy nanoseconds and minor words, safe to
   update from any pool domain.                                        *)

type acc = { calls : int Atomic.t; ns : int Atomic.t; words : int Atomic.t }

let acc () = { calls = Atomic.make 0; ns = Atomic.make 0; words = Atomic.make 0 }

let timed ?name a f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = match name with Some n -> span n f | None -> f () in
  ignore (Atomic.fetch_and_add a.ns (since_ns t0));
  ignore (Atomic.fetch_and_add a.words (int_of_float (Gc.minor_words () -. w0)));
  Atomic.incr a.calls;
  r

let calls a = Atomic.get a.calls
let busy_s a = float_of_int (Atomic.get a.ns) *. 1e-9

let per_call a v = if calls a = 0 then 0.0 else v /. float_of_int (calls a)
let us_per_call a = per_call a (float_of_int (Atomic.get a.ns) *. 1e-3)
let ms_per_call a = per_call a (float_of_int (Atomic.get a.ns) *. 1e-6)
let words_per_call a = per_call a (float_of_int (Atomic.get a.words))

(* ------------------------------------------------------------------ *)
(* Latency samples, appendable from any domain.                        *)

type samples = { lock : Mutex.t; mutable data : float array; mutable len : int }

let samples () = { lock = Mutex.create (); data = Array.make 1024 0.0; len = 0 }

let add s v =
  Mutex.protect s.lock (fun () ->
      if s.len = Array.length s.data then begin
        let bigger = Array.make (2 * s.len) 0.0 in
        Array.blit s.data 0 bigger 0 s.len;
        s.data <- bigger
      end;
      s.data.(s.len) <- v;
      s.len <- s.len + 1)

let add_n s v n =
  for _ = 1 to n do
    add s v
  done

let to_array s = Mutex.protect s.lock (fun () -> Array.sub s.data 0 s.len)

(* [p] in [0, 100]; 0 for an empty sample, so a layer a workload never
   touches reads 0 rather than failing. *)
let pct a p = if Array.length a = 0 then 0.0 else Stats.percentile a p
let median a = pct a 50.0
let sum a = Array.fold_left ( +. ) 0.0 a

(* ------------------------------------------------------------------ *)
(* Objective hooks                                                     *)

(* Time every evaluation of [o] into [a] (with a span named [name]).
   Keeps [o]'s batch strategy, so a deterministic objective still fans
   its batches out across the pool, each evaluation timed on the
   domain that runs it. *)
let timed_evals ?name a (o : Objective.t) =
  { o with Objective.eval = (fun c -> timed ?name a (fun () -> o.Objective.eval c)) }

let memo_hit_ratio (st : Objective.stats) =
  if st.Objective.evals = 0 then 0.0
  else float_of_int st.Objective.hits /. float_of_int st.Objective.evals

let add_stats (a : Objective.stats) (b : Objective.stats) =
  {
    Objective.hits = a.Objective.hits + b.Objective.hits;
    misses = a.Objective.misses + b.Objective.misses;
    evals = a.Objective.evals + b.Objective.evals;
    faults = a.Objective.faults + b.Objective.faults;
    retries = a.Objective.retries + b.Objective.retries;
  }

(* ------------------------------------------------------------------ *)
(* Set-up and the measured window                                      *)

(* Live major heap after a full collection.  The high-water mark
   (top_heap_words) depends on when major cycles happen to finish, and
   read 22 or 31 MB on runs of one workload; the live size at a fixed
   point of the work does not. *)
let live_mb () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8) /. 1_048_576.0

(* [live_mb] once per run, at the workload's point of peak load in its
   first untraced unit; returns the seconds it took, so the caller can
   keep them out of the unit's wall. *)
let sample_live slot =
  if Float.equal !slot 0.0 then begin
    let t0 = now_ns () in
    slot := live_mb ();
    since_s t0
  end
  else 0.0

(* Median wall of [times] fresh constructions; [teardown] releases
   every copy but the last, which the run keeps. *)
let setup ~times ~teardown make =
  let walls = Array.make times 0.0 in
  let kept = ref None in
  for i = 0 to times - 1 do
    let v, dt = wall make in
    walls.(i) <- dt;
    (match !kept with Some old -> teardown old | None -> ());
    kept := Some v
  done;
  match !kept with
  | Some v -> (v, median walls)
  | None -> invalid_arg "Probe.setup: times < 1"

type mode =
  | Warmup  (* outputs checked, nothing recorded *)
  | Plain  (* untraced: the end-to-end figures *)
  | Traced  (* per-layer wrappers and spans on: the per-layer figures *)

(* Run whole units until [seconds] have elapsed, at least [min_units]
   of them, after an optional warm-up unit that pays heap growth and
   first-touch costs outside the window.  In a traced run the units
   alternate untraced / traced, so both halves see the same machine
   conditions.  [unit_fn ~mode] returns the unit's wall time.  Returns
   the untraced and the traced walls. *)
let run_units ~seconds ~min_units ~warmup ~trace unit_fn =
  let run mode =
    (* Every unit starts from a collected heap, so it does not inherit
       major-GC debt from the units (and checks) before it. *)
    Gc.compact ();
    Atomic.set tracing (mode = Traced);
    Fun.protect ~finally:(fun () -> Atomic.set tracing false) (fun () -> unit_fn ~mode)
  in
  if warmup then ignore (run Warmup);
  let t0 = now_ns () in
  let plain = ref [] and traced_walls = ref [] in
  let i = ref 0 in
  let min_units = if trace then max 2 min_units else min_units in
  while !i < min_units || since_s t0 < seconds do
    (if trace && !i mod 2 = 1 then traced_walls := run Traced :: !traced_walls
     else plain := run Plain :: !plain);
    incr i
  done;
  (Array.of_list (List.rev !plain), Array.of_list (List.rev !traced_walls))

(* ------------------------------------------------------------------ *)
(* What a workload hands back to the report.                           *)

type check = { mutable attempted : int; mutable failed : int; mutable first : string option }

let check () = { attempted = 0; failed = 0; first = None }

let expect c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.attempted <- c.attempted + 1;
      if not ok then begin
        c.failed <- c.failed + 1;
        if Option.is_none c.first then c.first <- Some msg
      end)
    fmt

type outcome = {
  setup_s : float;
  peak_live_mb : float;  (* live heap at the point of peak load *)
  plain_units : float array;  (* untraced unit walls, seconds *)
  traced_units : float array;
  op_ms : float array;  (* per-operation latencies of untraced units *)
  ops_per_s : float;
  system_share : float;  (* share of untraced unit wall inside calls into the system *)
  checks : check;
  layers : (string * float) list;  (* per-layer figures from the traced units *)
  report : (string * float * string) list;  (* figures under the workload's own names *)
}
