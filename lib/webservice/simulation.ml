open Harmony_objective
module Rng = Harmony_numerics.Rng
module Stats = Harmony_numerics.Stats
module Sim = Harmony_des.Sim
module Resource = Harmony_des.Resource

type options = {
  clients : int;
  think_ms : float;
  warmup_ms : float;
  horizon_ms : float;
  backoff_ms : float;
  seed : int;
  session_persistence : float;
}

let default_options =
  { clients = 120; think_ms = 1000.0; warmup_ms = 20_000.0; horizon_ms = 120_000.0;
    backoff_ms = 800.0; seed = 1; session_persistence = 0.0 }

type result = {
  wips : float;
  wipsb : float;
  wipso : float;
  completions : int;
  rejections : int;
  cache_hits : int;
  mean_response_ms : float;
  p50_response_ms : float;
  p95_response_ms : float;
  utilization : float * float * float;
}

(* Response times accumulate in a growable floatarray owned by an
   arena, not a cons list: a 120-client run completes ~12k
   interactions, and list cells plus the Array.of_list + sort copies
   at percentile time dominated the simulation's allocations.  The
   running total also lives in the arena ([totals]) because a mutable
   float field in a mixed record boxes on every store. *)
module Arena = struct
  type t = {
    mutable response_times : floatarray;
    mutable count : int;
    totals : floatarray;
  }

  let create ?(capacity = 4096) () =
    {
      response_times = Float.Array.create (Stdlib.max 16 capacity);
      count = 0;
      totals = Float.Array.make 1 0.0;
    }

  let reset a =
    a.count <- 0;
    Float.Array.set a.totals 0 0.0

  let push a v =
    let cap = Float.Array.length a.response_times in
    if a.count = cap then begin
      let bigger = Float.Array.create (2 * cap) in
      Float.Array.blit a.response_times 0 bigger 0 a.count;
      a.response_times <- bigger
    end;
    Float.Array.set a.response_times a.count v;
    a.count <- a.count + 1;
    Float.Array.set a.totals 0 (Float.Array.get a.totals 0 +. v)
end

type counters = {
  mutable completions : int;
  mutable browse : int;
  mutable order : int;
  mutable rejections : int;
  mutable cache_hits : int;
}

(* The default arena is per-domain: a domain runs one simulation at a
   time, each run resets it, and its capacity persists across
   evaluations — so the steady-state hot path never grows it. *)
let arena_key = Domain.DLS.new_key (fun () -> Arena.create ())

(* An event is [client lsl 3 lor kind].  Kinds: 0 think time over
   (draw the next interaction), 1 backoff over (resubmit the same
   interaction), 2/3/4 service done at the proxy/app/db tier. *)
let event c kind = (c lsl 3) lor kind

let run ?(options = default_options) ?arena config ~mix =
  if options.clients < 1 then invalid_arg "Simulation.run: clients < 1";
  if options.horizon_ms <= 0.0 then invalid_arg "Simulation.run: horizon <= 0";
  let fx = Effects.derive config ~mix in
  let rng = Rng.create options.seed in
  let tier servers queue_limit = Resource.create ~capacity:servers ~queue_limit () in
  let proxy = tier (Effects.proxy_servers fx) (Effects.proxy_queue_limit fx) in
  let app = tier (Effects.app_servers fx) (Effects.app_queue_limit fx) in
  let db = tier (Effects.db_servers fx) (Effects.db_queue_limit fx) in
  let arena =
    match arena with Some a -> a | None -> Domain.DLS.get arena_key
  in
  Arena.reset arena;
  let k = { completions = 0; browse = 0; order = 0; rejections = 0; cache_hits = 0 } in
  let measure_start = options.warmup_ms in
  let measure_end = options.warmup_ms +. options.horizon_ms in
  let in_window sim = let t = Sim.now sim in t >= measure_start && t < measure_end in
  (* Per-interaction means, computed once per run instead of once per
     request, indexed by [Tpcw.index]. *)
  let per_interaction f = Float.Array.map_from_array f Tpcw.all in
  let hit_p = per_interaction (Effects.cache_hit_probability fx) in
  let proxy_ms =
    per_interaction (fun i ->
        let h = Effects.cache_hit_probability fx i in
        Float.max 1e-6
          ((h *. Effects.proxy_hit_ms fx i) +. ((1.0 -. h) *. Effects.proxy_forward_ms fx i)))
  in
  let app_ms = per_interaction (Effects.app_service_ms fx) in
  let db_ms = per_interaction (Effects.db_service_ms fx) in
  let sampler = Tpcw.sampler mix in
  (* Per-client state: the current (or, while thinking, the previous)
     interaction, -1 before the first, and when its request started. *)
  let interaction = Array.make options.clients (-1) in
  let started = Float.Array.make options.clients 0.0 in
  let reject sim c =
    if in_window sim then k.rejections <- k.rejections + 1;
    Sim.schedule sim ~delay:(Rng.exponential rng options.backoff_ms) (event c 1)
  in
  (* A completed interaction is recorded, then the browser thinks. *)
  let complete sim c =
    if in_window sim then begin
      k.completions <- k.completions + 1;
      (match Tpcw.category Tpcw.all.(interaction.(c)) with
      | Tpcw.Browse -> k.browse <- k.browse + 1
      | Tpcw.Order -> k.order <- k.order + 1);
      Arena.push arena (Sim.now sim -. Float.Array.get started c)
    end;
    Sim.schedule sim ~delay:(Rng.exponential rng options.think_ms) (event c 0)
  in
  let submit sim tier kind c mean =
    if not (Resource.submit sim tier ~event:(event c kind)
              ~service_time:(Rng.exponential rng mean))
    then reject sim c
  in
  let request sim c =
    Float.Array.set started c (Sim.now sim);
    submit sim proxy 2 c (Float.Array.get proxy_ms interaction.(c))
  in
  let after_proxy sim c =
    let i = interaction.(c) in
    if Rng.float rng 1.0 < Float.Array.get hit_p i then begin
      (* Served from cache: the hit cost was charged at the proxy via
         the blended service-time mean. *)
      if in_window sim then k.cache_hits <- k.cache_hits + 1;
      complete sim c
    end
    else submit sim app 3 c (Float.Array.get app_ms i)
  in
  let after_app sim c =
    let mean = Float.Array.get db_ms interaction.(c) in
    if mean <= 0.0 then complete sim c else submit sim db 4 c mean
  in
  (* One emulated browser's endless think/request cycle, as a state
     machine over int events.  Each browser remembers its previous
     interaction so sessions can persist within a Browse/Order
     category; a rejection retries the same interaction after a
     backoff. *)
  let handle sim e =
    let c = e lsr 3 in
    match e land 7 with
    | 0 ->
        interaction.(c) <-
          (if Float.equal options.session_persistence 0.0 then Tpcw.draw sampler rng
           else
             Tpcw.draw_next sampler rng ~persistence:options.session_persistence
               ~previous:interaction.(c));
        request sim c
    | 1 -> request sim c
    | 2 -> Resource.finish sim proxy after_proxy c
    | 3 -> Resource.finish sim app after_app c
    | _ -> Resource.finish sim db complete c
  in
  let sim = Sim.create handle in
  for c = 0 to options.clients - 1 do
    (* Stagger initial arrivals across one think time. *)
    Sim.schedule sim ~delay:(Rng.float rng options.think_ms) (event c 0)
  done;
  Sim.run ~until:measure_end sim;
  let seconds = options.horizon_ms /. 1000.0 in
  let utilization_of resource =
    Resource.utilization_time resource
    /. (measure_end *. float_of_int (Resource.capacity resource))
  in
  (* One in-place sort of the arena buffer serves both percentiles —
     no list-to-array copy, no per-percentile sorted copy. *)
  let p50, p95 =
    if k.completions = 0 then (0.0, 0.0)
    else begin
      let len = arena.Arena.count and buf = arena.Arena.response_times in
      Stats.sort_floatarray ~len buf;
      (Stats.percentile_sorted_floatarray ~len buf 50.0, Stats.percentile_sorted_floatarray ~len buf 95.0)
    end
  in
  {
    wips = float_of_int k.completions /. seconds;
    wipsb = float_of_int k.browse /. seconds;
    wipso = float_of_int k.order /. seconds;
    completions = k.completions;
    rejections = k.rejections;
    cache_hits = k.cache_hits;
    mean_response_ms =
      (if k.completions = 0 then 0.0
       else Float.Array.get arena.Arena.totals 0 /. float_of_int k.completions);
    p50_response_ms = p50;
    p95_response_ms = p95;
    utilization = (utilization_of proxy, utilization_of app, utilization_of db);
  }

let wips ?options config ~mix = (run ?options config ~mix).wips

let objective ?options ~mix () =
  Objective.create ~space:Wsconfig.space ~direction:Objective.Higher_is_better
    (fun c -> wips ?options (Wsconfig.of_config c) ~mix)
