(* tune-des: the paper's pipeline on the discrete-event TPC-W simulator.

   One unit is one pipeline over a fresh experience database shared by
   two sessions: the first runs the shopping mix (prioritize, tune the
   top parameters, record the run), the second runs the ordering mix
   and warm-starts from that record.  DES evaluations are nearly all of
   the time, so DES-kernel and pool changes show here; the service and
   journal layers do nothing. *)

open Harmony
open Harmony_webservice
module Pool = Harmony_parallel.Pool
module Rng = Harmony_numerics.Rng
module Objective = Harmony_objective.Objective

type shape = {
  warmup_ms : float;  (* simulated warm-up per evaluation *)
  horizon_ms : float;  (* simulated measured interval per evaluation *)
  budget : int;  (* tuner evaluation budget per session *)
  max_points : int;  (* sensitivity sweep points per parameter *)
  top_n : int;
  samples : int;  (* observed requests behind each characteristics vector *)
}

let domains = 2

let shape ~tiny =
  if tiny then
    { warmup_ms = 1_000.; horizon_ms = 2_000.; budget = 12; max_points = 3; top_n = 2; samples = 50 }
  else
    { warmup_ms = 5_000.; horizon_ms = 20_000.; budget = 40; max_points = 6; top_n = 4; samples = 400 }

(* Everything the seed decides for one pipeline: the simulator's
   randomness and the two observed workload characterizations. *)
type inputs = { sim : Simulation.options; shop : float array; order : float array }

let sim_options shape ~seed =
  { Simulation.default_options with Simulation.warmup_ms = shape.warmup_ms; horizon_ms = shape.horizon_ms; seed }

let inputs shape rng =
  let sim = sim_options shape ~seed:(1 + Rng.int rng 1_000_000) in
  let shop = Tpcw.observed_frequencies rng Tpcw.shopping ~samples:shape.samples in
  let order = Tpcw.observed_frequencies rng Tpcw.ordering ~samples:shape.samples in
  { sim; shop; order }

(* Per-layer accumulators, filled by traced units only. *)
type layers = {
  des : Probe.acc;
  sweep : Probe.acc;  (* Session.prioritize *)
  tune : Probe.acc;  (* Session.tune *)
  mutable sweep_des_ns : int;  (* DES busy time spent inside sweeps *)
  mutable memo : Objective.stats;
}

let run ~tiny ~corrupt ~seed ~seconds ~trace ~out:_ =
  let shape = shape ~tiny in
  let rng = Rng.create seed in
  let pool, setup_s =
    Probe.setup ~times:9 ~teardown:Pool.shutdown (fun () ->
        let pool = Pool.create ~domains () in
        (* Construct and warm both objectives, so the first timed
           evaluation finds the simulator's per-domain arena ready.
           The warm-up uses the shape's fixed simulator settings, so
           set-up does the same work whatever the seed. *)
        let sim = sim_options shape ~seed:1 in
        List.iter
          (fun mix -> ignore (Objective.eval_default (Simulation.objective ~options:sim ~mix ())))
          [ Tpcw.shopping; Tpcw.ordering ];
        pool)
  in
  let options = { Tuner.default_options with Tuner.max_evaluations = shape.budget } in
  let l =
    {
      des = Probe.acc ();
      sweep = Probe.acc ();
      tune = Probe.acc ();
      sweep_des_ns = 0;
      memo = Objective.empty_stats;
    }
  in
  let checks = Probe.check () in
  let evals = ref 0 in
  let inside = ref 0.0 in
  let live = ref 0.0 in
  let unit_fn ~mode =
    let inp = inputs shape rng in
    let db = History.create () in
    let cached = ref [] in
    let objective sim mix =
      let base = Simulation.objective ~options:sim ~mix () in
      let base =
        if mode = Probe.Traced then Probe.timed_evals ~name:"webservice.des.eval" l.des base else base
      in
      let c = Objective.cached base in
      cached := c :: !cached;
      c
    in
    let in_layer a name f =
      match mode with
      | Probe.Traced -> Probe.timed ~name a f
      | Probe.Warmup -> f ()
      | Probe.Plain ->
          let r, dt = Probe.wall f in
          inside := !inside +. dt;
          r
    in
    let session mix chars label =
      let s = Session.create ~objective:(objective inp.sim mix) ~db ~options () in
      let des_before = Atomic.get l.des.Probe.ns in
      ignore
        (in_layer l.sweep "core.sensitivity" (fun () ->
             Session.prioritize ~max_points:shape.max_points s));
      l.sweep_des_ns <- l.sweep_des_ns + (Atomic.get l.des.Probe.ns - des_before);
      in_layer l.tune "session.tune" (fun () ->
          Session.tune ~top_n:shape.top_n ~characteristics:chars ~label ~pool s)
    in
    let (first, second), dt =
      Probe.wall (fun () ->
          Probe.span "pipeline" (fun () ->
              let first = session Tpcw.shopping inp.shop "shopping" in
              let second = session Tpcw.ordering inp.order "ordering" in
              (first, second)))
    in
    let stats =
      List.fold_left
        (fun acc c -> Option.fold ~none:acc ~some:(Probe.add_stats acc) (Objective.stats c))
        Objective.empty_stats !cached
    in
    (match mode with
    | Probe.Traced -> l.memo <- Probe.add_stats l.memo stats
    | Probe.Plain -> evals := !evals + stats.Objective.misses
    | Probe.Warmup -> ());
    if mode = Probe.Plain then ignore (Probe.sample_live live);
    (* Outside the timed window: re-measure each reported best on a
       fresh objective; the value must be identical. *)
    List.iter
      (fun (mix, r) ->
        let reported = r.Session.outcome.Tuner.best_performance +. if corrupt then 1.0 else 0.0 in
        let fresh = Simulation.objective ~options:inp.sim ~mix () in
        let v = fresh.Objective.eval r.Session.full_best_config in
        Probe.expect checks (Float.equal v reported) "tune-des %s best %.17g re-measured as %.17g"
          mix.Tpcw.label reported v)
      [ (Tpcw.shopping, first); (Tpcw.ordering, second) ];
    Probe.expect checks (not first.Session.used_experience) "tune-des: first session used experience";
    Probe.expect checks second.Session.used_experience "tune-des: second session did not warm-start";
    Probe.expect checks (History.size db = 2) "tune-des: database holds %d entries, expected 2"
      (History.size db);
    dt
  in
  let plain, traced_units = Probe.run_units ~seconds ~min_units:3 ~warmup:true ~trace unit_fn in
  Pool.shutdown pool;
  let work_s = Probe.median plain in
  let tune_busy = Probe.busy_s l.tune in
  let des_busy_tuning = Probe.busy_s l.des -. (float_of_int l.sweep_des_ns *. 1e-9) in
  let n_traced = float_of_int (max 1 (Array.length traced_units)) in
  {
    Probe.setup_s;
    peak_live_mb = !live;
    plain_units = plain;
    traced_units;
    op_ms = Array.map (fun s -> s *. 1e3) plain;
    ops_per_s = float_of_int !evals /. Probe.sum plain;
    system_share = !inside /. Probe.sum plain;
    checks;
    layers =
      [
        ("webservice.des.us_per_eval", Probe.us_per_call l.des);
        ("webservice.des.words_per_eval", Probe.words_per_call l.des);
        ("webservice.des.evals", float_of_int (Probe.calls l.des) /. n_traced);
        ("objective.memo_hit_ratio", Probe.memo_hit_ratio l.memo);
        ( "parallel.busy_ratio",
          if tune_busy > 0.0 then des_busy_tuning /. (float_of_int domains *. tune_busy) else 0.0 );
        ("core.sensitivity.s", Probe.busy_s l.sweep /. n_traced);
      ];
    report = [ ("tune_s", work_s, "s") ];
  }
