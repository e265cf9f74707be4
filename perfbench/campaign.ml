(* campaign-mva: thousands of short tuning jobs on the analytic MVA
   model, all recording into one growing experience database.

   One unit is one campaign over a fresh database.  Each job observes a
   seeded blend of the browsing and ordering mixes, prepares its
   initial simplex from the closest experience, tunes, and records the
   run, so by the end of a campaign every lookup scans thousands of
   entries.  Evaluations are cheap, so the analyzer, the history and
   the tuner's own bookkeeping dominate, and small batches expose pool
   dispatch. *)

open Harmony
open Harmony_webservice
module Pool = Harmony_parallel.Pool
module Rng = Harmony_numerics.Rng
module Objective = Harmony_objective.Objective

type shape = { jobs : int; budget : int }

let domains = 2
let shape ~tiny = if tiny then { jobs = 40; budget = 30 } else { jobs = 2000; budget = 60 }

(* A mix [alpha] of the way from ordering to browsing, per interaction. *)
let blend alpha =
  let w mix i = Tpcw.weight mix i in
  {
    Tpcw.label = Printf.sprintf "blend-%.4f" alpha;
    weights = Array.map (fun i -> (i, (alpha *. w Tpcw.browsing i) +. ((1.0 -. alpha) *. w Tpcw.ordering i))) Tpcw.all;
  }

type job = { mix : Tpcw.mix; characteristics : float array; objective : Objective.t }

type layers = {
  mva : Probe.acc;  (* physical evaluations *)
  evals : Probe.acc;  (* single evaluations the tuner asks for *)
  batches : Probe.acc;  (* whole batches the tuner asks for *)
  sizes : Probe.samples;
  batch_busy_ns : int Atomic.t;  (* MVA busy time inside batches, all domains *)
  prepare : Probe.acc;
  lookup : Probe.acc;
  tuner : Probe.acc;
  add : Probe.acc;
  mutable memo : Objective.stats;
  mutable entries : int;
}

(* The tuner's view of the objective in a traced job: every physical
   evaluation, every single evaluation and every batch timed, with the
   MVA busy time that fell inside each batch. *)
let traced_objective l (o : Objective.t) =
  let cached = Objective.cached (Probe.timed_evals l.mva o) in
  let batch disp configs =
    Probe.add l.sizes (float_of_int (Array.length configs));
    let before = Atomic.get l.mva.Probe.ns in
    let r =
      Probe.timed ~name:"objective.batch" l.batches (fun () -> Objective.run_batch cached disp configs)
    in
    ignore (Atomic.fetch_and_add l.batch_busy_ns (Atomic.get l.mva.Probe.ns - before));
    r
  in
  ( cached,
    {
      cached with
      Objective.eval = (fun c -> Probe.timed l.evals (fun () -> cached.Objective.eval c));
      batch = Some batch;
    } )

let run ~tiny ~corrupt ~seed ~seconds ~trace ~out:_ =
  let shape = shape ~tiny in
  let rng = Rng.create seed in
  let alphas = Array.init shape.jobs (fun _ -> Rng.float rng 1.0) in
  let (pool, jobs), setup_s =
    Probe.setup ~times:5
      ~teardown:(fun (p, _) -> Pool.shutdown p)
      (fun () ->
        let pool = Pool.create ~domains () in
        let jobs =
          Array.map
            (fun a ->
              let mix = blend a in
              { mix; characteristics = Tpcw.frequency_vector mix; objective = Model.objective ~mix () })
            alphas
        in
        (pool, jobs))
  in
  let options = { Tuner.default_options with Tuner.max_evaluations = shape.budget } in
  let l =
    {
      mva = Probe.acc ();
      evals = Probe.acc ();
      batches = Probe.acc ();
      sizes = Probe.samples ();
      batch_busy_ns = Atomic.make 0;
      prepare = Probe.acc ();
      lookup = Probe.acc ();
      tuner = Probe.acc ();
      add = Probe.acc ();
      memo = Objective.empty_stats;
      entries = 0;
    }
  in
  let checks = Probe.check () in
  let job_ms = Probe.samples () in
  let inside = ref 0.0 in
  let live = ref 0.0 in
  let unit_fn ~mode =
    let traced = mode = Probe.Traced in
    let db = History.create () in
    let analyzer =
      if traced then
        Analyzer.with_classifier
          (fun db ch -> Probe.timed ~name:"core.history.lookup" l.lookup (fun () -> History.find_closest db ch))
          db
      else Analyzer.create db
    in
    let bests = Array.make shape.jobs (0.0, [||]) in
    let run_job j =
      let label = j.mix.Tpcw.label in
      let cached, obj =
        if traced then traced_objective l j.objective
        else
          let c = Objective.cached j.objective in
          (c, c)
      in
      let layer a name f = if traced then Probe.timed ~name a f else f () in
      let outcome, dt =
        Probe.wall (fun () ->
            Probe.span "job" (fun () ->
                let prep =
                  layer l.prepare "core.analyzer.prepare" (fun () ->
                      Analyzer.prepare analyzer obj ~characteristics:j.characteristics)
                in
                let outcome =
                  layer l.tuner "core.tuner" (fun () ->
                      Tuner.tune ~pool ~options:{ options with Tuner.init = prep.Analyzer.init } obj)
                in
                ignore
                  (layer l.add "core.history.add" (fun () ->
                       History.add_outcome db ~label ~characteristics:j.characteristics outcome));
                outcome))
      in
      (match mode with
      | Probe.Plain ->
          inside := !inside +. dt;
          Probe.add job_ms (dt *. 1e3)
      | Probe.Traced -> Option.iter (fun st -> l.memo <- Probe.add_stats l.memo st) (Objective.stats cached)
      | Probe.Warmup -> ());
      outcome
    in
    let (), dt =
      Probe.wall (fun () ->
          Array.iteri
            (fun i j ->
              let o = run_job j in
              bests.(i) <- (o.Tuner.best_performance, o.Tuner.best_config))
            jobs)
    in
    if traced then l.entries <- History.size db;
    if mode = Probe.Plain then ignore (Probe.sample_live live);
    (* Outside the timed window: every reported best, re-measured on a
       fresh model, must read the identical value. *)
    Array.iteri
      (fun i (best, config) ->
        let best = if corrupt && i = 0 then best +. 1.0 else best in
        let v = (Model.objective ~mix:jobs.(i).mix ()).Objective.eval config in
        Probe.expect checks (Float.equal v best) "campaign-mva job %d: best %.17g re-measured as %.17g" i best v)
      bests;
    Probe.expect checks (History.size db = shape.jobs) "campaign-mva: database holds %d entries after %d jobs"
      (History.size db) shape.jobs;
    dt
  in
  let plain, traced_units = Probe.run_units ~seconds ~min_units:2 ~warmup:false ~trace unit_fn in
  Pool.shutdown pool;
  let jobs_done = float_of_int (max 1 (Probe.calls l.tuner)) in
  let objective_in_tuner = Probe.busy_s l.evals +. Probe.busy_s l.batches in
  let sizes = Probe.to_array l.sizes in
  let job_ms = Probe.to_array job_ms in
  let n_traced = float_of_int (max 1 (Array.length traced_units)) in
  {
    Probe.setup_s;
    peak_live_mb = !live;
    plain_units = plain;
    traced_units;
    op_ms = job_ms;
    ops_per_s = float_of_int (Array.length job_ms) /. Probe.sum plain;
    system_share = !inside /. Probe.sum plain;
    checks;
    layers =
      [
        ("webservice.mva.us_per_eval", Probe.us_per_call l.mva);
        ("webservice.mva.words_per_eval", Probe.words_per_call l.mva);
        ("objective.batches", float_of_int (Probe.calls l.batches) /. n_traced);
        ("objective.batch_size_mean", if Array.length sizes = 0 then 0.0 else Harmony_numerics.Stats.mean sizes);
        ("objective.memo_hit_ratio", Probe.memo_hit_ratio l.memo);
        ( "parallel.busy_ratio",
          let wall = Probe.busy_s l.batches in
          if wall > 0.0 then float_of_int (Atomic.get l.batch_busy_ns) *. 1e-9 /. (float_of_int domains *. wall)
          else 0.0 );
        ("core.tuner.self_ms_per_job", (Probe.busy_s l.tuner -. objective_in_tuner) *. 1e3 /. jobs_done);
        ("core.analyzer.prepare_ms", Probe.ms_per_call l.prepare);
        ("core.history.lookup_us", Probe.us_per_call l.lookup);
        ("core.history.add_us", Probe.us_per_call l.add);
        ("core.history.entries", float_of_int l.entries);
      ];
    report =
      [
        ("job_ms_p50", Probe.pct job_ms 50.0, "ms");
        ("job_ms_p99", Probe.pct job_ms 99.0, "ms");
        ("campaign_s", Probe.median plain, "s");
      ];
  }
