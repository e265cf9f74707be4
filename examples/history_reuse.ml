(* Using information from prior runs — the paper's title feature.

   Session 1 tunes the web service under a browsing-heavy workload and
   persists the experience database to disk.  Session 2 (a "restart")
   loads the database, characterizes the incoming shopping workload by
   observing interaction frequencies, matches the closest experience,
   and warm-starts the tuner from it.  Compare the cold and warm
   tuning traces.

   Run with: dune exec examples/history_reuse.exe *)

open Harmony
open Harmony_webservice
module Rng = Harmony_numerics.Rng
module Objective = Harmony_objective.Objective

let db_path = Filename.temp_file "harmony_experience" ".db"
let options = { Tuner.default_options with Tuner.max_evaluations = 150 }

(* The live system: the analytic model with 3% run-to-run variation. *)
let live mix seed =
  Objective.with_noise (Rng.create seed) ~level:0.03 (Model.objective ~mix ())

let summarize label obj outcome reference =
  let m = Tuner.Metrics.of_outcome ~reference obj outcome in
  Format.printf "%-22s %a@." label Tuner.Metrics.pp m

let () =
  (* ---- Session 1: gather experience under the browsing workload. *)
  let browsing_obj = live Tpcw.browsing 1 in
  let first_run = Tuner.tune ~options browsing_obj in
  let db = History.create () in
  let browsing_chars =
    Tpcw.observed_frequencies (Rng.create 2) Tpcw.browsing ~samples:500
  in
  ignore (History.add_outcome db ~label:"browsing" ~characteristics:browsing_chars first_run);
  History.save db db_path;
  (* The temp path is random, so it is not printed: the output is
     pinned byte for byte by test/history_reuse.expected. *)
  Format.printf "session 1: tuned %s, stored %d measurements on disk@."
    Tpcw.browsing.Tpcw.label
    (List.length first_run.Tuner.trace);

  (* ---- Session 2: a restart facing the shopping workload. *)
  let loaded = History.load db_path in
  Format.printf "session 2: loaded %d experience entr%s@." (History.size loaded)
    (if History.size loaded = 1 then "y" else "ies");
  let shopping_obj = live Tpcw.shopping 3 in

  (* The data analyzer observes a few hundred requests to characterize
     the incoming workload... *)
  let observed =
    Analyzer.characterize
      ~probe:(fun () ->
        Tpcw.observed_frequencies (Rng.create 4) Tpcw.shopping ~samples:100)
      ~samples:5
  in
  let analyzer = Analyzer.create loaded in
  (match Analyzer.classify analyzer observed with
  | Some e -> Format.printf "classified incoming workload as: %s@." e.History.label
  | None -> Format.printf "no matching experience@.");

  (* ...and tunes with and without that experience. *)
  let cold = Tuner.tune ~options shopping_obj in
  let warm, prep =
    Analyzer.tune_with_experience ~options analyzer shopping_obj
      ~characteristics:observed
  in
  Format.printf "warm start seeded from experience: %b@."
    (prep.Analyzer.matched <> None);
  let reference =
    Objective.worst_of shopping_obj
      [| cold.Tuner.best_performance; warm.Tuner.best_performance |]
  in
  Format.printf "@.shopping workload, same budget:@.";
  summarize "cold start" shopping_obj cold reference;
  summarize "with prior histories" shopping_obj warm reference;
  Sys.remove db_path
