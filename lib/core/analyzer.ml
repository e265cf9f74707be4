open Harmony_param
open Harmony_objective

let log_src = Logs.Src.create "harmony.analyzer" ~doc:"Workload data analyzer"

module Log = (val Logs.src_log log_src)

type t = {
  db : History.t;
  classifier : History.t -> float array -> History.entry option;
}

let with_classifier classifier db = { db; classifier }
let create db = with_classifier History.find_closest db
let database t = t.db

let characterize ~probe ~samples =
  if samples < 1 then invalid_arg "Analyzer.characterize: samples < 1";
  let first = probe () in
  let acc = Array.copy first in
  for _ = 2 to samples do
    let obs = probe () in
    if Array.length obs <> Array.length acc then
      invalid_arg "Analyzer.characterize: probe arity changed";
    Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) obs
  done;
  Array.map (fun v -> v /. float_of_int samples) acc

let classify t observed = t.classifier t.db observed

type preparation = {
  matched : History.entry option;
  init : Simplex.Init.t;
  estimated_vertices : int;
}

module Telemetry = Harmony_telemetry.Telemetry

(* Greedy farthest-point pick of up to [k] seeds from [pool], starting
   with its head.  [near.(j)] is candidate [j]'s distance to its
   nearest chosen seed, lowered only against the newest seed, so [k]
   seeds cost O(k·n) distances.  The first maximum in pool order wins
   (strict [>]).  Each candidate is normalized once, on the first step
   that scores, and a lone remaining candidate is taken unscored: a
   configuration that does not fit [space] then fails in
   [Space.normalize] or [Space.snap] exactly where the quadratic pick
   this replaces failed. *)
let farthest_seeds space pool ~k =
  let n = Array.length pool in
  if n = 0 then []
  else begin
    let normalized =
      lazy (Array.map (fun (c, _) -> Space.normalize space c) pool)
    in
    let near = Float.Array.make n infinity in
    let taken = Array.make n false in
    let rec pick chosen count last =
      let remaining = n - count in
      if count >= k || remaining = 0 then List.rev chosen
      else begin
        let next =
          if remaining = 1 then begin
            let j = ref 0 in
            while taken.(!j) do incr j done;
            !j
          end
          else begin
            let normalized = Lazy.force normalized in
            let seed = normalized.(last) in
            let best = ref (-1) in
            for j = 0 to n - 1 do
              if not taken.(j) then begin
                let d =
                  Float.min (Float.Array.get near j)
                    (Harmony_numerics.Stats.euclidean_distance normalized.(j) seed)
                in
                Float.Array.set near j d;
                if !best < 0 || d > Float.Array.get near !best then best := j
              end
            done;
            !best
          end
        in
        taken.(next) <- true;
        pick (pool.(next) :: chosen) (count + 1) next
      end
    in
    taken.(0) <- true;
    pick [ pool.(0) ] 1 0
  end

let prepare ?(telemetry = Telemetry.off) ?(fallback = Simplex.Init.Spread) t obj
    ~characteristics =
  let matched =
    Telemetry.span telemetry "history.lookup" (fun () ->
        classify t characteristics)
  in
  match matched with
  | None ->
      Log.info (fun m -> m "no matching experience; cold start");
      Telemetry.instant telemetry "history.cold-start";
      { matched = None; init = fallback; estimated_vertices = 0 }
  | Some entry ->
      let space = obj.Objective.space in
      let dims = Space.dims space in
      (* Seed vertices are chosen for quality *and* diversity: the
         best historical configurations of one run cluster tightly
         around its optimum, and a degenerate simplex cannot adapt
         when the new workload's optimum lies elsewhere.  Greedily
         pick, among the better half of the history, the point
         farthest from the seeds chosen so far. *)
      let pool = Array.of_list (History.best_evaluations obj entry ~n:max_int) in
      let len = Array.length pool in
      let pool = Array.sub pool 0 (min len ((len / 2) + 1)) in
      let seeds = farthest_seeds space pool ~k:(dims + 1) in
      (* Historical performance values are only trusted when the
         stored characteristics match the observed ones exactly; under
         a different workload the configurations still seed the
         simplex but are re-measured, since stale values would anchor
         the search to a falsely good vertex. *)
      let exact_match =
        Array.length entry.History.characteristics = Array.length characteristics
        && Harmony_numerics.Stats.euclidean_distance entry.History.characteristics
             characteristics
           < 1e-9
      in
      let trusted =
        List.map
          (fun (c, p) ->
            (Space.snap space c, if exact_match then Some p else None))
          seeds
      in
      let missing = (dims + 1) - List.length trusted in
      let estimated =
        if missing <= 0 || not exact_match then []
        else begin
          (* Fill the simplex with spread vertices whose performance is
             estimated by triangulation over the entry's history. *)
          let spread = Simplex.Init.vertices Simplex.Init.Spread space in
          let candidates =
            List.filter
              (fun (c, _) ->
                not (List.exists (fun (s, _) -> Space.config_equal c s) trusted))
              spread
          in
          let targets =
            List.filteri (fun i _ -> i < missing) (List.map fst candidates)
          in
          let points =
            List.map (fun (c, p) -> (Space.snap space c, p)) entry.History.evaluations
          in
          if points = [] then List.map (fun c -> (c, None)) targets
          else
            Telemetry.span telemetry "estimator.fill" (fun () ->
                List.map
                  (fun (c, p) -> (c, Some p))
                  (Estimator.fill ~space ~points ~targets ()))
        end
      in
      let estimated_vertices =
        List.length (List.filter (fun (_, p) -> p <> None) estimated)
      in
      Log.info (fun m ->
          m "matched experience %S (%d seeds, %d estimated, trusted %b)"
            entry.History.label (List.length trusted) estimated_vertices
            exact_match);
      Telemetry.instant telemetry "history.matched"
        ~args:
          [
            ("label", Telemetry.Str entry.History.label);
            ("seeds", Telemetry.Int (List.length trusted));
            ("estimated", Telemetry.Int estimated_vertices);
            ("trusted", Telemetry.Bool exact_match);
          ];
      {
        matched = Some entry;
        init = Simplex.Init.Seeded (trusted @ estimated);
        estimated_vertices;
      }

let tune_with_experience ?(telemetry = Telemetry.off) ?ctx ?pool
    ?(options = Tuner.default_options) ?label t obj ~characteristics =
  let preparation =
    prepare ~telemetry ~fallback:options.Tuner.init t obj ~characteristics
  in
  let options = { options with Tuner.init = preparation.init } in
  let outcome = Tuner.tune ~telemetry ?ctx ?pool ~options obj in
  ignore (History.add_outcome t.db ?label ~characteristics outcome);
  (outcome, preparation)
