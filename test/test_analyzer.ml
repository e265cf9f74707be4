open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng

let peak_at target =
  let space =
    Space.create
      (List.init 2 (fun i ->
           Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo:0 ~hi:100 ~default:10 ()))
  in
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      let d2 = ref 0.0 in
      Array.iteri
        (fun i v ->
          let d = (v -. target.(i)) /. 100.0 in
          d2 := !d2 +. (d *. d))
        c;
      100.0 *. exp (-4.0 *. !d2))

let test_characterize_averages () =
  let calls = ref 0 in
  let probe () =
    incr calls;
    [| float_of_int !calls |]
  in
  let c = Analyzer.characterize ~probe ~samples:4 in
  Alcotest.(check (float 1e-9)) "mean of 1..4" 2.5 c.(0);
  Alcotest.(check int) "probe called 4 times" 4 !calls

let test_characterize_invalid () =
  Alcotest.check_raises "samples" (Invalid_argument "Analyzer.characterize: samples < 1")
    (fun () -> ignore (Analyzer.characterize ~probe:(fun () -> [| 1.0 |]) ~samples:0))

let test_classify_empty_db () =
  let analyzer = Analyzer.create (History.create ()) in
  Alcotest.(check bool) "no match" true (Analyzer.classify analyzer [| 1.0 |] = None)

let test_prepare_no_match_falls_back () =
  let analyzer = Analyzer.create (History.create ()) in
  let obj = peak_at [| 60.0; 60.0 |] in
  let prep = Analyzer.prepare analyzer obj ~characteristics:[| 1.0 |] in
  Alcotest.(check bool) "no entry" true (prep.Analyzer.matched = None);
  Alcotest.(check bool) "spread fallback" true (prep.Analyzer.init = Simplex.Init.Spread);
  Alcotest.(check int) "nothing estimated" 0 prep.Analyzer.estimated_vertices

let test_prepare_exact_match_trusts () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  let outcome = Tuner.tune obj in
  let chars = [| 0.8; 0.2 |] in
  ignore (History.add_outcome db ~characteristics:chars outcome);
  let analyzer = Analyzer.create db in
  let prep = Analyzer.prepare analyzer obj ~characteristics:chars in
  Alcotest.(check bool) "matched" true (prep.Analyzer.matched <> None);
  match prep.Analyzer.init with
  | Simplex.Init.Seeded seeds ->
      Alcotest.(check bool) "full simplex" true (List.length seeds >= 3);
      (* Exact match: every seed carries a trusted value. *)
      List.iter
        (fun (_, v) -> Alcotest.(check bool) "trusted" true (v <> None))
        seeds
  | _ -> Alcotest.fail "expected a seeded init"

let test_prepare_similar_match_remeasures () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  let outcome = Tuner.tune obj in
  ignore (History.add_outcome db ~characteristics:[| 0.8; 0.2 |] outcome);
  let analyzer = Analyzer.create db in
  (* Similar but not identical characteristics: configs seed the
     simplex, values are re-measured. *)
  let prep = Analyzer.prepare analyzer obj ~characteristics:[| 0.7; 0.3 |] in
  match prep.Analyzer.init with
  | Simplex.Init.Seeded seeds ->
      List.iter
        (fun (_, v) -> Alcotest.(check bool) "not trusted" true (v = None))
        seeds;
      Alcotest.(check int) "no estimation" 0 prep.Analyzer.estimated_vertices
  | _ -> Alcotest.fail "expected a seeded init"

let test_prepare_estimates_missing_vertices () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  (* Only two distinct configurations in history: the 3-vertex simplex
     needs one estimated vertex. *)
  let chars = [| 0.5 |] in
  let _ =
    History.add db ~characteristics:chars
      ~evaluations:[ ([| 50.0; 50.0 |], 80.0); ([| 60.0; 50.0 |], 90.0) ]
      ()
  in
  let analyzer = Analyzer.create db in
  let prep = Analyzer.prepare analyzer obj ~characteristics:chars in
  Alcotest.(check int) "one vertex estimated" 1 prep.Analyzer.estimated_vertices;
  match prep.Analyzer.init with
  | Simplex.Init.Seeded seeds ->
      Alcotest.(check int) "three vertices" 3 (List.length seeds)
  | _ -> Alcotest.fail "expected a seeded init"

let test_warm_start_faster_than_cold () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let noisy = Objective.with_noise (Rng.create 7) ~level:0.02 obj in
  let options = { Tuner.default_options with Tuner.max_evaluations = 80 } in
  let cold = Tuner.tune ~options noisy in
  let db = History.create () in
  let chars = [| 0.8; 0.2 |] in
  ignore (History.add_outcome db ~characteristics:chars cold);
  let analyzer = Analyzer.create db in
  let warm, prep =
    Analyzer.tune_with_experience ~options analyzer noisy ~characteristics:chars
  in
  Alcotest.(check bool) "experience used" true (prep.Analyzer.matched <> None);
  let reference =
    Objective.worst_of obj [| cold.Tuner.best_performance; warm.Tuner.best_performance |]
  in
  let mc = Tuner.Metrics.of_outcome ~reference obj cold in
  let mw = Tuner.Metrics.of_outcome ~reference obj warm in
  Alcotest.(check bool) "warm start converges no later" true
    (mw.Tuner.Metrics.convergence_iteration <= mc.Tuner.Metrics.convergence_iteration)

let test_tune_with_experience_records () =
  let obj = peak_at [| 40.0; 70.0 |] in
  let db = History.create () in
  let analyzer = Analyzer.create db in
  let _ =
    Analyzer.tune_with_experience
      ~options:{ Tuner.default_options with Tuner.max_evaluations = 40 }
      ~label:"first" analyzer obj ~characteristics:[| 0.1 |]
  in
  Alcotest.(check int) "run recorded" 1 (History.size db);
  Alcotest.(check string) "label kept" "first"
    (List.hd (History.entries db)).History.label

let test_custom_classifier_plugs_in () =
  let db = History.create () in
  let e1 =
    History.add db ~label:"always-me" ~characteristics:[| 0.0 |]
      ~evaluations:[ ([| 1.0; 1.0 |], 1.0) ] ()
  in
  let analyzer = Analyzer.with_classifier (fun _ _ -> Some e1) db in
  match Analyzer.classify analyzer [| 123.0 |] with
  | Some e -> Alcotest.(check string) "custom hit" "always-me" e.History.label
  | None -> Alcotest.fail "custom classifier ignored"

(* Differential reference: a verbatim copy of how [prepare] built its
   seeded init before the farthest-point pick became linear (rescoring
   every candidate against every chosen seed at each step), over the
   reference dedupe of Test_history. *)
let reference_init obj entry ~characteristics =
  let space = obj.Objective.space in
  let dims = Space.dims space in
  let pool = Test_history.Reference.best_evaluations obj entry ~n:max_int in
  let pool =
    let len = List.length pool in
    List.filteri (fun i _ -> 2 * i <= len) pool
  in
  let seeds =
    match pool with
    | [] -> []
    | best :: rest ->
        let dist a b = Space.distance space a b in
        let rec pick chosen remaining =
          if List.length chosen >= dims + 1 || remaining = [] then
            List.rev chosen
          else begin
            let score (c, _) =
              List.fold_left
                (fun acc (s, _) -> Float.min acc (dist c s))
                infinity chosen
            in
            let farthest =
              List.fold_left
                (fun acc cand ->
                  match acc with
                  | None -> Some cand
                  | Some a -> if score cand > score a then Some cand else acc)
                None remaining
            in
            match farthest with
            | None -> List.rev chosen
            | Some cand ->
                pick (cand :: chosen)
                  (List.filter (fun c -> c != cand) remaining)
          end
        in
        pick [ best ] rest
  in
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
        List.map
          (fun (c, p) -> (c, Some p))
          (Estimator.fill ~space ~points ~targets ())
    end
  in
  Simplex.Init.Seeded (trusted @ estimated)

module Gen = QCheck2.Gen

(* Coarse integer grids of 1 to 4 dimensions: normalized distances
   tie often, and pools are often smaller than [dims + 1]. *)
let case =
  Gen.(
    bind (int_range 1 4) (fun dims ->
        let config = array_size (return dims) (map float_of_int (int_range 0 3)) in
        let performance = map float_of_int (int_range 0 3) in
        quad (return dims) bool bool
          (list_size (int_range 0 14) (pair config performance))))

let init_bits = function
  | Simplex.Init.Seeded vertices ->
      Some
        (List.map
           (fun (c, p) ->
             (Space.config_key c, Option.map Int64.bits_of_float p))
           vertices)
  | Simplex.Init.Extremes | Simplex.Init.Spread | Simplex.Init.Around_default _ -> None

let prop_prepare_matches_reference =
  QCheck2.Test.make ~name:"prepare seeds agree with the quadratic pick" ~count:500 case
    (fun (dims, higher, exact, evaluations) ->
      let space =
        Space.create
          (List.init dims (fun i ->
               Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo:0 ~hi:3 ~default:0 ()))
      in
      let direction =
        if higher then Objective.Higher_is_better else Objective.Lower_is_better
      in
      let obj = Objective.create ~space ~direction (fun c -> c.(0)) in
      let db = History.create () in
      let entry = History.add db ~characteristics:[| 0.5 |] ~evaluations () in
      let characteristics = if exact then [| 0.5 |] else [| 0.6 |] in
      let prep = Analyzer.prepare (Analyzer.create db) obj ~characteristics in
      init_bits prep.Analyzer.init
      = init_bits (reference_init obj entry ~characteristics))

let suite =
  [
    Alcotest.test_case "characterize averages" `Quick test_characterize_averages;
    Alcotest.test_case "characterize invalid" `Quick test_characterize_invalid;
    Alcotest.test_case "classify empty db" `Quick test_classify_empty_db;
    Alcotest.test_case "prepare no match" `Quick test_prepare_no_match_falls_back;
    Alcotest.test_case "prepare exact match trusts" `Quick test_prepare_exact_match_trusts;
    Alcotest.test_case "prepare similar re-measures" `Quick test_prepare_similar_match_remeasures;
    Alcotest.test_case "prepare estimates missing" `Quick test_prepare_estimates_missing_vertices;
    Alcotest.test_case "warm start faster" `Quick test_warm_start_faster_than_cold;
    Alcotest.test_case "tune with experience records" `Quick test_tune_with_experience_records;
    Alcotest.test_case "custom classifier" `Quick test_custom_classifier_plugs_in;
    Test_history.to_alcotest prop_prepare_matches_reference;
  ]
