(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--tiny] [--corrupt]

   Runs one seeded workload for S seconds of whole units and prints, as
   the last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end figures of untraced units; with --trace 1
   units alternate untraced / traced and the metrics are the per-layer
   figures of the traced units, plus the tracing overhead.  The lines
   before it report the same figures for humans, under the workload's
   own names.

   --tiny shrinks every workload for the smoke test; --corrupt falsifies
   one reported output (a best value, or a reply) so the smoke test can
   see the checks fire.  A failed check exits 1 after printing. *)

let end_to_end = [ ("setup_s", "s"); ("peak_live_mb", "MB"); ("op_ms_p50", "ms"); ("ops_per_s", "1/s") ]

let per_layer =
  [
    ("webservice.des.us_per_eval", "us");
    ("webservice.des.words_per_eval", "words");
    ("webservice.des.evals", "count");
    ("webservice.mva.us_per_eval", "us");
    ("webservice.mva.words_per_eval", "words");
    ("objective.batches", "count");
    ("objective.batch_size_mean", "count");
    ("objective.memo_hit_ratio", "ratio");
    ("parallel.busy_ratio", "ratio");
    ("core.sensitivity.s", "s");
    ("core.tuner.self_ms_per_job", "ms");
    ("core.analyzer.prepare_ms", "ms");
    ("core.history.lookup_us", "us");
    ("core.history.add_us", "us");
    ("core.history.entries", "count");
    ("core.server.handle_us_p50", "us");
    ("core.server.handle_us_p99", "us");
    ("service.batches", "count");
    ("service.msgs_per_batch", "count");
    ("service.admission.rejected", "count");
    ("persist.fsyncs_per_msg", "ratio");
    ("persist.fsync_us_p50", "us");
    ("persist.fsync_us_p99", "us");
    ("persist.bytes_per_msg", "bytes");
    ("persist.sync_share", "ratio");
    ("persist.compactions", "count");
    ("recovery.replayed", "count");
    ("recovery.dropped", "count");
    ("recovery.recover_s", "s");
    ("driver.share", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let workloads =
  [
    ("tune-des", Tune_des.run);
    ("campaign-mva", Campaign.run);
    ("service-closed", Service_loop.closed);
    ("service-wal", Service_loop.wal);
  ]

(* JSON numbers must be finite; a figure a run could not form reads 0. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metric_json (name, (value, unit)) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured window");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) figures");
      ("--tiny", Arg.Set tiny, "  smoke-test sizes");
      ("--corrupt", Arg.Set corrupt, "  falsify one output (smoke test of the checks)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  (* Journals and traces stay inside the checkout. *)
  let out = Filename.concat "perfbench" "_out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let o : Probe.outcome =
    run ~tiny:!tiny ~corrupt:!corrupt ~seed:!seed ~seconds:!seconds ~trace:traced ~out
  in
  let walls a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") a)) in
  Printf.eprintf "%s unit walls (s): untraced [%s] traced [%s]\n" !workload (walls o.Probe.plain_units)
    (walls o.Probe.traced_units);
  let c = o.Probe.checks in
  let error_rate = float_of_int c.Probe.failed /. float_of_int (max 1 c.Probe.attempted) in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s: %s %s\n" !workload name (num v) unit)
    (o.Probe.report @ [ ("error_rate", error_rate, "ratio") ]);
  Option.iter (fun m -> Printf.printf "%s first failed check: %s\n" !workload m) c.Probe.first;
  let metrics =
    if traced then begin
      let path = Filename.concat out (Printf.sprintf "trace-%s.jsonl" !workload) in
      let text = Probe.write_trace path in
      (* Self time per span name, by the repository's own trace tool. *)
      (match Trace_core.of_string text with
      | Ok t -> prerr_string (Trace_core.render_self t)
      | Error e -> Printf.eprintf "perfbench: trace unreadable: %s\n" e);
      let overhead =
        if Array.length o.Probe.plain_units = 0 then 0.0
        else Probe.median o.Probe.traced_units /. Probe.median o.Probe.plain_units
      in
      let figures =
        o.Probe.layers @ [ ("driver.share", 1.0 -. o.Probe.system_share); ("trace.overhead_ratio", overhead) ]
      in
      List.map
        (fun (name, unit) ->
          (name, ((match List.assoc_opt name figures with Some v -> v | None -> 0.0), unit)))
        per_layer
    end
    else
      let figures =
        [
          ("setup_s", o.Probe.setup_s);
          ("peak_live_mb", o.Probe.peak_live_mb);
          ("op_ms_p50", Probe.median o.Probe.op_ms);
          ("ops_per_s", o.Probe.ops_per_s);
        ]
      in
      List.map (fun (name, unit) -> (name, (List.assoc name figures, unit))) end_to_end
  in
  List.iter (fun (name, (v, unit)) -> Printf.printf "%s %s: %s %s\n" !workload name (num v) unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (c.Probe.failed = 0) (max 1 c.Probe.attempted) c.Probe.failed
    (String.concat ", " (List.map metric_json metrics));
  if c.Probe.failed > 0 then exit 1
