(* harmony_sem — the repo's static analyzer: determinism, NaN-safety,
   totality and concurrency rules over the typedtree.  See DESIGN.md §8
   for the rule catalogue.

     harmony_sem [--root DIR] [--format text|json|sarif]
                 [--rules D1,S1,...] [--allowlist FILE]
                 [--output FILE] [--list-rules] [PATH...]

   Reads the .cmt artifacts under --root (default _build/default) for
   sources under the given paths (directories or single .ml files;
   default: lib bin bench tools/trace).  A source with no cmt is itself
   a finding.  Exit status 0 when no unwaived finding remains, 1 on
   findings, 2 on usage errors. *)

let usage = "harmony_sem [options] PATH...  (default: lib bin bench tools/trace)"

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("harmony_sem: " ^ msg);
      exit 2)
    fmt

let () =
  let root = ref "_build/default" in
  let format = ref "text" in
  let rules_filter = ref "" in
  let allowlist_file = ref "" in
  let output = ref "" in
  let list_rules = ref false in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR  build root holding the cmt files (default _build/default)");
      ("--format", Arg.Set_string format, "FMT  output format: text (default), json or sarif");
      ("--rules", Arg.Set_string rules_filter, "IDS  comma-separated rule ids to run (default: all)");
      ("--allowlist", Arg.Set_string allowlist_file, "FILE  repo allowlist ('<path> <rule>' per line)");
      ("--output", Arg.Set_string output, "FILE  write the report to FILE instead of stdout");
      ("--list-rules", Arg.Set list_rules, "  print the rule catalogue and exit");
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Sem_rules.rule) ->
        Printf.printf "%-4s %s\n     %s\n" r.id r.summary r.doc)
      Sem_rules.all;
    exit 0
  end;
  let rules =
    match !rules_filter with
    | "" -> Sem_rules.all
    | spec ->
        List.map
          (fun id ->
            match Sem_rules.find (String.trim id) with
            | Some r -> r
            | None -> fail_usage "unknown rule %s" id)
          (String.split_on_char ',' spec)
  in
  let allowlist =
    match !allowlist_file with
    | "" -> Sem_allow.empty_allowlist
    | file -> (
        if not (Sys.file_exists file) then fail_usage "allowlist %s not found" file;
        match Sem_allow.load_allowlist file with
        | Ok a -> a
        | Error msg -> fail_usage "%s" msg)
  in
  if not (Sys.file_exists !root && Sys.is_directory !root) then
    fail_usage "build root %s not found (run dune build @check first)" !root;
  let dirs =
    match List.rev !dirs with
    | [] -> [ "lib"; "bin"; "bench"; "tools/trace" ]
    | ds -> ds
  in
  List.iter
    (fun d -> if not (Sys.file_exists d) then fail_usage "no such path %s" d)
    dirs;
  let units, load_diags = Sem_cmt.load_units ~root:!root ~dirs in
  if units = [] then
    fail_usage "no cmt files for %s under %s (run dune build @check first)"
      (String.concat " " dirs) !root;
  let result = Sem_driver.analyze ~rules ~allowlist units in
  let result =
    { result with Sem_driver.kept = load_diags @ result.Sem_driver.kept }
  in
  let render ppf =
    match !format with
    | "text" -> Sem_driver.render_text ppf result
    | "json" -> Sem_driver.render_json ppf result
    | "sarif" -> Sem_driver.render_sarif ppf ~rules result
    | other -> fail_usage "unknown format %s" other
  in
  (match !output with
  | "" -> render Format.std_formatter
  | file ->
      let oc = open_out file in
      let ppf = Format.formatter_of_out_channel oc in
      render ppf;
      Format.pp_print_flush ppf ();
      close_out oc);
  exit (if result.kept = [] then 0 else 1)
