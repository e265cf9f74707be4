(* Orchestration: run the rules over loaded units, filter the findings
   through the inline waivers and the repo allowlist, and render the
   result as text, JSON or SARIF 2.1.0. *)

type result = {
  kept : Sem_diag.t list;  (* findings that count *)
  suppressed : Sem_diag.t list;  (* waived inline or via allowlist *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let default_source_of path =
  if Sys.file_exists path && not (Sys.is_directory path) then
    Some (read_file path)
  else None

(* [source_of] maps a finding's file to its source text so inline
   [(* lint: allow S1 *)] comments apply; tests inject in-memory
   fixtures, the CLI reads from disk. *)
let analyze ?rules ?(allowlist = Sem_allow.empty_allowlist)
    ?(source_of = default_source_of) (units : Sem_cmt.unit_info list) =
  let summary = Sem_summary.create () in
  let diags =
    Sem_rules.run ?rules ~summary (List.map Sem_cmt.as_tuple units)
  in
  let allow_cache = Hashtbl.create 8 in
  let allow_for file =
    match Hashtbl.find_opt allow_cache file with
    | Some a -> a
    | None ->
        let a = Option.map Sem_allow.of_source (source_of file) in
        Hashtbl.replace allow_cache file a;
        a
  in
  let kept, suppressed =
    List.partition
      (fun (d : Sem_diag.t) ->
        let inline =
          match allow_for d.file with
          | Some allow -> Sem_allow.suppresses allow ~rule:d.rule ~line:d.line
          | None -> false
        in
        not
          (inline
          || Sem_allow.allowlist_suppresses allowlist ~rule:d.rule
               ~file:d.file))
      diags
  in
  { kept; suppressed }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_text ppf result =
  List.iter (fun d -> Format.fprintf ppf "%a@." Sem_diag.pp_text d) result.kept;
  let n = List.length result.kept in
  Format.fprintf ppf "%d error%s, %d waived@." n
    (if n = 1 then "" else "s")
    (List.length result.suppressed)

let render_json ppf result =
  let fields =
    List.map Sem_diag.to_json result.kept |> String.concat ",\n  "
  in
  Format.fprintf ppf "{@.\"findings\": [@.  %s@.],@." fields;
  Format.fprintf ppf "\"errors\": %d, \"waived\": %d@.}@."
    (List.length result.kept)
    (List.length result.suppressed)

(* SARIF 2.1.0, the minimal useful subset: a single run with a
   tool.driver rule catalogue and one result per kept finding.  SARIF
   columns are 1-based while Sem_diag stores the compiler's 0-based
   columns, hence the +1. *)
let sarif_rule (r : Sem_rules.rule) =
  let esc = Sem_diag.json_escape in
  Printf.sprintf
    {|{"id":"%s","shortDescription":{"text":"%s"},"fullDescription":{"text":"%s"}}|}
    (esc r.id) (esc r.summary) (esc r.doc)

let sarif_result (d : Sem_diag.t) =
  let esc = Sem_diag.json_escape in
  Printf.sprintf
    {|{"ruleId":"%s","level":"error","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}}]}|}
    (esc d.rule) (esc d.message) (esc d.file) d.line (d.col + 1)

let render_sarif ppf ?(rules = Sem_rules.all) result =
  Format.fprintf ppf
    {|{"version":"2.1.0","$schema":"https://json.schemastore.org/sarif-2.1.0.json","runs":[{"tool":{"driver":{"name":"harmony_sem","rules":[%s]}},"results":[%s]}]}@.|}
    (String.concat "," (List.map sarif_rule rules))
    (String.concat ",\n" (List.map sarif_result result.kept))
