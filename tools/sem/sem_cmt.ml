(* Discovery and loading of the .cmt files dune emits under
   [_build/default/<dir>/.<lib>.objs/byte/].  The analyses key
   everything off the cmt's recorded source path (repo-relative, e.g.
   [lib/parallel/pool.ml]), so callers filter by source-directory
   prefix, not by build layout. *)

type unit_info = {
  modname : string;  (* normalized, e.g. "Pool" *)
  path : string;  (* repo-relative source file *)
  str : Typedtree.structure;
}

let as_tuple u = (u.modname, u.path, u.str)

let rec find_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let p = Filename.concat dir entry in
          if Sys.is_directory p then find_cmts p acc
          else if Filename.check_suffix entry ".cmt" then p :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

(* Requested roots are spelled relative to the repo root, like the
   cmt's recorded source paths: a leading [./] or trailing [/] is
   dropped, and a root may also be a single .ml file. *)
let normalize_root d =
  let d =
    if String.starts_with ~prefix:"./" d then String.sub d 2 (String.length d - 2)
    else d
  in
  if String.length d > 1 && String.ends_with ~suffix:"/" d then
    String.sub d 0 (String.length d - 1)
  else d

let in_dirs ~dirs source =
  dirs = []
  || List.exists
       (fun d -> source = d || String.starts_with ~prefix:(d ^ "/") source)
       dirs

let cmt_diag ~file message =
  { Sem_diag.rule = "cmt"; file; line = 1; col = 0; message }

(* Every .ml under the requested roots must have an implementation cmt.
   One that has none (a module the build skipped, or a file added since
   the last [dune build @check]) is a finding rather than a silent gap
   in the report.  _build and dot-directories are not sources. *)
let missing_cmts ~dirs units =
  let have = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace have u.path ()) units;
  let rec visit path acc =
    if Sys.is_directory path then
      let entries = Sys.readdir path in
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          if entry = "_build" || entry.[0] = '.' then acc
          else visit (Filename.concat path entry) acc)
        acc entries
    else if Filename.check_suffix path ".ml" && not (Hashtbl.mem have path)
    then
      cmt_diag ~file:path
        "no implementation .cmt for this source (run dune build @check)"
      :: acc
    else acc
  in
  List.rev (List.fold_left (fun acc d -> visit d acc) [] dirs)

(* Load every implementation cmt under [root] whose source file lives
   in one of [dirs].  Alias-module stubs (sources ending in .ml-gen)
   and interface cmts are skipped; an unreadable cmt becomes a "cmt"
   finding rather than an abort, so one stale artifact cannot hide the
   rest of the report. *)
let load_units ~root ~dirs =
  let dirs = List.map normalize_root dirs in
  let units = ref [] in
  let diags = ref [] in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ ->
          diags :=
            cmt_diag ~file:cmt_path
              "unreadable cmt file (stale build? run dune build)"
            :: !diags
      | infos -> (
          match (infos.cmt_annots, infos.cmt_sourcefile) with
          | Cmt_format.Implementation str, Some source
            when Filename.check_suffix source ".ml"
                 && in_dirs ~dirs source
                 && not (Hashtbl.mem seen source) ->
              Hashtbl.replace seen source ();
              units :=
                {
                  modname = Sem_util.normalize_modname infos.cmt_modname;
                  path = source;
                  str;
                }
                :: !units
          | _ -> ()))
    (List.sort String.compare (find_cmts root []));
  let units =
    List.sort (fun a b -> String.compare a.path b.path) !units
  in
  (units, List.rev !diags @ missing_cmts ~dirs units)
