(* A control-flow-ordered typedtree walk that threads the set of held
   locks through each expression.  Both concurrency rules ride on it:
   S1 asks "was any lock held at this mutable access?" via [on_node],
   S2 asks "which lock was acquired/called while which others were
   held?" via [on_acquire]/[on_call].

   Lock identity is a best-effort stable name:

     - a record field of mutex type:   "Pool.t.mutex", "Telemetry.state.lock"
     - a module-level binding:         "Objective.global_lock"
     - a function-local binding:       "Objective.cached.lock"
     - anything more complex:          "<anon>" (tracked for guardedness,
                                       excluded from the order graph)

   Approximations (documented in DESIGN.md §8): branches join with
   set intersection (a lock held on only one arm counts as released);
   [Condition.wait] is treated as keeping its mutex (it reacquires
   before returning); lambdas lose the held set unless they are
   arguments to a known same-context higher-order function (List.iter,
   Array.map, Fun.protect, ... ) or the [Mutex.protect] body itself,
   because any other closure may outlive the critical section. *)

open Typedtree

type callbacks = {
  on_node : held:string list -> expression -> unit;
  on_acquire : held:string list -> lock:string -> Location.t -> unit;
  on_call : held:string list -> Path.t -> Location.t -> unit;
}

type ctx = {
  modname : string;  (* normalized unit name, e.g. "Pool" *)
  topfn : string;  (* enclosing top-level function, for local-lock names *)
  toplevel : string -> bool;  (* is this name a module-level binding? *)
  cb : callbacks;
}

let no_callbacks =
  {
    on_node = (fun ~held:_ _ -> ());
    on_acquire = (fun ~held:_ ~lock:_ _ -> ());
    on_call = (fun ~held:_ _ _ -> ());
  }

let anon = "<anon>"

let is_anon l = l = anon

(* HOFs whose function arguments run to completion in the caller's
   context, so the held set flows into their lambdas.  Matched on the
   module component of the normalized path. *)
let same_context_modules =
  [
    "List"; "ListLabels"; "Array"; "ArrayLabels"; "Hashtbl"; "Queue";
    "Stack"; "Option"; "Result"; "Either"; "Seq"; "Fun"; "Float";
  ]

let is_same_context_hof p =
  match List.rev (Sem_util.norm_path p) with
  | _ :: m :: _ -> List.mem m same_context_modules
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Lock naming *)

let type_key ctx ty =
  match Sem_util.constr_path ty with
  | Some (Path.Pident id) -> Some (ctx.modname ^ "." ^ Ident.name id)
  | Some p -> Some (Sem_util.last2 (Sem_util.norm_path p))
  | None -> None

let lock_name ctx (m : expression) =
  match m.exp_desc with
  | Texp_field (_, _, lbl) -> (
      match type_key ctx lbl.lbl_res with
      | Some tk -> tk ^ "." ^ lbl.lbl_name
      | None -> anon)
  | Texp_ident (Path.Pident id, _, _) ->
      let n = Ident.name id in
      if ctx.toplevel n then ctx.modname ^ "." ^ n
      else ctx.modname ^ "." ^ ctx.topfn ^ "." ^ n
  | Texp_ident (p, _, _) -> Sem_util.dotted (Sem_util.norm_path p)
  | _ -> anon

(* ------------------------------------------------------------------ *)
(* The walk *)

let remove_last held lock =
  let rec drop = function
    | [] -> []
    | l :: rest when l = lock -> rest
    | l :: rest -> l :: drop rest
  in
  List.rev (drop (List.rev held))

let inter a b = List.filter (fun x -> List.mem x b) a

let rec walk ctx held (e : expression) =
  ctx.cb.on_node ~held e;
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      (* An escaping closure: analyzed as if no lock is held when it
         eventually runs. *)
      List.iter (fun c -> ignore (walk_case ctx [] c)) cases;
      held
  | Texp_apply (fn, args) -> walk_apply ctx held e fn args
  | Texp_let (_, vbs, body) ->
      let held =
        List.fold_left (fun h vb -> walk ctx h vb.vb_expr) held vbs
      in
      walk ctx held body
  | Texp_sequence (a, b) ->
      let held = walk ctx held a in
      walk ctx held b
  | Texp_ifthenelse (c, t, f) -> (
      let held = walk ctx held c in
      let ht = walk ctx held t in
      match f with
      | None -> held
      | Some f -> inter ht (walk ctx held f))
  | Texp_match (scrut, cases, _) -> (
      let held = walk ctx held scrut in
      match List.map (walk_case ctx held) cases with
      | [] -> held
      | h :: rest -> List.fold_left inter h rest)
  | Texp_try (body, cases) ->
      (* Handlers can run with the body interrupted anywhere; the
         entry held set is the sound approximation for both. *)
      let hb = walk ctx held body in
      List.fold_left
        (fun acc c -> inter acc (walk_case ctx held c))
        hb cases
  | Texp_while (cond, body) ->
      let held = walk ctx held cond in
      ignore (walk ctx held body);
      held
  | Texp_for (_, _, lo, hi, _, body) ->
      let held = walk ctx held lo in
      let held = walk ctx held hi in
      ignore (walk ctx held body);
      held
  | _ ->
      walk_children ctx held e;
      held

and walk_case : 'k. ctx -> string list -> 'k case -> string list =
 fun ctx held c ->
  (match c.c_guard with Some g -> ignore (walk ctx held g) | None -> ());
  walk ctx held c.c_rhs

(* Body of a lambda that runs in the caller's context (Mutex.protect,
   List.iter, ...): the held set flows through every curried layer. *)
and walk_lambda_body ctx held (f : expression) =
  match f.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          (match c.c_guard with Some g -> ignore (walk ctx held g) | None -> ());
          walk_lambda_body ctx held c.c_rhs)
        cases
  | _ -> ignore (walk ctx held f)

and walk_apply ctx held e fn args =
  let arg_exprs = List.filter_map snd args in
  let generic ~keep_lambdas () =
    (match Sem_util.expr_path fn with
    | Some p -> ctx.cb.on_call ~held p e.exp_loc
    | None -> ignore (walk ctx held fn));
    List.iter
      (fun a ->
        match a.exp_desc with
        | Texp_function _ when keep_lambdas ->
            ctx.cb.on_node ~held a;
            walk_lambda_body ctx held a
        | _ -> ignore (walk ctx held a))
      arg_exprs;
    held
  in
  match Sem_util.expr_key fn with
  | Some "Mutex.lock" -> (
      match arg_exprs with
      | [ m ] ->
          let lock = lock_name ctx m in
          ctx.cb.on_acquire ~held ~lock e.exp_loc;
          ignore (walk ctx held m);
          held @ [ lock ]
      | _ -> generic ~keep_lambdas:false ())
  | Some "Mutex.try_lock" -> (
      (* Acquisition for ordering purposes, but the success is
         conditional so the held set is not extended. *)
      match arg_exprs with
      | [ m ] ->
          ctx.cb.on_acquire ~held ~lock:(lock_name ctx m) e.exp_loc;
          ignore (walk ctx held m);
          held
      | _ -> generic ~keep_lambdas:false ())
  | Some "Mutex.unlock" -> (
      match arg_exprs with
      | [ m ] ->
          ignore (walk ctx held m);
          remove_last held (lock_name ctx m)
      | _ -> generic ~keep_lambdas:false ())
  | Some "Mutex.protect" -> (
      match arg_exprs with
      | [ m; f ] ->
          let lock = lock_name ctx m in
          ctx.cb.on_acquire ~held ~lock e.exp_loc;
          ignore (walk ctx held m);
          let held' = held @ [ lock ] in
          (match f.exp_desc with
          | Texp_function _ ->
              ctx.cb.on_node ~held:held' f;
              walk_lambda_body ctx held' f
          | _ -> (
              (* A named thunk: whatever it calls happens under the
                 lock — surface that through on_call. *)
              match Sem_util.expr_path f with
              | Some p -> ctx.cb.on_call ~held:held' p f.exp_loc
              | None -> ignore (walk ctx held' f)));
          held
      | _ -> generic ~keep_lambdas:false ())
  | Some "Condition.wait" ->
      List.iter (fun a -> ignore (walk ctx held a)) arg_exprs;
      held
  | _ ->
      let keep_lambdas =
        match Sem_util.expr_path fn with
        | Some p -> is_same_context_hof p
        | None -> false
      in
      generic ~keep_lambdas ()

(* Depth-one generic recursion: reuse the compiler's own child
   enumeration, routing every child expression back through [walk]
   with the current held set. *)
and walk_children ctx held e =
  let sub =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ child -> ignore (walk ctx held child));
    }
  in
  Tast_iterator.default_iterator.expr sub e
