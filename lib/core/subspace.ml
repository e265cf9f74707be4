open Harmony_param
open Harmony_objective

type t = {
  full : Objective.t;
  indices : int array; (* ascending, distinct *)
  base : Space.config;
  reduced : Objective.t;
}

let embed_with ~indices ~base reduced_config =
  let c = Array.copy base in
  Array.iteri (fun k idx -> c.(idx) <- reduced_config.(k)) indices;
  c

let project obj ~indices ?base () =
  let space = obj.Objective.space in
  let n = Space.dims space in
  let indices = List.sort_uniq Int.compare indices in
  if indices = [] then invalid_arg "Subspace.project: empty index list";
  List.iter
    (fun i -> if i < 0 || i >= n then invalid_arg "Subspace.project: index out of range")
    indices;
  let base =
    match base with
    | Some b ->
        if Array.length b <> n then invalid_arg "Subspace.project: base arity";
        Space.snap space b
    | None -> Space.defaults space
  in
  let indices = Array.of_list indices in
  let reduced_space =
    Space.create (List.map (fun i -> Space.param space i) (Array.to_list indices))
  in
  let embed rc = embed_with ~indices ~base rc in
  (* The full objective with a smaller space: its [noisy] flag, memo
     [stats] and batch path carry over, so a projection of a noisy
     objective still folds sequentially and a projection of a cached
     one still makes one memo pass per batch. *)
  let reduced =
    {
      obj with
      Objective.space = reduced_space;
      eval = (fun rc -> obj.Objective.eval (embed rc));
      batch = Some (fun d rcs -> Objective.run_batch obj d (Array.map embed rcs));
    }
  in
  { full = obj; indices; base; reduced }

let objective t = t.reduced
let embed t rc = embed_with ~indices:t.indices ~base:t.base rc

let restrict t c =
  if Array.length c <> Space.dims t.full.Objective.space then
    invalid_arg "Subspace.restrict: arity mismatch";
  Array.map (fun i -> c.(i)) t.indices

let indices t = Array.to_list t.indices
