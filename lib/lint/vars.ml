(** Variable-discipline analysis (see vars.mli). *)

open Pte_hybrid

let union_map f xs =
  List.fold_left (fun acc x -> Var.Set.union acc (f x)) Var.Set.empty xs

let reset_reads (reset : Reset.t) =
  List.fold_left
    (fun acc (target, a) ->
      match a with
      | Reset.Copy src -> Var.Set.add src acc
      | Reset.Add_const _ -> Var.Set.add target acc
      | Reset.Set_const _ -> acc)
    Var.Set.empty reset

(* What a flow writes: an ODE may drive every variable it lists; a
   constant rate drives its variable unless it is zero. *)
let flow_writes = function
  | Flow.Rates rates ->
      List.fold_left
        (fun s (v, r) -> if Float.abs r > Guard.eps then Var.Set.add v s else s)
        Var.Set.empty rates
  | Flow.Ode o -> Var.Set.of_list o.Flow.drives

let check (a : Automaton.t) =
  let name = a.Automaton.name in
  let declared = List.fold_left (fun s v -> Var.Set.add v s) Var.Set.empty a.Automaton.vars in
  let flows = List.map (fun (l : Location.t) -> l.Location.flow) a.Automaton.locations in
  let flow_vars = union_map Flow.vars flows in
  let guard_reads =
    Var.Set.union
      (union_map (fun (l : Location.t) -> Guard.vars l.Location.invariant)
         a.Automaton.locations)
      (union_map (fun (e : Edge.t) -> Guard.vars e.Edge.guard) a.Automaton.edges)
  in
  let reads =
    Var.Set.union guard_reads
      (Var.Set.union
         (union_map (fun (e : Edge.t) -> reset_reads e.Edge.reset) a.Automaton.edges)
         (union_map (fun f -> Var.Set.of_list (Flow.reads f)) flows))
  in
  let reset_writes = union_map (fun (e : Edge.t) -> Reset.vars e.Edge.reset) a.Automaton.edges in
  let writes =
    Var.Set.union reset_writes
      (Var.Set.union
         (List.fold_left
            (fun s (v, _) -> Var.Set.add v s)
            Var.Set.empty a.Automaton.initial_values)
         (union_map flow_writes flows))
  in
  let used = Var.Set.union flow_vars (Var.Set.union reads writes) in
  let undeclared =
    Var.Set.diff used declared |> Var.Set.elements
    |> List.map (fun v ->
           Diagnostic.v ~automaton:name "L030"
             (Fmt.str "variable %S is used but not declared" v))
  in
  let never_written =
    Var.Set.diff (Var.Set.inter reads declared) writes
    |> Var.Set.elements
    |> List.map (fun v ->
           Diagnostic.v ~automaton:name "L031"
             (Fmt.str
                "variable %S is read but never initialized, reset, or \
                 driven: it is constant 0"
                v))
  in
  let never_read =
    Var.Set.diff (Var.Set.inter reset_writes declared) reads
    |> Var.Set.elements
    |> List.map (fun v ->
           Diagnostic.v ~automaton:name "L032"
             (Fmt.str "variable %S is reset but its value is never read" v))
  in
  let unused =
    Var.Set.diff declared used |> Var.Set.elements
    |> List.map (fun v ->
           Diagnostic.v ~automaton:name "L033"
             (Fmt.str "declared variable %S is never used" v))
  in
  undeclared @ never_written @ never_read @ unused
