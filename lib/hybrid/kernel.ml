(** Slot kernels: guards, resets and flows compiled to arrays over one
    automaton's declared variables.

    The executor keeps each automaton's valuation as a [float array]
    indexed by {e slot}, the position of a variable in the automaton's
    [vars] list with duplicates dropped. The compiled forms below
    perform the same IEEE-754 operations, in the same order, as their
    list counterparts ({!Guard.holds}, {!Reset.apply},
    {!Flow.derivatives} with {!Valuation.advance},
    {!Valuation.interpolate}), so their results are bit-identical;
    evaluating them allocates nothing (an ODE step allocates what its
    function does). *)

type layout = { names : Var.t array; index : int Var.Map.t }

let layout vars =
  let index, rev, _ =
    List.fold_left
      (fun ((index, rev, n) as acc) v ->
        if Var.Map.mem v index then acc
        else (Var.Map.add v n index, v :: rev, n + 1))
      (Var.Map.empty, [], 0) vars
  in
  { names = Array.of_list (List.rev rev); index }

let size l = Array.length l.names

let find l var =
  match Var.Map.find var l.index with s -> s | exception Not_found -> -1

let slot_exn l var =
  let s = find l var in
  if s < 0 then Fmt.invalid_arg "kernel: undeclared variable %S" var;
  s

let load l valuation = Array.map (Valuation.get valuation) l.names

(* Insertion in slot order gives the map [Valuation.zero vars] builds. *)
let store l values =
  let v = ref Valuation.empty in
  for s = 0 to size l - 1 do
    v := Valuation.set !v l.names.(s) values.(s)
  done;
  !v

type guard = { slots : int array; cmps : Guard.cmp array; bounds : float array }

let guard l (g : Guard.t) =
  {
    slots = Array.of_list (List.map (fun (a : Guard.atom) -> slot_exn l a.var) g);
    cmps = Array.of_list (List.map (fun (a : Guard.atom) -> a.cmp) g);
    bounds = Array.of_list (List.map (fun (a : Guard.atom) -> a.bound) g);
  }

let is_true g = Array.length g.slots = 0

(* {!Guard.atom_holds}, written out so that no float crosses a call. *)
let rec holds_from g values i =
  i >= Array.length g.slots
  || (let x = values.(g.slots.(i)) and bound = g.bounds.(i) in
      match g.cmps.(i) with
      | Guard.Lt -> x < bound +. Guard.eps
      | Guard.Le -> x <= bound +. Guard.eps
      | Guard.Gt -> x > bound -. Guard.eps
      | Guard.Ge -> x >= bound -. Guard.eps
      | Guard.Eq -> Float.abs (x -. bound) <= Guard.eps)
     && holds_from g values (i + 1)

let holds g values = holds_from g values 0

type op = Const of float | Shift of float | From of int

type reset = {
  targets : int array;
  ops : op array;
  scratch : float array;  (* the new values, all read before any write *)
}

let reset l (r : Reset.t) =
  {
    targets = Array.of_list (List.map (fun (var, _) -> slot_exn l var) r);
    ops =
      Array.of_list
        (List.map
           (fun (_, (a : Reset.assignment)) ->
             match a with
             | Set_const c -> Const c
             | Add_const c -> Shift c
             | Copy src -> From (slot_exn l src))
           r);
    scratch = Array.make (List.length r) 0.0;
  }

let apply r values =
  let n = Array.length r.targets in
  for i = 0 to n - 1 do
    r.scratch.(i) <-
      (match r.ops.(i) with
      | Const c -> c
      | Shift c -> values.(r.targets.(i)) +. c
      | From s -> values.(s))
  done;
  for i = 0 to n - 1 do
    values.(r.targets.(i)) <- r.scratch.(i)
  done

type rates = { vars : int array; slopes : float array }

let rates l list =
  {
    vars = Array.of_list (List.map (fun (var, _) -> slot_exn l var) list);
    slopes = Array.of_list (List.map snd list);
  }

let step r values span =
  for j = 0 to Array.length r.vars - 1 do
    let s = r.vars.(j) in
    values.(s) <- values.(s) +. (r.slopes.(j) *. span)
  done

let replay r values span k =
  if Array.length r.vars > 0 && not (span <= 0.0) then
    for _ = 1 to k do
      step r values span
    done

(* The scratch arrays live here, in a kernel one executor owns, and
   never in the [Flow.ode] closure: campaign domains share a system's
   automata, so a closure's arrays would be written by all of them. *)
type ode = {
  inputs : int array;  (* the slots of [reads] *)
  outputs : int array;  (* the slots of [drives] *)
  f : float -> float array -> float array -> unit;
  read : float array;  (* the values of [reads], gathered before [f] *)
  derivs : float array;  (* what [f] wrote *)
}

let ode l (o : Flow.ode) =
  let slots vars = Array.of_list (List.map (slot_exn l) vars) in
  let inputs = slots o.reads and outputs = slots o.drives in
  {
    inputs;
    outputs;
    f = o.f;
    read = Array.make (Array.length inputs) 0.0;
    derivs = Array.make (Array.length outputs) 0.0;
  }

(* Every derivative is computed from the values before the step, then
   added in [drives] order, as [Valuation.advance] adds the list
   [Flow.derivatives] returns. *)
let ode_step o ~time values span =
  for i = 0 to Array.length o.inputs - 1 do
    o.read.(i) <- values.(o.inputs.(i))
  done;
  Array.fill o.derivs 0 (Array.length o.derivs) 0.0;
  o.f time o.read o.derivs;
  for j = 0 to Array.length o.outputs - 1 do
    let s = o.outputs.(j) in
    values.(s) <- values.(s) +. (o.derivs.(j) *. span)
  done

type flow = Rates of rates | Ode of ode

let flow l = function
  | Flow.Rates list -> Rates (rates l list)
  | Flow.Ode o -> Ode (ode l o)

let advance flow ~time values span =
  match flow with
  | Rates r -> step r values span
  | Ode o -> ode_step o ~time values span

let interpolate ~from ~target alpha into =
  for s = 0 to Array.length from - 1 do
    let a = from.(s) in
    into.(s) <- a +. (alpha *. (target.(s) -. a))
  done
