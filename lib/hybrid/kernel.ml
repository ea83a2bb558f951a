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

(* {!Guard.atom_holds}; inlined, so that no float crosses a call. *)
let[@inline] answer cmp bound x =
  match cmp with
  | Guard.Lt -> x < bound +. Guard.eps
  | Guard.Le -> x <= bound +. Guard.eps
  | Guard.Gt -> x > bound -. Guard.eps
  | Guard.Ge -> x >= bound -. Guard.eps
  | Guard.Eq -> Float.abs (x -. bound) <= Guard.eps

let rec holds_from g values i =
  i >= Array.length g.slots
  || answer g.cmps.(i) g.bounds.(i) values.(g.slots.(i))
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

(* Watched slot [i] owns atoms [atom_from.(i), atom_from.(i + 1)) and
   slopes [slope_from.(i), slope_from.(i + 1)), each in list order. *)
type watch = {
  watched : int array;  (* the distinct slots the atoms read, ascending *)
  atom_from : int array;
  atom_cmps : Guard.cmp array;
  atom_bounds : float array;
  start : bool array;  (* scratch: each atom's answer where a search starts *)
  slope_from : int array;
  slopes : float array;
}

let watch guards r =
  let atoms =
    List.concat_map
      (fun g -> List.init (Array.length g.slots) (fun i -> (g.slots.(i), g.cmps.(i), g.bounds.(i))))
      guards
  in
  let watched = List.sort_uniq Int.compare (List.map (fun (s, _, _) -> s) atoms) in
  let watched = Array.of_list watched in
  let group items slot_of =
    let per = Array.map (fun s -> List.filter (fun x -> slot_of x = s) items) watched in
    let from = Array.make (Array.length watched + 1) 0 in
    Array.iteri (fun i xs -> from.(i + 1) <- from.(i) + List.length xs) per;
    (from, List.concat (Array.to_list per))
  in
  let atom_from, atoms = group atoms (fun (s, _, _) -> s) in
  let slope_from, slopes =
    group (List.init (Array.length r.vars) (fun j -> (r.vars.(j), r.slopes.(j)))) fst
  in
  {
    watched;
    atom_from;
    atom_cmps = Array.of_list (List.map (fun (_, c, _) -> c) atoms);
    atom_bounds = Array.of_list (List.map (fun (_, _, b) -> b) atoms);
    start = Array.make (List.length atoms) false;
    slope_from;
    slopes = Array.of_list (List.map snd slopes);
  }

(* Each watched slot is replayed on its own: a [Rates] step adds to a
   slot only that slot's own slopes, in list order, so its values are
   the ones {!replay} produces. A slot that no slope moves keeps its
   answers. *)
let next_flip w values span horizon =
  let first = ref max_int in
  if not (span <= 0.0) then
    for i = 0 to Array.length w.watched - 1 do
      let s_lo = w.slope_from.(i) and s_hi = w.slope_from.(i + 1) in
      if s_hi > s_lo then begin
        let x0 = values.(w.watched.(i)) in
        let a_lo = w.atom_from.(i) and a_hi = w.atom_from.(i + 1) in
        for a = a_lo to a_hi - 1 do
          w.start.(a) <- answer w.atom_cmps.(a) w.atom_bounds.(a) x0
        done;
        (* only a flip before the earliest one found so far matters *)
        let limit = Int.min (!first - 1) horizon in
        let x = ref x0 and k = ref 0 and flipped = ref false in
        while (not !flipped) && !k < limit do
          incr k;
          for j = s_lo to s_hi - 1 do
            x := !x +. (w.slopes.(j) *. span)
          done;
          for a = a_lo to a_hi - 1 do
            if answer w.atom_cmps.(a) w.atom_bounds.(a) !x <> w.start.(a) then
              flipped := true
          done
        done;
        if !flipped then first := !k
        else if !first = max_int then first := horizon + 1
      end
    done;
  !first

let rec index_from (a : int array) x i =
  if i >= Array.length a || a.(i) = x then i else index_from a x (i + 1)

let disturbs w values slot after =
  let i = index_from w.watched slot 0 in
  i < Array.length w.watched
  && (w.slope_from.(i + 1) > w.slope_from.(i)
     ||
     let before = values.(slot) and differs = ref false in
     for a = w.atom_from.(i) to w.atom_from.(i + 1) - 1 do
       let cmp = w.atom_cmps.(a) and bound = w.atom_bounds.(a) in
       if answer cmp bound before <> answer cmp bound after then differs := true
     done;
     !differs)

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
