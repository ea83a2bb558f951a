(** Hybrid automata.

    The tuple [A = (~x(t), V, inv, F, E, g, R, L, syn, Φ0)] of Section
    II-A, with [inv]/[F] folded into {!Location.t}, [g]/[R]/[syn] folded
    into {!Edge.t}, and a single deterministic initial state (the paper's
    design-pattern automata all start from "Fall-Back" with all data
    state variables zero; {!initial_values} covers initial sets such as
    [H_vent(0) ∈ [0, 0.3]] by explicit choice of a representative). *)

type t = {
  name : string;
  vars : Var.t list;
  locations : Location.t list;
  edges : Edge.t list;
  initial_location : string;
  initial_values : (Var.t * float) list;
}

let make ~name ~vars ~locations ~edges ~initial_location
    ?(initial_values = []) () =
  { name; vars; locations; edges; initial_location; initial_values }

let location_names a = List.map (fun (l : Location.t) -> l.name) a.locations

let find_location a name =
  List.find_opt (fun (l : Location.t) -> String.equal l.name name) a.locations

let location_exn a name =
  match find_location a name with
  | Some l -> l
  | None ->
      Fmt.invalid_arg "automaton %s has no location %s" a.name name

let edges_from a src =
  List.filter (fun (e : Edge.t) -> String.equal e.src src) a.edges

let is_risky a name = Location.is_risky (location_exn a name)

let risky_locations a =
  List.filter_map
    (fun (l : Location.t) -> if Location.is_risky l then Some l.name else None)
    a.locations

let initial_valuation a =
  List.fold_left
    (fun acc (v, x) -> Valuation.set acc v x)
    (Valuation.zero a.vars) a.initial_values

(** Roots this automaton listens to (over [?l] or [??l] edges) anywhere. *)
let listened_roots a =
  List.fold_left
    (fun acc (e : Edge.t) ->
      match Edge.trigger_root e with
      | Some r -> Var.Set.add r acc
      | None -> acc)
    Var.Set.empty a.edges

(** Roots this automaton can send ([!l]) or raise internally. *)
let emitted_roots a =
  List.fold_left
    (fun acc (e : Edge.t) ->
      match e.label with
      | Some (Label.Send r) | Some (Label.Internal r) -> Var.Set.add r acc
      | _ -> acc)
    Var.Set.empty a.edges

let all_labels a = List.filter_map (fun (e : Edge.t) -> e.label) a.edges

(** Structural well-formedness. Returns the list of violations (empty =
    well-formed): duplicate location names, dangling edge endpoints,
    undeclared variables in guards/invariants/resets/flows (an [Ode]'s
    read and driven variables)/initial values, missing or
    invariant-violating initial state. *)
let validate a =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let declared = Var.Set.of_list a.vars in
  (* hashed location table: validation stays linear in |locations| +
     |edges| (the synthesized pattern supervisor at N >= 1000 has
     thousands of each, so the old nested scans dominated start-up) *)
  let loc_table = Hashtbl.create (2 * List.length a.locations) in
  List.iter
    (fun (l : Location.t) ->
      if Hashtbl.mem loc_table l.name then
        err "duplicate location name %S" l.name
      else Hashtbl.replace loc_table l.name l)
    a.locations;
  (match Hashtbl.find_opt loc_table a.initial_location with
  | None -> err "initial location %S does not exist" a.initial_location
  | Some l ->
      let v0 = initial_valuation a in
      if not (Guard.holds l.invariant v0) then
        err "initial valuation violates invariant of %S" l.name);
  List.iter
    (fun (v, _) ->
      if not (Var.Set.mem v declared) then
        err "initial value for undeclared variable %S" v)
    a.initial_values;
  let check_vars context vars =
    Var.Set.iter
      (fun v ->
        if not (Var.Set.mem v declared) then
          err "%s mentions undeclared variable %S" context v)
      vars
  in
  List.iter
    (fun (l : Location.t) ->
      check_vars (Printf.sprintf "invariant of %S" l.name)
        (Guard.vars l.invariant);
      check_vars (Printf.sprintf "flow of %S" l.name) (Flow.vars l.flow))
    a.locations;
  List.iteri
    (fun i (e : Edge.t) ->
      if not (Hashtbl.mem loc_table e.src) then
        err "edge #%d has unknown source %S" i e.src;
      if not (Hashtbl.mem loc_table e.dst) then
        err "edge #%d has unknown destination %S" i e.dst;
      check_vars (Printf.sprintf "guard of edge #%d" i) (Guard.vars e.guard);
      check_vars (Printf.sprintf "reset of edge #%d" i) (Reset.vars e.reset))
    a.edges;
  match !errs with [] -> Ok () | errors -> Error (List.rev errors)

let validate_exn a =
  match validate a with
  | Ok () -> a
  | Error errors ->
      Fmt.invalid_arg "automaton %s is malformed: %s" a.name
        (String.concat "; " errors)

(** Definition 2 (Hybrid Automata Independence): disjoint data state
    variables, disjoint location names, disjoint synchronization labels. *)
let independent a b =
  let disjoint_vars =
    Var.Set.is_empty
      (Var.Set.inter (Var.Set.of_list a.vars) (Var.Set.of_list b.vars))
  in
  let disjoint_locations =
    not
      (List.exists
         (fun n -> List.exists (String.equal n) (location_names b))
         (location_names a))
  in
  let labels_of x =
    List.sort_uniq compare (all_labels x)
  in
  let disjoint_labels =
    not
      (List.exists
         (fun l -> List.exists (Label.equal l) (labels_of b))
         (labels_of a))
  in
  disjoint_vars && disjoint_locations && disjoint_labels

(** Definition 3 (Simple Hybrid Automaton):
    1. all locations share one invariant;
    2. every [(v, ~s)] with [v] initial and [~s] in the invariant is a
       possible initial state — in our deterministic representation this
       degenerates to requiring the initial values to be unconstrained by
       the shared invariant beyond membership, which holds by
       construction; we check the representative lies in the invariant;
    3. [(v, 0)] is initial — the zero data state satisfies the shared
       invariant and {!initial_values} is empty (all-zero start). *)
let is_simple a =
  match a.locations with
  | [] -> false
  | first :: rest ->
      let shared_invariant =
        List.for_all
          (fun (l : Location.t) -> l.invariant = first.Location.invariant)
          rest
      in
      let zero_initial = a.initial_values = [] in
      let zero_in_invariant =
        Guard.holds first.Location.invariant (Valuation.zero a.vars)
      in
      shared_invariant && zero_initial && zero_in_invariant

let pp ppf a =
  Fmt.pf ppf "@[<v>automaton %s@,vars: %a@,init: %s@,%a@,%a@]" a.name
    (Fmt.list ~sep:(Fmt.any ", ") Var.pp)
    a.vars a.initial_location
    (Fmt.list ~sep:Fmt.cut Location.pp)
    a.locations
    (Fmt.list ~sep:Fmt.cut Edge.pp)
    a.edges
