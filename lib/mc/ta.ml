(** Timed-automaton view of a hybrid automaton.

    The design-pattern automata of Section IV-A fall into the decidable
    timed fragment: every data state variable is either a {e clock}
    (rate 1 in all locations) or an {e environment variable} (rate 0,
    written only by the physical world — ApprovalCondition,
    ParticipationCondition). This module translates such an automaton for
    zone-based reachability:

    - guard atoms over clocks become DBM constraints;
    - guard atoms over environment variables are erased and the edge
      becomes a {e may}-edge (the environment can make the condition true
      or false at any moment) — a sound over-approximation for safety;
    - {!Pte_hybrid.Edge.Eager} edges with pure clock lower-bound guards
      are {e urgent}: they induce location invariants capping time
      elapse at their enabling point (that is what makes a lease a
      lease);
    - eager edges with an empty guard make their location urgent
      (zero-dwell dispatch locations);
    - receive edges whose root no automaton of the system sends are
      environment stimuli: they, too, become may-edges. *)

open Pte_hybrid

type clock_atom = { clock : int; cmp : Dbm.cmp; const : float }

type edge = {
  src : int;
  dst : int;
  guard : clock_atom list;
  resets : int list;  (** clocks reset to 0 *)
  label : Label.t option;
  may : bool;
      (** fires spontaneously at any enabled moment (env-guarded or
          stimulus-triggered); never urgent. *)
  sync : string option;
      (** [Some root] when the edge is triggered by a root some system
          automaton sends: it fires only synchronized with that send. *)
}

type location = {
  name : string;
  risky : bool;
  urgent : bool;  (** zero time elapse allowed *)
  invariant : clock_atom list;  (** declared + urgency-derived *)
}

type t = {
  name : string;
  locations : location array;
  edges : edge list array;  (** outgoing, indexed by source location *)
  initial : int;
  clock_of_var : (string * int) list;  (** automaton-local var → global clock *)
}

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

let cmp_of_guard = function
  | Guard.Lt -> Dbm.Lt
  | Guard.Le -> Dbm.Le
  | Guard.Gt -> Dbm.Gt
  | Guard.Ge -> Dbm.Ge
  | Guard.Eq -> Dbm.Eq

(** Classify an automaton's variables into clocks and environment
    variables by inspecting flows in every location. *)
let classify_vars (a : Automaton.t) =
  let rate_in (l : Location.t) v =
    match l.Location.flow with
    | Flow.Rates rates -> (
        match List.assoc_opt v rates with Some r -> r | None -> 0.0)
    | Flow.Ode _ ->
        unsupported "automaton %s location %s has an ODE flow" a.Automaton.name
          l.Location.name
  in
  List.partition_map
    (fun v ->
      let rates =
        List.map (fun l -> rate_in l v) a.Automaton.locations
      in
      if List.for_all (fun r -> Float.abs (r -. 1.0) < 1e-12) rates then
        Left v (* clock *)
      else if List.for_all (fun r -> Float.abs r < 1e-12) rates then
        Right v (* environment variable *)
      else
        unsupported "automaton %s variable %s has mixed rates" a.Automaton.name
          v)
    a.Automaton.vars

(** [translate a ~alloc ~is_system_root] converts one automaton. [alloc]
    assigns global clock indices (called once per clock variable);
    [is_system_root root] tells whether some automaton of the system
    sends [root] (otherwise a receive on it is an environment
    stimulus). *)
let translate (a : Automaton.t) ~alloc ~is_system_root =
  let clocks, env_vars = classify_vars a in
  let clock_of_var =
    List.map (fun v -> (v, alloc (a.Automaton.name ^ "." ^ v))) clocks
  in
  let is_env v = List.exists (String.equal v) env_vars in
  let clock_index v =
    match List.assoc_opt v clock_of_var with
    | Some i -> i
    | None -> unsupported "variable %s is not a clock" v
  in
  let translate_guard guard =
    (* returns (clock atoms, had env atoms?) *)
    List.fold_left
      (fun (atoms, env) (g : Guard.atom) ->
        if is_env g.Guard.var then (atoms, true)
        else if not (Float.is_finite g.Guard.bound) then
          unsupported "automaton %s: non-finite constant %g on clock %s"
            a.Automaton.name g.Guard.bound g.Guard.var
        else
          ( { clock = clock_index g.Guard.var;
              cmp = cmp_of_guard g.Guard.cmp;
              const = g.Guard.bound }
            :: atoms,
            env ))
      ([], false) guard
  in
  let location_names = Array.of_list (Automaton.location_names a) in
  let index_of_location name =
    let rec go i =
      if i >= Array.length location_names then
        unsupported "unknown location %s" name
      else if String.equal location_names.(i) name then i
      else go (i + 1)
    in
    go 0
  in
  let translate_reset reset =
    List.filter_map
      (fun (v, assignment) ->
        match assignment with
        | Reset.Set_const 0.0 when not (is_env v) -> Some (clock_index v)
        | Reset.Set_const _ when is_env v -> None
        | _ -> unsupported "automaton %s: unsupported reset" a.Automaton.name)
      reset
  in
  let edges = Array.make (Array.length location_names) [] in
  let urgency_invariants = Array.make (Array.length location_names) [] in
  let urgent_locations = Array.make (Array.length location_names) false in
  List.iter
    (fun (e : Edge.t) ->
      let src = index_of_location e.Edge.src in
      let dst = index_of_location e.Edge.dst in
      let guard, had_env = translate_guard e.Edge.guard in
      let resets = translate_reset e.Edge.reset in
      let stimulus =
        match Edge.trigger_root e with
        | Some root -> not (is_system_root root)
        | None -> false
      in
      let triggered_by_system = Edge.is_triggered e && not stimulus in
      let may = had_env || stimulus in
      (* urgency: eager, spontaneous, pure clock guard *)
      if
        e.Edge.urgency = Edge.Eager
        && (not triggered_by_system)
        && not may
      then begin
        match guard with
        | [] -> urgent_locations.(src) <- true
        | [ { clock; cmp = Dbm.Ge; const } ] ->
            urgency_invariants.(src) <-
              { clock; cmp = Dbm.Le; const } :: urgency_invariants.(src)
        | [ { clock; cmp = Dbm.Gt; const } ] ->
            urgency_invariants.(src) <-
              { clock; cmp = Dbm.Le; const } :: urgency_invariants.(src)
        | _ ->
            unsupported
              "automaton %s: urgent edge with a compound or upper-bound guard"
              a.Automaton.name
      end;
      let sync =
        if triggered_by_system then Edge.trigger_root e else None
      in
      edges.(src) <-
        edges.(src)
        @ [ { src; dst; guard; resets; label = e.Edge.label; may; sync } ])
    a.Automaton.edges;
  let locations =
    Array.mapi
      (fun i name ->
        let l = Automaton.location_exn a name in
        let declared, _ = translate_guard l.Location.invariant in
        {
          name;
          risky = Location.is_risky l;
          urgent = urgent_locations.(i);
          invariant = declared @ urgency_invariants.(i);
        })
      location_names
  in
  {
    name = a.Automaton.name;
    locations;
    edges;
    initial = index_of_location a.Automaton.initial_location;
    clock_of_var;
  }

module Int_set = Set.Make (Int)

(** Per-location {e active} clocks: a clock is active at a location if it
    may be read (in an invariant or a guard) before being reset again.
    Inactive clocks can be canonicalized to 0 without changing the
    behaviour — the classic inactive-clock reduction, which collapses
    zone diversity dramatically on protocol-shaped automata where every
    edge resets the local clock. Computed by a backward fixpoint. *)
let active_clocks t =
  let n = Array.length t.locations in
  let read = Array.make n Int_set.empty in
  Array.iteri
    (fun i l ->
      let add set atoms =
        List.fold_left
          (fun acc (a : clock_atom) -> Int_set.add a.clock acc)
          set atoms
      in
      let set = add Int_set.empty l.invariant in
      read.(i) <-
        List.fold_left (fun acc (e : edge) -> add acc e.guard) set t.edges.(i))
    t.locations;
  let active = Array.copy read in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let updated =
        List.fold_left
          (fun acc (e : edge) ->
            let inherited =
              Int_set.diff active.(e.dst) (Int_set.of_list e.resets)
            in
            Int_set.union acc inherited)
          active.(i) t.edges.(i)
      in
      if not (Int_set.equal updated active.(i)) then begin
        active.(i) <- updated;
        changed := true
      end
    done
  done;
  active

(** Accumulate, into [k] (indexed by global clock), the largest constant
    each clock is compared against in this automaton's guards and
    invariants — the per-clock extrapolation bounds. *)
let accumulate_max_constants t ~k =
  let scan atoms =
    List.iter
      (fun (a : clock_atom) ->
        if Float.abs a.const > k.(a.clock) then k.(a.clock) <- Float.abs a.const)
      atoms
  in
  Array.iter (fun l -> scan l.invariant) t.locations;
  Array.iter (fun es -> List.iter (fun (e : edge) -> scan e.guard) es) t.edges
