(* Reference search for the equality test of [Pte_mc.Reach]: a verbatim
   copy of [Reach.check] as it stood when every transition copied its
   zone, unioned [Ta.Int_set]s for the active clocks and kept a zone,
   a location array, a parent and an action closure for every state.
   The search loop must explore the same states in the same order:
   equal counts, violations (kind and state, in order) and traces. The
   violation and config types are the library's, so results compare
   directly; only [check] is copied, not [check_pattern]. *)

open Pte_mc
open Pte_hybrid

type violation_kind = Reach.violation_kind =
  | Rule1_dwell of { entity : string; bound : float }
  | P1_enter_safeguard of { outer : string; inner : string; required : float }
  | P2_not_embedded of { outer : string; inner : string }
  | P3_exit_safeguard of { outer : string; inner : string; required : float }

type violation = Reach.violation = { kind : violation_kind; state : int }

type config = Reach.config = { max_states : int; stop_at_first : bool }

let default_config = { max_states = 2_000_000; stop_at_first = false }
type state = {
  locs : int array;
  flags : int;  (* has-exited bitmask over spec order *)
  zone : Dbm.t;
  parent : int;
  action : unit -> string;
}

type result = {
  violations : violation list;
  states : int;
  transitions : int;
  exhausted : bool;
      (** [true] when the search drained its queue: the full state space
          was covered (so an empty [violations] list is a proof). *)
  trace : int -> string list;
  discrete_states : int;  (** distinct (location vector, flags) keys *)
  max_zones_per_key : int;
  hot_key : string;  (** the discrete state with the most zones *)
  hot_zones : string list;  (** sample zones of the hot key (debug) *)
}

let check ?(config = default_config) ~(system : System.t)
    ~(spec : Pte_core.Rules.t) () =
  (* ---- translation ---------------------------------------------------- *)
  let counter = ref 0 in
  let clock_names = ref [] in
  let alloc name =
    incr counter;
    clock_names := name :: !clock_names;
    !counter
  in
  let sent_roots =
    List.fold_left
      (fun acc (a : Automaton.t) ->
        List.fold_left
          (fun acc (e : Edge.t) ->
            match e.Edge.label with
            | Some (Label.Send r) -> Var.Set.add r acc
            | _ -> acc)
          acc a.Automaton.edges)
      Var.Set.empty system.System.automata
  in
  let is_system_root r = Var.Set.mem r sent_roots in
  let tas =
    Array.of_list
      (List.map
         (fun a -> Ta.translate a ~alloc ~is_system_root)
         system.System.automata)
  in
  let automaton_index name =
    let rec go i =
      if i >= Array.length tas then Fmt.invalid_arg "mc: unknown automaton %s" name
      else if String.equal tas.(i).Ta.name name then i
      else go (i + 1)
    in
    go 0
  in
  (* observers *)
  let entities = Array.of_list spec.Pte_core.Rules.order in
  let entity_ta = Array.map automaton_index entities in
  let rc = Array.map (fun e -> alloc ("rc." ^ e)) entities in
  let xc = Array.map (fun e -> alloc ("xc." ^ e)) entities in
  let entity_of_ta ta_idx =
    let rec go k =
      if k >= Array.length entity_ta then None
      else if entity_ta.(k) = ta_idx then Some k
      else go (k + 1)
    in
    go 0
  in
  let pairs =
    List.map
      (fun (p : Pte_core.Rules.pair) ->
        let find name =
          let rec go k =
            if k >= Array.length entities then assert false
            else if String.equal entities.(k) name then k
            else go (k + 1)
          in
          go 0
        in
        (find p.Pte_core.Rules.outer, find p.Pte_core.Rules.inner,
         p.Pte_core.Rules.enter_risky_min, p.Pte_core.Rules.exit_safe_min))
      spec.Pte_core.Rules.pairs
  in
  let dwell_bound k = Pte_core.Rules.dwell_bound spec entities.(k) in
  let n_clocks = !counter in
  (* per-clock extrapolation constants: guard/invariant constants for the
     automata clocks; for the observer clocks, the largest constant each
     is ever compared against — the dwell bound and p1 safeguards for
     rc, the p3 safeguards for xc. *)
  let k = Array.make (n_clocks + 1) 0.0 in
  Array.iter (fun ta -> Ta.accumulate_max_constants ta ~k) tas;
  List.iter
    (fun (outer, inner, t_risky, t_safe) ->
      if t_risky > k.(rc.(outer)) then k.(rc.(outer)) <- t_risky;
      if t_safe > k.(xc.(inner)) then k.(xc.(inner)) <- t_safe)
    pairs;
  Array.iteri
    (fun i e ->
      let bound = Pte_core.Rules.dwell_bound spec e in
      if Float.is_finite bound && bound > k.(rc.(i)) then k.(rc.(i)) <- bound)
    entities;
  let is_risky ta_idx loc = tas.(ta_idx).Ta.locations.(loc).Ta.risky in
  let active_tables = Array.map Ta.active_clocks tas in
  (* listeners per root, precomputed *)
  let listener_table : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i ta ->
      Array.iter
        (fun es ->
          List.iter
            (fun (e : Ta.edge) ->
              match e.Ta.sync with
              | Some root ->
                  let existing =
                    Option.value (Hashtbl.find_opt listener_table root)
                      ~default:[]
                  in
                  if not (List.mem i existing) then
                    Hashtbl.replace listener_table root (existing @ [ i ])
              | None -> ())
            es)
        ta.Ta.edges)
    tas;
  let listeners root ~sender =
    List.filter
      (fun i -> i <> sender)
      (Option.value (Hashtbl.find_opt listener_table root) ~default:[])
  in
  (* ---- zone helpers --------------------------------------------------- *)
  let apply_atoms zone atoms =
    List.for_all
      (fun (a : Ta.clock_atom) ->
        Dbm.constrain_atom zone ~clock:a.Ta.clock ~cmp:a.Ta.cmp ~const:a.Ta.const)
      atoms
  in
  let invariants_of locs =
    let atoms = ref [] in
    Array.iteri
      (fun i loc -> atoms := tas.(i).Ta.locations.(loc).Ta.invariant @ !atoms)
      locs;
    !atoms
  in
  let any_urgent locs =
    let urgent = ref false in
    Array.iteri
      (fun i loc -> if tas.(i).Ta.locations.(loc).Ta.urgent then urgent := true)
      locs;
    !urgent
  in
  (* close a freshly produced zone: invariants, elapse, invariants,
     extrapolation. Returns false if empty. *)
  let close locs zone =
    if not (apply_atoms zone (invariants_of locs)) then false
    else begin
      if not (any_urgent locs) then begin
        Dbm.up zone;
        if not (apply_atoms zone (invariants_of locs)) then assert false
      end;
      Dbm.normalize_per_clock zone ~k;
      not (Dbm.is_empty zone)
    end
  in
  (* ---- exploration ---------------------------------------------------- *)
  let states = ref (Array.make 1024 None) in
  let n_states = ref 0 in
  let push_state s =
    if !n_states >= Array.length !states then begin
      let bigger = Array.make (2 * Array.length !states) None in
      Array.blit !states 0 bigger 0 !n_states;
      states := bigger
    end;
    !states.(!n_states) <- Some s;
    incr n_states;
    !n_states - 1
  in
  let get_state i =
    match !states.(i) with Some s -> s | None -> assert false
  in
  let visited : (int array * int, (Dbm.t * int) list ref) Hashtbl.t =
    Hashtbl.create 4096
  in
  let seen locs flags zone =
    match Hashtbl.find_opt visited (locs, flags) with
    | None -> false
    | Some zones -> List.exists (fun (z, _) -> Dbm.includes z zone) !zones
  in
  let remember locs flags zone idx =
    let k = (locs, flags) in
    match Hashtbl.find_opt visited k with
    | None -> Hashtbl.replace visited k (ref [ (zone, idx) ])
    | Some zones ->
        zones := (zone, idx) :: List.filter (fun (z, _) -> not (Dbm.includes zone z)) !zones
  in
  let violations = ref [] in
  let found kind state = violations := { kind; state } :: !violations in
  let stop = ref false in
  let transitions = ref 0 in
  let queue = Queue.create () in
  (* state-based checks *)
  let check_state idx =
    let s = get_state idx in
    List.iter
      (fun (outer, inner, _, _) ->
        if
          is_risky entity_ta.(inner) s.locs.(entity_ta.(inner))
          && not (is_risky entity_ta.(outer) s.locs.(entity_ta.(outer)))
        then begin
          found
            (P2_not_embedded { outer = entities.(outer); inner = entities.(inner) })
            idx;
          if config.stop_at_first then stop := true
        end)
      pairs;
    Array.iteri
      (fun k ta_idx ->
        if is_risky ta_idx s.locs.(ta_idx) then begin
          let bound = dwell_bound k in
          if Float.is_finite bound then
            match Dbm.sup s.zone rc.(k) with
            | Bound.Inf ->
                found (Rule1_dwell { entity = entities.(k); bound }) idx;
                if config.stop_at_first then stop := true
            | Bound.Bound (v, _) ->
                if v > bound +. 1e-9 then begin
                  found (Rule1_dwell { entity = entities.(k); bound }) idx;
                  if config.stop_at_first then stop := true
                end
        end)
      entity_ta
  in
  let add_state locs flags zone ~parent ~action =
    if not (seen locs flags zone) then begin
      let idx = push_state { locs; flags; zone; parent; action } in
      remember locs flags zone idx;
      Queue.push idx queue;
      check_state idx
    end
  in
  (* fire a set of (automaton, edge) simultaneously from state [s];
     performs observer checks and produces the successor. *)
  let fire s ~parent firing ~action =
    incr transitions;
    let zone = Dbm.copy s.zone in
    let guards_ok =
      List.for_all (fun (_, (e : Ta.edge)) -> apply_atoms zone e.Ta.guard) firing
    in
    if guards_ok && not (Dbm.is_empty zone) then begin
      (* observer checks at the transition instant, before resets *)
      let entering =
        List.filter_map
          (fun (i, (e : Ta.edge)) ->
            match entity_of_ta i with
            | Some k
              when (not (is_risky i e.Ta.src)) && is_risky i e.Ta.dst ->
                Some k
            | _ -> None)
          firing
      in
      let exiting =
        List.filter_map
          (fun (i, (e : Ta.edge)) ->
            match entity_of_ta i with
            | Some k when is_risky i e.Ta.src && not (is_risky i e.Ta.dst) ->
                Some k
            | _ -> None)
          firing
      in
      List.iter
        (fun k ->
          List.iter
            (fun (outer, inner, t_risky, _) ->
              if
                inner = k
                && is_risky entity_ta.(outer) s.locs.(entity_ta.(outer))
              then begin
                let probe = Dbm.copy zone in
                if
                  Dbm.constrain_atom probe ~clock:rc.(outer) ~cmp:Dbm.Lt
                    ~const:t_risky
                then begin
                  found
                    (P1_enter_safeguard
                       { outer = entities.(outer); inner = entities.(inner);
                         required = t_risky })
                    parent;
                  if config.stop_at_first then stop := true
                end
              end)
            pairs)
        entering;
      List.iter
        (fun k ->
          List.iter
            (fun (outer, inner, _, t_safe) ->
              if
                outer = k
                && s.flags land (1 lsl inner) <> 0
                && not (is_risky entity_ta.(inner) s.locs.(entity_ta.(inner)))
              then begin
                let probe = Dbm.copy zone in
                if
                  Dbm.constrain_atom probe ~clock:xc.(inner) ~cmp:Dbm.Lt
                    ~const:t_safe
                then begin
                  found
                    (P3_exit_safeguard
                       { outer = entities.(outer); inner = entities.(inner);
                         required = t_safe })
                    parent;
                  if config.stop_at_first then stop := true
                end
              end)
            pairs)
        exiting;
      (* resets *)
      List.iter
        (fun (_, (e : Ta.edge)) -> List.iter (Dbm.reset zone) e.Ta.resets)
        firing;
      List.iter (fun k -> Dbm.reset zone rc.(k)) entering;
      List.iter (fun k -> Dbm.reset zone xc.(k)) exiting;
      let locs = Array.copy s.locs in
      List.iter (fun (i, (e : Ta.edge)) -> locs.(i) <- e.Ta.dst) firing;
      let flags =
        List.fold_left (fun f k -> f lor (1 lsl k)) s.flags exiting
      in
      (* inactive-clock reduction: canonicalize unread clocks to 0 *)
      let active = ref Ta.Int_set.empty in
      Array.iteri
        (fun i loc ->
          active := Ta.Int_set.union !active active_tables.(i).(loc))
        locs;
      Array.iteri
        (fun k ta_idx ->
          if is_risky ta_idx locs.(ta_idx) then
            active := Ta.Int_set.add rc.(k) !active
          else if flags land (1 lsl k) <> 0 then
            active := Ta.Int_set.add xc.(k) !active)
        entity_ta;
      for clk = 1 to n_clocks do
        if not (Ta.Int_set.mem clk !active) then Dbm.free zone clk
      done;
      if close locs zone then add_state locs flags zone ~parent ~action
    end
  in
  (* initial state *)
  let initial_locs = Array.map (fun ta -> ta.Ta.initial) tas in
  let initial_zone = Dbm.zero ~clocks:n_clocks in
  if close initial_locs initial_zone then
    add_state initial_locs 0 initial_zone ~parent:(-1)
      ~action:(fun () -> "init");
  (* the state budget and stop-at-first both leave states queued *)
  while (not (Queue.is_empty queue)) && not !stop do
    if !n_states > config.max_states then stop := true
    else begin
      let idx = Queue.pop queue in
      let s = get_state idx in
      Array.iteri
        (fun i ta ->
          List.iter
            (fun (e : Ta.edge) ->
              match e.Ta.sync with
              | Some _ -> () (* fires only synchronized with a send *)
              | None -> (
                  let base_action () =
                    Fmt.str "%s: %s -> %s%a" ta.Ta.name
                      ta.Ta.locations.(e.Ta.src).Ta.name
                      ta.Ta.locations.(e.Ta.dst).Ta.name
                      (Fmt.option (fun ppf l -> Fmt.pf ppf " %a" Label.pp l))
                      e.Ta.label
                  in
                  match e.Ta.label with
                  | Some (Label.Send root) ->
                      (* per listener: matching enabled edges, or loss *)
                      let options_per_listener =
                        List.map
                          (fun b ->
                            let matching =
                              List.filter
                                (fun (r : Ta.edge) ->
                                  match r.Ta.sync with
                                  | Some rt -> String.equal rt root
                                  | None -> false)
                                tas.(b).Ta.edges.(s.locs.(b))
                            in
                            let receive =
                              List.map (fun r -> Some (b, r)) matching
                            in
                            let can_lose =
                              matching = []
                              || List.exists
                                   (fun (r : Ta.edge) ->
                                     match r.Ta.label with
                                     | Some (Label.Recv_lossy _) -> true
                                     | _ -> false)
                                   matching
                            in
                            if can_lose then None :: receive else receive)
                          (listeners root ~sender:i)
                      in
                      let rec combos acc = function
                        | [] -> [ List.rev acc ]
                        | opts :: rest ->
                            List.concat_map
                              (fun o -> combos (o :: acc) rest)
                              opts
                      in
                      List.iter
                        (fun combo ->
                          let receivers = List.filter_map Fun.id combo in
                          let outcome =
                            if receivers = [] then " [lost]" else " [delivered]"
                          in
                          fire s ~parent:idx
                            ((i, e) :: receivers)
                            ~action:(fun () -> base_action () ^ outcome))
                        (combos [] options_per_listener)
                  | _ -> fire s ~parent:idx [ (i, e) ] ~action:base_action))
            ta.Ta.edges.(s.locs.(i)))
        tas
    end
  done;
  let trace idx =
    let rec go acc i =
      if i < 0 then acc
      else
        let s = get_state i in
        go (s.action () :: acc) s.parent
    in
    go [] idx
  in
  let discrete_states = Hashtbl.length visited in
  let clock_name_arr = Array.of_list (List.rev !clock_names) in
  let max_zones = ref 0 and hot = ref "" and hot_zones = ref [] in
  Hashtbl.iter
    (fun (locs, flags) zones ->
      let n = List.length !zones in
      if n > !max_zones then begin
        max_zones := n;
        hot :=
          Fmt.str "%a|%d (%s)"
            Fmt.(array ~sep:(any ",") int)
            locs flags
            (String.concat "/"
               (Array.to_list
                  (Array.mapi
                     (fun i l -> tas.(i).Ta.locations.(l).Ta.name)
                     locs)));
        hot_zones :=
          List.filteri (fun i _ -> i < 6) !zones
          |> List.map (fun (z, _) ->
                 Fmt.str "%a" (Dbm.pp ~names:clock_name_arr) z)
      end)
    visited;
  {
    violations = List.rev !violations;
    states = !n_states;
    transitions = !transitions;
    exhausted = Queue.is_empty queue;
    trace;
    discrete_states;
    max_zones_per_key = !max_zones;
    hot_key = !hot;
    hot_zones = !hot_zones;
  }
