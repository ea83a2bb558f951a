(** Zone-based reachability over the product of the pattern's timed
    automata, with nondeterministic message loss and PTE observers.

    Semantics of communication (matching the executor's, abstracted to
    zero delay): when an automaton fires an edge labelled [!root], each
    listener either takes an enabled matching receive edge in the same
    instant or — for [??root] receivers, or when no matching edge is
    enabled — the event is lost/ignored. Every combination is explored,
    which realizes the paper's "events … can be arbitrarily lost".

    PTE observers: per remote entity ξ we add two auxiliary clocks —
    [rc_ξ], reset whenever ξ enters its risky set, and [xc_ξ], reset
    whenever it leaves it — plus a has-exited flag. Then:

    - Rule 1 fails iff some reachable risky state admits
      [rc_ξ > bound];
    - p2 fails iff some reachable state has an inner entity risky while
      its outer neighbour is safe;
    - p1 fails iff an inner entity can enter its risky set while
      [rc_outer < T^min_risky] (outer risky);
    - p3 fails iff an outer entity can leave its risky set while
      [xc_inner < T^min_safe] (inner already exited).

    The search loop does only zone work (DESIGN §14): each transition
    is evaluated on one scratch zone, which is copied only when a new
    state is stored; a queued state carries its discrete key and zone
    until it is expanded, and afterwards only its parent and action
    remain, for traces. The visited store owns every long-lived zone. *)

open Pte_hybrid

type violation_kind =
  | Rule1_dwell of { entity : string; bound : float }
  | P1_enter_safeguard of { outer : string; inner : string; required : float }
  | P2_not_embedded of { outer : string; inner : string }
  | P3_exit_safeguard of { outer : string; inner : string; required : float }

type violation = { kind : violation_kind; state : int }

type config = { max_states : int; stop_at_first : bool }

let default_config = { max_states = 2_000_000; stop_at_first = false }

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
}

let ok result = result.violations = [] && result.exhausted

let pp_violation_kind ppf = function
  | Rule1_dwell { entity; bound } ->
      Fmt.pf ppf "Rule 1: %s can dwell in risky-locations beyond %gs" entity
        bound
  | P1_enter_safeguard { outer; inner; required } ->
      Fmt.pf ppf
        "Rule 2 (p1): %s can enter risky < %gs after %s entered risky" inner
        required outer
  | P2_not_embedded { outer; inner } ->
      Fmt.pf ppf "Rule 2 (p2): %s can be risky while %s is safe" inner outer
  | P3_exit_safeguard { outer; inner; required } ->
      Fmt.pf ppf "Rule 2 (p3): %s can exit risky < %gs after %s exited" outer
        required inner

(* A discrete key is the location vector with the has-exited flags (a
   bitmask over spec order) in its last slot. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = n

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + Array.unsafe_get a i
    done;
    !h land max_int
end

(* A queued state: its number, its key (shared with the visited store)
   and its zone. Dropped once expanded. *)
type pending = { idx : int; key : Key.t; zone : Dbm.t }

(* The visited store's entry for one key: the stored zones no later one
   includes. *)
type bucket = { bkey : Key.t; mutable zones : Dbm.t list }

(* The helpers below are top level so that the search allocates no
   closure per transition. *)

let rec apply_atoms zone = function
  | [] -> true
  | (a : Ta.clock_atom) :: rest ->
      Dbm.constrain_atom zone ~clock:a.Ta.clock ~cmp:a.Ta.cmp ~const:a.Ta.const
      && apply_atoms zone rest

let rec reset_all zone = function
  | [] -> ()
  | clock :: rest ->
      Dbm.reset zone clock;
      reset_all zone rest

(* some zone of [zones] includes [zone] *)
let rec covered zones zone =
  match zones with
  | [] -> false
  | z :: rest -> Dbm.includes z zone || covered rest zone

(* the zones of [zones] that [zone] does not include, in order; the tail
   after the last dropped zone is shared, not copied *)
let rec prune zone = function
  | [] -> []
  | z :: rest as zones ->
      let kept = prune zone rest in
      if Dbm.includes zone z then kept
      else if kept == rest then zones
      else z :: kept

(* [!arr.(n) <- v], doubling the array when full *)
let push_int arr n v =
  if n >= Array.length !arr then begin
    let bigger = Array.make (2 * Array.length !arr) 0 in
    Array.blit !arr 0 bigger 0 n;
    arr := bigger
  end;
  !arr.(n) <- v

(* actions: [-1] for the initial state, else [(id lsl 2) lor outcome]
   for the own edge [id], outcome 0 (no send), 1 (lost), 2 (delivered) *)
let lost = 1
let delivered = 2

let check ?(config = default_config) ~(system : System.t)
    ~(spec : Pte_core.Rules.t) () =
  (* ---- translation ---------------------------------------------------- *)
  let counter = ref 0 in
  let alloc _name =
    incr counter;
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
  let n_tas = Array.length tas in
  let automaton_index name =
    let rec go i =
      if i >= n_tas then Fmt.invalid_arg "mc: unknown automaton %s" name
      else if String.equal tas.(i).Ta.name name then i
      else go (i + 1)
    in
    go 0
  in
  (* observers *)
  let entities = Array.of_list spec.Pte_core.Rules.order in
  let n_entities = Array.length entities in
  let dwell_bounds = Array.map (Pte_core.Rules.dwell_bound spec) entities in
  if Array.exists Float.is_nan dwell_bounds then
    invalid_arg "Reach.check: a Rule 1 dwell bound is NaN";
  let entity_ta = Array.map automaton_index entities in
  let rc = Array.map (fun e -> alloc ("rc." ^ e)) entities in
  let xc = Array.map (fun e -> alloc ("xc." ^ e)) entities in
  (* the first entity automaton [i] plays, or -1 *)
  let entity_of_ta = Array.make n_tas (-1) in
  for k = n_entities - 1 downto 0 do
    entity_of_ta.(entity_ta.(k)) <- k
  done;
  let pairs =
    Array.of_list
      (List.map
         (fun (p : Pte_core.Rules.pair) ->
           let find name =
             let rec go k =
               if k >= n_entities then assert false
               else if String.equal entities.(k) name then k
               else go (k + 1)
             in
             go 0
           in
           ( find p.Pte_core.Rules.outer,
             find p.Pte_core.Rules.inner,
             p.Pte_core.Rules.enter_risky_min,
             p.Pte_core.Rules.exit_safe_min ))
         spec.Pte_core.Rules.pairs)
  in
  let n_clocks = !counter in
  (* per-clock extrapolation constants: guard/invariant constants for the
     automata clocks; for the observer clocks, the largest constant each
     is ever compared against — the dwell bound and p1 safeguards for
     rc, the p3 safeguards for xc. *)
  let k = Array.make (n_clocks + 1) 0.0 in
  Array.iter (fun ta -> Ta.accumulate_max_constants ta ~k) tas;
  Array.iter
    (fun (outer, inner, t_risky, t_safe) ->
      if t_risky > k.(rc.(outer)) then k.(rc.(outer)) <- t_risky;
      if t_safe > k.(xc.(inner)) then k.(xc.(inner)) <- t_safe)
    pairs;
  Array.iteri
    (fun i bound ->
      if Float.is_finite bound && bound > k.(rc.(i)) then k.(rc.(i)) <- bound)
    dwell_bounds;
  let is_risky ta_idx loc = tas.(ta_idx).Ta.locations.(loc).Ta.risky in
  (* per automaton and location, the clocks read before their next reset *)
  let active_clocks =
    Array.map
      (fun ta ->
        Array.map
          (fun set -> Array.of_list (Ta.Int_set.elements set))
          (Ta.active_clocks ta))
      tas
  in
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
  (* a listener's options on a send of [root], per automaton and
     location: [None] (the event is lost) when the location has no
     matching receive edge or one receives lossily, then each matching
     edge *)
  let receive_options = Hashtbl.create 64 in
  let options_of root =
    match Hashtbl.find_opt receive_options root with
    | Some options -> options
    | None ->
        let at es =
          let matching =
            List.filter
              (fun (r : Ta.edge) ->
                match r.Ta.sync with
                | Some rt -> String.equal rt root
                | None -> false)
              es
          in
          let receive = List.map Option.some matching in
          let can_lose =
            matching = []
            || List.exists
                 (fun (r : Ta.edge) ->
                   match r.Ta.label with
                   | Some (Label.Recv_lossy _) -> true
                   | _ -> false)
                 matching
          in
          Array.of_list (if can_lose then None :: receive else receive)
        in
        let options =
          Array.map (fun (ta : Ta.t) -> Array.map at ta.Ta.edges) tas
        in
        Hashtbl.replace receive_options root options;
        options
  in
  (* the edges each automaton fires on its own (a synchronized edge fires
     only with its send), numbered: [own.(i).(loc)] holds the ids of
     automaton [i]'s at [loc] in edge order, [edge_of.(id)] the edge *)
  let numbered = ref [] and next_id = ref 0 in
  let own =
    Array.mapi
      (fun i (ta : Ta.t) ->
        Array.map
          (fun es ->
            Array.of_list
              (List.filter_map
                 (fun (e : Ta.edge) ->
                   if Option.is_some e.Ta.sync then None
                   else begin
                     numbered := (i, e) :: !numbered;
                     incr next_id;
                     Some (!next_id - 1)
                   end)
                 es))
          ta.Ta.edges)
      tas
  in
  let edge_of = Array.of_list (List.rev !numbered) in
  (* per own send edge: the other listeners of its root and their options *)
  let sends =
    Array.map
      (fun (i, (e : Ta.edge)) ->
        match e.Ta.label with
        | Some (Label.Send root) ->
            Some (Array.of_list (listeners root ~sender:i), options_of root)
        | _ -> None)
      edge_of
  in
  (* ---- search state ---------------------------------------------------- *)
  let any_urgent (key : Key.t) =
    let urgent = ref false in
    for i = 0 to n_tas - 1 do
      if tas.(i).Ta.locations.(key.(i)).Ta.urgent then urgent := true
    done;
    !urgent
  in
  (* every location's invariant, last automaton first *)
  let apply_invariants (key : Key.t) zone =
    let ok = ref true and i = ref (n_tas - 1) in
    while !ok && !i >= 0 do
      ok := apply_atoms zone tas.(!i).Ta.locations.(key.(!i)).Ta.invariant;
      decr i
    done;
    !ok
  in
  (* close a freshly produced zone: invariants, elapse, invariants,
     extrapolation. Returns false if empty. *)
  let close key zone =
    apply_invariants key zone
    && begin
         if not (any_urgent key) then begin
           Dbm.up zone;
           if not (apply_invariants key zone) then assert false
         end;
         Dbm.normalize_per_clock zone ~k;
         not (Dbm.is_empty zone)
       end
  in
  let module Visited = Hashtbl.Make (Key) in
  let visited : bucket Visited.t = Visited.create 4096 in
  let queue : pending Queue.t = Queue.create () in
  let parents = ref (Array.make 1024 0) and actions = ref (Array.make 1024 0) in
  let n_states = ref 0 in
  let violations = ref [] in
  let stop = ref false in
  let found kind state =
    violations := { kind; state } :: !violations;
    if config.stop_at_first then stop := true
  in
  let transitions = ref 0 in
  (* state-based checks *)
  let check_state idx (key : Key.t) zone =
    Array.iter
      (fun (outer, inner, _, _) ->
        if
          is_risky entity_ta.(inner) key.(entity_ta.(inner))
          && not (is_risky entity_ta.(outer) key.(entity_ta.(outer)))
        then
          found
            (P2_not_embedded { outer = entities.(outer); inner = entities.(inner) })
            idx)
      pairs;
    for k = 0 to n_entities - 1 do
      let ta_idx = entity_ta.(k) and bound = dwell_bounds.(k) in
      if is_risky ta_idx key.(ta_idx) && Float.is_finite bound then
        let dwells_beyond =
          match Dbm.sup zone rc.(k) with
          | Bound.Inf -> true
          | Bound.Bound (v, _) -> v > bound +. 1e-9
        in
        if dwells_beyond then
          found (Rule1_dwell { entity = entities.(k); bound }) idx
    done
  in
  let store key zone ~parent ~action =
    let idx = !n_states in
    push_int parents idx parent;
    push_int actions idx action;
    incr n_states;
    Queue.push { idx; key; zone } queue;
    check_state idx key zone
  in
  (* store [zone] at [key] unless a visited zone includes it; both are
     scratch and copied only when stored *)
  let add_state (key : Key.t) zone ~parent ~action =
    match Visited.find_opt visited key with
    | None ->
        let key = Array.copy key and zone = Dbm.copy zone in
        Visited.replace visited key { bkey = key; zones = [ zone ] };
        store key zone ~parent ~action
    | Some bucket ->
        if not (covered bucket.zones zone) then begin
          let zone = Dbm.copy zone in
          bucket.zones <- zone :: prune zone bucket.zones;
          store bucket.bkey zone ~parent ~action
        end
  in
  (* ---- transitions ------------------------------------------------------ *)
  (* the scratch state: the firing set (sender first, then receivers in
     listener order), the successor's zone, key and observer events *)
  let no_edge =
    { Ta.src = 0; dst = 0; guard = []; resets = []; label = None; may = false;
      sync = None }
  in
  let fire_ta = Array.make n_tas 0 and fire_edge = Array.make n_tas no_edge in
  let n_fire = ref 0 in
  let choice = Array.make n_tas 0 in
  let zone = Dbm.zero ~clocks:n_clocks and probe = Dbm.zero ~clocks:n_clocks in
  let succ = Array.make (n_tas + 1) 0 in
  let entering = Array.make n_tas 0 and n_entering = ref 0 in
  let exiting = Array.make n_tas 0 and n_exiting = ref 0 in
  let mark = Array.make (n_clocks + 1) 0 and stamp = ref 0 in
  (* fire the firing set from [st]: performs observer checks and adds the
     successor *)
  let fire (st : pending) ~action =
    incr transitions;
    Dbm.blit ~src:st.zone ~dst:zone;
    let guards_ok = ref true and f = ref 0 in
    while !guards_ok && !f < !n_fire do
      guards_ok := apply_atoms zone fire_edge.(!f).Ta.guard;
      incr f
    done;
    if !guards_ok && not (Dbm.is_empty zone) then begin
      let key = st.key in
      (* observer checks at the transition instant, before resets *)
      n_entering := 0;
      n_exiting := 0;
      for f = 0 to !n_fire - 1 do
        let i = fire_ta.(f) and e = fire_edge.(f) in
        let k = entity_of_ta.(i) in
        if k >= 0 then
          if (not (is_risky i e.Ta.src)) && is_risky i e.Ta.dst then begin
            entering.(!n_entering) <- k;
            incr n_entering
          end
          else if is_risky i e.Ta.src && not (is_risky i e.Ta.dst) then begin
            exiting.(!n_exiting) <- k;
            incr n_exiting
          end
      done;
      for x = 0 to !n_entering - 1 do
        for p = 0 to Array.length pairs - 1 do
          let outer, inner, t_risky, _ = pairs.(p) in
          if
            inner = entering.(x)
            && is_risky entity_ta.(outer) key.(entity_ta.(outer))
          then begin
            Dbm.blit ~src:zone ~dst:probe;
            if
              Dbm.constrain_atom probe ~clock:rc.(outer) ~cmp:Dbm.Lt
                ~const:t_risky
            then
              found
                (P1_enter_safeguard
                   { outer = entities.(outer); inner = entities.(inner);
                     required = t_risky })
                st.idx
          end
        done
      done;
      let flags = key.(n_tas) in
      for x = 0 to !n_exiting - 1 do
        for p = 0 to Array.length pairs - 1 do
          let outer, inner, _, t_safe = pairs.(p) in
          if
            outer = exiting.(x)
            && flags land (1 lsl inner) <> 0
            && not (is_risky entity_ta.(inner) key.(entity_ta.(inner)))
          then begin
            Dbm.blit ~src:zone ~dst:probe;
            if
              Dbm.constrain_atom probe ~clock:xc.(inner) ~cmp:Dbm.Lt
                ~const:t_safe
            then
              found
                (P3_exit_safeguard
                   { outer = entities.(outer); inner = entities.(inner);
                     required = t_safe })
                st.idx
          end
        done
      done;
      (* resets *)
      for f = 0 to !n_fire - 1 do
        reset_all zone fire_edge.(f).Ta.resets
      done;
      for x = 0 to !n_entering - 1 do
        Dbm.reset zone rc.(entering.(x))
      done;
      for x = 0 to !n_exiting - 1 do
        Dbm.reset zone xc.(exiting.(x))
      done;
      Array.blit key 0 succ 0 (n_tas + 1);
      for f = 0 to !n_fire - 1 do
        succ.(fire_ta.(f)) <- fire_edge.(f).Ta.dst
      done;
      let flags = ref flags in
      for x = 0 to !n_exiting - 1 do
        flags := !flags lor (1 lsl exiting.(x))
      done;
      succ.(n_tas) <- !flags;
      (* inactive-clock reduction: free the clocks no location reads *)
      incr stamp;
      for i = 0 to n_tas - 1 do
        let clocks = active_clocks.(i).(succ.(i)) in
        for c = 0 to Array.length clocks - 1 do
          mark.(clocks.(c)) <- !stamp
        done
      done;
      for k = 0 to n_entities - 1 do
        let ta_idx = entity_ta.(k) in
        if is_risky ta_idx succ.(ta_idx) then mark.(rc.(k)) <- !stamp
        else if !flags land (1 lsl k) <> 0 then mark.(xc.(k)) <- !stamp
      done;
      for clk = 1 to n_clocks do
        if mark.(clk) <> !stamp then Dbm.free zone clk
      done;
      if close succ zone then add_state succ zone ~parent:st.idx ~action
    end
  in
  let expand (st : pending) =
    for i = 0 to n_tas - 1 do
      let ids = own.(i).(st.key.(i)) in
      for j = 0 to Array.length ids - 1 do
        let id = ids.(j) in
        fire_ta.(0) <- i;
        fire_edge.(0) <- snd edge_of.(id);
        match sends.(id) with
        | None ->
            n_fire := 1;
            fire st ~action:(id lsl 2)
        | Some (ls, options) ->
            (* every combination of the listeners' options, the first
               listener's outermost *)
            let n_ls = Array.length ls in
            Array.fill choice 0 n_ls 0;
            let more = ref true in
            while !more do
              n_fire := 1;
              for p = 0 to n_ls - 1 do
                let b = ls.(p) in
                match options.(b).(st.key.(b)).(choice.(p)) with
                | None -> ()
                | Some r ->
                    fire_ta.(!n_fire) <- b;
                    fire_edge.(!n_fire) <- r;
                    incr n_fire
              done;
              fire st
                ~action:((id lsl 2) lor if !n_fire = 1 then lost else delivered);
              let p = ref (n_ls - 1) in
              while
                !p >= 0
                &&
                let b = ls.(!p) in
                choice.(!p) <- choice.(!p) + 1;
                choice.(!p) = Array.length options.(b).(st.key.(b))
              do
                choice.(!p) <- 0;
                decr p
              done;
              if !p < 0 then more := false
            done
      done
    done
  in
  (* ---- exploration ------------------------------------------------------ *)
  let initial = Array.make (n_tas + 1) 0 in
  Array.iteri (fun i ta -> initial.(i) <- ta.Ta.initial) tas;
  if close initial zone then add_state initial zone ~parent:(-1) ~action:(-1);
  (* the state budget and stop-at-first both leave states queued *)
  while (not (Queue.is_empty queue)) && not !stop do
    if !n_states > config.max_states then stop := true
    else expand (Queue.pop queue)
  done;
  let parents = !parents and actions = !actions in
  let describe code =
    if code < 0 then "init"
    else
      let i, (e : Ta.edge) = edge_of.(code lsr 2) in
      let ta = tas.(i) in
      Fmt.str "%s: %s -> %s%a%s" ta.Ta.name
        ta.Ta.locations.(e.Ta.src).Ta.name
        ta.Ta.locations.(e.Ta.dst).Ta.name
        (Fmt.option (fun ppf l -> Fmt.pf ppf " %a" Label.pp l))
        e.Ta.label
        (match code land 3 with
        | 1 -> " [lost]"
        | 2 -> " [delivered]"
        | _ -> "")
  in
  let trace idx =
    let rec go acc i =
      if i < 0 then acc else go (describe actions.(i) :: acc) parents.(i)
    in
    go [] idx
  in
  {
    violations = List.rev !violations;
    states = !n_states;
    transitions = !transitions;
    exhausted = Queue.is_empty queue;
    trace;
    discrete_states = Visited.length visited;
    max_zones_per_key =
      Visited.fold
        (fun _ bucket acc -> Int.max acc (List.length bucket.zones))
        visited 0;
  }

(** Convenience: model-check the (un-elaborated) lease pattern for a
    configuration, against the spec induced by the configuration. *)
let check_pattern ?(lease = true) ?config ?dwell_bound (p : Pte_core.Params.t) =
  let system = Pte_core.Pattern.system ~lease p in
  let spec =
    match dwell_bound with
    | None -> Pte_core.Rules.of_params p
    | Some b -> Pte_core.Rules.of_params_with_bounds p ~dwell_bound:b
  in
  check ?config ~system ~spec ()
