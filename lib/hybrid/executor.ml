(** Fixed-step executor for hybrid systems.

    Executes a {!System.t} under the semantics of Section II: per
    location, data state variables evolve along the flow map while the
    invariant holds; discrete transitions fire when guards hold, reset
    variables, and exchange events through synchronization labels.

    Operational choices (documented here because the paper gives
    denotational semantics only):

    - Time advances in fixed steps of [config.dt] (default 1 ms) using
      explicit Euler integration. All configuration constants of the
      design pattern are >= 1 s in the case study, so the discretization
      error is orders of magnitude below every constraint margin.
    - If a step would violate the current invariant, the executor
      bisects to the boundary, fires an enabled spontaneous edge there
      ({e forced} transition), and finishes the step under the new
      location's flow. A boundary with no enabled edge is a time-block
      and raises {!Time_block} — the paper assumes time-block-free
      automata, so this surfaces modeling errors.
    - {!Edge.Eager} edges fire as soon as their guard holds (checked at
      step boundaries and after every discrete change).
    - Event transport is delegated to a pluggable {!router}: the closed
      (wired) semantics delivers instantly and reliably; [pte_sim] plugs
      in the wireless star network, making [??l] receptions lossy.
    - A bounded number of discrete changes may occur per instant;
      exceeding it raises {!Zeno} (the paper assumes non-zeno automata).

    Hot-path organisation: the event queue is a binary min-heap ordered
    by [(due, seq)] with lazy-delete tombstones, compacted once dead
    entries outnumber live ones (push O(log n), cancel O(1) amortised);
    automata live in a flat array indexed by int with the name->index
    table only at the API boundary; every location carries a
    precomputed dispatch index (trigger-root -> edges, cached
    eager/spontaneous arrays); {!stabilize} re-chases only {e active}
    automata — those that fired, received a message or whose location
    is time-sensitive — instead of scanning the whole system every
    fixpoint round; and the continuous sweep skips automata whose
    location is {e lazy} (constant-rate flow, no invariant, no eager
    spontaneous edge), replaying their skipped Euler additions only when
    something reads or writes their valuation. Because [seq] is the
    insertion order and breaks [due] ties exactly as a sorted list
    does, quiescent automata contribute nothing to a fixpoint round, and
    the replay performs the same float additions in the same order,
    traces and valuations are bit-identical to the reference engine:
    [~queue:`Legacy_list] keeps a sorted-list queue, full-scan
    stabilization and a full sweep, for the S1 benchmark baseline and
    the differential tests. *)

exception Time_block of { automaton : string; location : string; time : float }
exception Zeno of { automaton : string; time : float }

type route_decision =
  | Deliver of float  (** deliver after the given delay (seconds) *)
  | Deliver_many of float list
      (** deliver one copy per delay — duplicated frames (fault
          injection); an empty list is equivalent to [Lose] *)
  | Lose
  | Deferred
      (** the router has taken ownership of the send: it will schedule
          the delivery (or record the loss) itself through {!schedule} /
          {!deliver_now} / {!lose_now} — nothing to enqueue now (the
          event-driven ARQ transport) *)

type router =
  time:float -> sender:string -> root:string -> receiver:string ->
  route_decision

let reliable_router ~time:_ ~sender:_ ~root:_ ~receiver:_ = Deliver 0.0

type config = {
  dt : float;
  max_chain : int;
      (** Maximum discrete transitions per automaton per instant. *)
  sample_vars : (string * Var.t) list;
      (** [(automaton, var)] pairs recorded every {!sample_period}. *)
  sample_period : float;
}

let default_config =
  { dt = 1e-3; max_chain = 64; sample_vars = []; sample_period = 1.0 }

type queue_kind = [ `Heap | `Legacy_list ]

(* Per-location dispatch index, precomputed at {!create}: the edge
   subsets the hot path needs, in declaration order (so "first enabled
   edge" picks the same edge the old linear [edges_from] scan did). *)
type loc_info = {
  loc : Location.t;
  eager : Edge.t array;  (* spontaneous + Eager *)
  spontaneous : Edge.t array;  (* any urgency *)
  triggered : (string, Edge.t array) Hashtbl.t;  (* trigger root -> edges *)
  has_eager : bool;
      (* whether time passage alone can enable a transition here: if not,
         the automaton needs no eager re-chase after a continuous step *)
  is_lazy : bool;
      (* a step here only adds [rate * span] to each listed variable:
         the flow is [Rates], the invariant is [] and [eager] is empty *)
  clock_vars : Var.t array;
      (* lazy only: the distinct variables of the rate list, in order of
         first occurrence *)
  clock_slot : int array;  (* per rate entry: its index in [clock_vars] *)
  clock_rate : float array;  (* per rate entry: its slope *)
}

type automaton_state = {
  automaton : Automaton.t;
  ix : int;  (* index into [t.states] *)
  infos : (string, loc_info) Hashtbl.t;  (* location name -> index *)
  mutable info : loc_info;  (* current location's index *)
  mutable valuation : Valuation.t;
  mutable synced : int;
      (* number of sweeps already applied to [valuation]; a lazy
         automaton lags behind and catches up in {!sync} *)
  mutable entered_at : float;
  mutable halted : bool;
      (* crashed node: flows frozen, edges disabled, receptions dropped *)
  mutable rate : float;
      (* local clock-drift factor: its flows advance [rate * dt] per step *)
}

type token = int

type t = {
  system : System.t;
  config : config;
  mutable now : float;
  states : automaton_state array;
  index : (string, int) Hashtbl.t;  (* automaton name -> states index *)
  listeners : (string, int array) Hashtbl.t;
      (* root -> listener indices, in system declaration order *)
  queue : queue;
  mutable next_token : int;
  mutable events : int;  (* deliveries + timer firings + transitions *)
  recorder : Trace.Recorder.recorder;
  mutable router : router;
  mutable next_sample : float;
  awake : int array;
      (* bitset of the automata whose location is not lazy: the sweep
         visits only these *)
  active : int array;
      (* bitset of the automata that need an eager re-chase in the next
         stabilization round *)
  mutable sweeps : int;  (* completed continuous sweeps *)
  mutable cursor : int;
      (* during a sweep, the index being advanced: automata below it
         have already taken the current sweep; 0 outside a sweep *)
}

and pending = { due : float; seq : int; owner : string; payload : payload }
(* [owner]: the automaton blamed in Zeno diagnostics — the receiver for
   messages, the automaton whose exchange armed the timer for timers. *)

and payload =
  | Message of { receiver : int; root : string }
      (* a scheduled arrival: deliver [root] to [receiver] at [due] *)
  | Timer of (t -> unit)
      (* a scheduled callback (e.g. a transport retransmission timer) *)

and queue = Heap of heap | Legacy_list of legacy_list

and heap = {
  mutable arr : pending array;  (* slots [0, len) hold the heap *)
  mutable len : int;
  live : (int, unit) Hashtbl.t;
      (* seqs queued and not cancelled; cancel = remove (a tombstone),
         pop skips entries whose seq is no longer live, and the heap is
         compacted once dead entries outnumber live ones *)
}

and legacy_list = { mutable items : pending list (* sorted by (due, seq) *) }

(* {2 The event queue}

   Min-heap ordered by [(due, seq)]: [seq] is the global insertion
   counter, so due-ties pop in insertion order — exactly the order the
   legacy sorted list maintained. *)

let dummy_pending =
  { due = 0.0; seq = -1; owner = "<none>"; payload = Timer (fun _ -> ()) }

let pending_before a b = a.due < b.due || (a.due = b.due && a.seq < b.seq)

let heap_push h item =
  let cap = Array.length h.arr in
  if h.len = cap then begin
    let arr = Array.make (2 * cap) dummy_pending in
    Array.blit h.arr 0 arr 0 h.len;
    h.arr <- arr
  end;
  let i = ref h.len in
  h.len <- h.len + 1;
  h.arr.(!i) <- item;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if pending_before h.arr.(!i) h.arr.(parent) then begin
      let tmp = h.arr.(parent) in
      h.arr.(parent) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

(* Move the entry at [i] down until both children come after it. *)
let heap_sift_down h i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.len && pending_before h.arr.(l) h.arr.(!smallest) then
      smallest := l;
    if r < h.len && pending_before h.arr.(r) h.arr.(!smallest) then
      smallest := r;
    if !smallest <> !i then begin
      let tmp = h.arr.(!smallest) in
      h.arr.(!smallest) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

(* Remove the root (precondition: [h.len > 0]), restoring heap order. *)
let heap_drop_root h =
  h.len <- h.len - 1;
  h.arr.(0) <- h.arr.(h.len);
  h.arr.(h.len) <- dummy_pending (* release the callback closure *);
  heap_sift_down h 0

(* Keep only the live entries and re-heapify bottom-up, in O(len).
   [(due, seq)] is a total order, so the pop order is unchanged. *)
let heap_compact h =
  let kept = ref 0 in
  for i = 0 to h.len - 1 do
    let p = h.arr.(i) in
    if Hashtbl.mem h.live p.seq then begin
      h.arr.(!kept) <- p;
      incr kept
    end
  done;
  Array.fill h.arr !kept (h.len - !kept) dummy_pending;
  h.len <- !kept;
  for i = (h.len / 2) - 1 downto 0 do
    heap_sift_down h i
  done

(* Dead entries tolerated beyond the live count before compacting, so
   that tiny queues never compact. *)
let compaction_floor = 64

(* The live minimum, discarding cancelled (tombstoned) entries. *)
let rec heap_peek h =
  if h.len = 0 then None
  else
    let root = h.arr.(0) in
    if Hashtbl.mem h.live root.seq then Some root
    else begin
      heap_drop_root h;
      heap_peek h
    end

(* Pop the next live entry due at or before [deadline], if any. *)
let queue_pop_due q ~deadline =
  match q with
  | Heap h -> (
      match heap_peek h with
      | Some p when p.due <= deadline ->
          Hashtbl.remove h.live p.seq;
          heap_drop_root h;
          Some p
      | Some _ | None -> None)
  | Legacy_list l -> (
      match l.items with
      | p :: rest when p.due <= deadline ->
          l.items <- rest;
          Some p
      | _ -> None)

let queue_insert q item =
  match q with
  | Heap h ->
      Hashtbl.replace h.live item.seq ();
      heap_push h item
  | Legacy_list l ->
      let rec insert = function
        | [] -> [ item ]
        | hd :: tl as all ->
            if hd.due > item.due || (hd.due = item.due && hd.seq > item.seq)
            then item :: all
            else hd :: insert tl
      in
      l.items <- insert l.items

let queue_cancel q token =
  match q with
  | Heap h ->
      Hashtbl.remove h.live token;
      (* without this, a cancelled entry and its closure stay queued
         until its due time reaches the root *)
      let live = Hashtbl.length h.live in
      if h.len - live > live + compaction_floor then heap_compact h
  | Legacy_list l -> l.items <- List.filter (fun p -> p.seq <> token) l.items

(* {2 Automaton-index bitsets}

   The awake and active sets are scanned every step, so they are flat
   int arrays of [word_bits]-bit words. The two scans ({!stabilize},
   {!step}) are written out in place: a call per member, or a closure,
   costs more than the scan itself at N = 4. Each skips zero words,
   shifts through a nonzero word in declaration order, and re-reads the
   word after every visit, so members added ahead of the scan are
   visited and members removed ahead of it are not, as in a loop over
   per-automaton flags. *)

let word_bits = 63

let bits_create n = Array.make ((n + word_bits - 1) / word_bits) 0

let bit_set bits i =
  let w = i / word_bits in
  bits.(w) <- bits.(w) lor (1 lsl (i mod word_bits))

let bit_clear bits i =
  let w = i / word_bits in
  bits.(w) <- bits.(w) land lnot (1 lsl (i mod word_bits))

(* {2 Construction} *)

(* The lazy-replay tables of a [Rates] flow: its distinct variables,
   and each entry's slot among them and slope. *)
let clock_tables rates =
  let vars = ref [] and count = ref 0 in
  let slot var =
    match List.assoc_opt var !vars with
    | Some s -> s
    | None ->
        vars := (var, !count) :: !vars;
        incr count;
        !count - 1
  in
  let slots = Array.of_list (List.map (fun (var, _) -> slot var) rates) in
  let distinct = Array.of_list (List.rev_map fst !vars) in
  (distinct, slots, Array.of_list (List.map snd rates))

let build_loc_info ~lazy_ok (loc : Location.t) edges =
  let edges = Array.of_list edges in
  let eager =
    Array.of_list
      (List.filter
         (fun (e : Edge.t) -> Edge.is_spontaneous e && e.urgency = Edge.Eager)
         (Array.to_list edges))
  in
  let spontaneous =
    Array.of_list (List.filter Edge.is_spontaneous (Array.to_list edges))
  in
  let triggered = Hashtbl.create 8 in
  (* group triggered edges by root, preserving declaration order *)
  Array.iter
    (fun (e : Edge.t) ->
      match Edge.trigger_root e with
      | Some root ->
          let prev =
            match Hashtbl.find_opt triggered root with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace triggered root (e :: prev)
      | None -> ())
    edges;
  let triggered_arrays = Hashtbl.create (Hashtbl.length triggered) in
  Hashtbl.iter
    (fun root rev_edges ->
      Hashtbl.replace triggered_arrays root
        (Array.of_list (List.rev rev_edges)))
    triggered;
  let has_eager = Array.length eager > 0 in
  let rates =
    match loc.Location.flow with
    | Flow.Rates rates when lazy_ok && loc.Location.invariant = [] && not has_eager
      ->
        Some rates
    | Flow.Rates _ | Flow.Ode _ -> None
  in
  let clock_vars, clock_slot, clock_rate =
    match rates with
    | Some rates -> clock_tables rates
    | None -> ([||], [||], [||])
  in
  {
    loc;
    eager;
    spontaneous;
    triggered = triggered_arrays;
    has_eager;
    is_lazy = Option.is_some rates;
    clock_vars;
    clock_slot;
    clock_rate;
  }

let build_state ~lazy_ok ix (a : Automaton.t) =
  (* group edges by source location in one pass (declaration order) *)
  let by_src = Hashtbl.create (List.length a.Automaton.locations * 2) in
  List.iter
    (fun (e : Edge.t) ->
      let prev =
        match Hashtbl.find_opt by_src e.src with Some l -> l | None -> []
      in
      Hashtbl.replace by_src e.src (e :: prev))
    a.Automaton.edges;
  let infos = Hashtbl.create (List.length a.Automaton.locations * 2) in
  List.iter
    (fun (loc : Location.t) ->
      let edges =
        match Hashtbl.find_opt by_src loc.Location.name with
        | Some rev -> List.rev rev
        | None -> []
      in
      Hashtbl.replace infos loc.Location.name
        (build_loc_info ~lazy_ok loc edges))
    a.Automaton.locations;
  let info =
    match Hashtbl.find_opt infos a.Automaton.initial_location with
    | Some i -> i
    | None -> assert false (* System.validate_exn checked it *)
  in
  {
    automaton = a;
    ix;
    infos;
    info;
    valuation = Automaton.initial_valuation a;
    synced = 0;
    entered_at = 0.0;
    halted = false;
    rate = 1.0;
  }

let create ?(config = default_config) ?(queue = `Heap) ?trace_sink system =
  let system = System.validate_exn system in
  let recorder = Trace.Recorder.create ?sink:trace_sink () in
  let automata = Array.of_list system.System.automata in
  let n = Array.length automata in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (a : Automaton.t) -> Hashtbl.replace index a.Automaton.name i)
    automata;
  (* the legacy engine is the reference: it sweeps every automaton *)
  let lazy_ok = queue = `Heap in
  let states = Array.mapi (build_state ~lazy_ok) automata in
  let listeners = Hashtbl.create (4 * n) in
  Array.iteri
    (fun i (a : Automaton.t) ->
      Var.Set.iter
        (fun root ->
          let prev =
            match Hashtbl.find_opt listeners root with Some l -> l | None -> []
          in
          Hashtbl.replace listeners root (i :: prev))
        (Automaton.listened_roots a))
    automata;
  let listeners_arr = Hashtbl.create (Hashtbl.length listeners) in
  Hashtbl.iter
    (fun root rev_ixs ->
      Hashtbl.replace listeners_arr root (Array.of_list (List.rev rev_ixs)))
    listeners;
  Array.iter
    (fun st ->
      Trace.Recorder.record recorder ~time:0.0
        (Trace.Enter_location
           {
             automaton = st.automaton.Automaton.name;
             location = st.info.loc.Location.name;
           }))
    states;
  let queue =
    match queue with
    | `Heap ->
        Heap
          { arr = Array.make 64 dummy_pending; len = 0; live = Hashtbl.create 64 }
    | `Legacy_list -> Legacy_list { items = [] }
  in
  let awake = bits_create n and active = bits_create n in
  Array.iter
    (fun st ->
      bit_set active st.ix;
      if not st.info.is_lazy then bit_set awake st.ix)
    states;
  {
    system;
    config;
    now = 0.0;
    states;
    index;
    listeners = listeners_arr;
    queue;
    next_token = 0;
    events = 0;
    recorder;
    router = reliable_router;
    next_sample = 0.0;
    awake;
    active;
    sweeps = 0;
    cursor = 0;
  }

let set_router t router = t.router <- router
let time t = t.now
let trace t = Trace.Recorder.entries t.recorder
let events_processed t = t.events

let state_ix t name =
  match Hashtbl.find_opt t.index name with
  | Some ix -> ix
  | None -> Fmt.invalid_arg "executor: unknown automaton %s" name

let state t name = t.states.(state_ix t name)

(* {2 Lazy constant-rate automata}

   The sweep skips an automaton in a lazy location: there, a step only
   adds [r *. (dt *. rate)] to each listed variable. Its valuation lags
   [synced] sweeps behind and is brought up to date by {!sync} before
   anything reads or writes it, replaying the skipped additions — the
   same IEEE operations in the same order — in an unboxed loop. Every
   change of location, rate or halted status syncs first, so the
   skipped sweeps all ran under the current ones. *)

(* Replay [k] skipped sweeps of a lazy, running automaton. *)
let replay t st k =
  let info = st.info in
  let span = t.config.dt *. st.rate in
  let entries = Array.length info.clock_slot in
  if entries > 0 && not (span <= 0.0) then begin
    let vars = info.clock_vars in
    let values = Array.make (Array.length vars) 0.0 in
    for s = 0 to Array.length vars - 1 do
      values.(s) <- Valuation.get st.valuation vars.(s)
    done;
    for _ = 1 to k do
      for j = 0 to entries - 1 do
        let s = info.clock_slot.(j) in
        values.(s) <- values.(s) +. (info.clock_rate.(j) *. span)
      done
    done;
    let valuation = ref st.valuation in
    for s = 0 to Array.length vars - 1 do
      valuation := Valuation.set !valuation vars.(s) values.(s)
    done;
    st.valuation <- !valuation
  end

(* The sweeps [st]'s valuation must include now. Mid-sweep, the current
   sweep counts only for automata the sweep has already passed, exactly
   as the eager sweep would have advanced them. When an exception ends
   a sweep early, the cursor stays where it stopped, so later reads
   still see what the eager sweep left behind. *)
let sync_target t st = if st.ix < t.cursor then t.sweeps + 1 else t.sweeps

(* Bring [st]'s valuation up to date. Halted automata accumulate
   nothing. *)
let sync t st =
  let target = sync_target t st in
  let k = target - st.synced in
  if k > 0 then begin
    st.synced <- target;
    if st.info.is_lazy && not st.halted then replay t st k
  end

(* Enter [info]. The caller has synced [st] or replaces its valuation. *)
let set_location t st info =
  st.info <- info;
  if info.is_lazy then bit_clear t.awake st.ix else bit_set t.awake st.ix

let synced_state t name =
  let st = state t name in
  sync t st;
  st

(* Cheap reads: neither needs the valuation, so neither syncs. *)
let location_of t name = (state t name).info.loc.Location.name
let dwell_time t name = t.now -. (state t name).entered_at

let valuation_of t name = (synced_state t name).valuation
let value_of t name var = Valuation.get (synced_state t name).valuation var

(** Overwrite one variable, bypassing flows and resets. This is the hook
    for {e wired} physical couplings that the automata formalism cannot
    express without shared variables (which the system model forbids):
    e.g. the oximeter wired to the supervisor writes the sampled SpO2
    into the supervisor's local data state. Use through [pte_sim]'s
    coupling API rather than directly. *)
let set_value t name var value =
  let st = synced_state t name in
  st.valuation <- Valuation.set st.valuation var value;
  bit_set t.active st.ix

let record t event = Trace.Recorder.record t.recorder ~time:t.now event
let note t text = record t (Trace.Note text)

(** Crash an automaton: its flows freeze, its edges stop firing and
    incoming events are dropped until {!restart}. This realizes the
    fail-stop node faults of the robustness campaigns — a behaviour the
    paper's fault model (message loss only) does not cover, which is
    exactly why injecting it is informative. *)
let halt t name =
  let st = synced_state t name in
  if not st.halted then begin
    st.halted <- true;
    note t (Printf.sprintf "fault: %s crashed" name)
  end

(** Restart a crashed (or running) automaton from its initial location
    and valuation, as a rebooted node would. *)
let restart t name =
  let st = state t name in
  st.halted <- false;
  (match Hashtbl.find_opt st.infos st.automaton.Automaton.initial_location with
  | Some info -> set_location t st info
  | None -> assert false);
  (* the fresh valuation owes no skipped sweep *)
  st.valuation <- Automaton.initial_valuation st.automaton;
  st.synced <- sync_target t st;
  st.entered_at <- t.now;
  bit_set t.active st.ix;
  note t (Printf.sprintf "fault: %s restarted" name);
  record t
    (Trace.Enter_location
       { automaton = name; location = st.info.loc.Location.name })

let is_halted t name = (state t name).halted

(** Set an automaton's local clock-drift factor: each global step of
    [dt] advances its continuous state by [rate * dt]. [rate < 1] runs
    its clocks slow (leases expire late), [rate > 1] fast. *)
let set_rate t name rate =
  if rate <= 0.0 || not (Float.is_finite rate) then
    Fmt.invalid_arg "executor: clock rate must be positive, got %g" rate;
  (synced_state t name).rate <- rate

let rate t name = (state t name).rate

let push t ~due ~owner payload =
  if not (Float.is_finite due) then
    Fmt.invalid_arg "executor: event due time must be finite, got %g" due;
  let item = { due; seq = t.next_token; owner; payload } in
  t.next_token <- t.next_token + 1;
  queue_insert t.queue item;
  item.seq

let enqueue t ~due ~receiver ~root =
  let owner = t.states.(receiver).automaton.Automaton.name in
  ignore (push t ~due ~owner (Message { receiver; root }))

(** Schedule [f] to run at absolute time [at] (never earlier than the
    current instant), on the same timeline as message deliveries. The
    returned token revokes it through {!cancel} as long as it has not
    fired. This is the hook behind the event-driven ARQ transport:
    retransmission timers live in the delivery queue, so an arriving ACK
    can cancel the pending retransmission before the channel sees it.
    [owner] names the automaton whose exchange armed the timer — it is
    blamed in Zeno diagnostics instead of the anonymous ["<timer>"].
    Raises [Invalid_argument] when [at] is NaN or infinite: the old
    sorted-list queue silently accepted such timers and they could never
    fire ([Float.max nan now] is NaN), wedging the exchange and leaking
    the cancel token. *)
let schedule t ?(owner = "<timer>") ~at f =
  if not (Float.is_finite at) then
    Fmt.invalid_arg "executor: timer due time must be finite, got %g" at;
  push t ~due:(Float.max at t.now) ~owner (Timer f)

(** Revoke a scheduled timer or arrival before it fires. Unknown or
    already-fired tokens are ignored (cancellation is idempotent). *)
let cancel t token = queue_cancel t.queue token

let broadcast t ~sender ~root =
  let sender_name = t.states.(sender).automaton.Automaton.name in
  record t (Trace.Message_sent { sender = sender_name; root });
  match Hashtbl.find_opt t.listeners root with
  | None -> ()
  | Some ixs ->
      Array.iter
        (fun ix ->
          if ix <> sender then begin
            let receiver = t.states.(ix).automaton.Automaton.name in
            match t.router ~time:t.now ~sender:sender_name ~root ~receiver with
            | Lose | Deliver_many [] ->
                record t (Trace.Message_lost { receiver; root })
            | Deliver delay -> enqueue t ~due:(t.now +. delay) ~receiver:ix ~root
            | Deliver_many delays ->
                List.iter
                  (fun delay ->
                    enqueue t ~due:(t.now +. delay) ~receiver:ix ~root)
                  delays
            | Deferred -> ()
          end)
        ixs

(* Fire [edge] from [st]'s current location. Emits trace entries and
   broadcasts any sent event. The caller maintains the chain budget. *)
let fire t st (edge : Edge.t) ~forced =
  let name = st.automaton.Automaton.name in
  sync t st;
  record t
    (Trace.Transition
       { automaton = name; src = edge.src; dst = edge.dst; label = edge.label;
         forced });
  st.valuation <- Reset.apply edge.reset st.valuation;
  (match Hashtbl.find_opt st.infos edge.dst with
  | Some info -> set_location t st info
  | None -> assert false (* validated: no dangling edge endpoints *));
  st.entered_at <- t.now;
  bit_set t.active st.ix;
  t.events <- t.events + 1;
  record t
    (Trace.Enter_location
       { automaton = name; location = st.info.loc.Location.name });
  match edge.label with
  | Some (Label.Send root) -> broadcast t ~sender:st.ix ~root
  | Some (Label.Internal _) | Some (Label.Recv _) | Some (Label.Recv_lossy _)
  | None ->
      ()

let first_enabled edges valuation =
  let n = Array.length edges in
  let rec go i =
    if i >= n then None
    else
      let e : Edge.t = edges.(i) in
      if Guard.holds e.guard valuation then Some e else go (i + 1)
  in
  go 0

(* Neither syncs: the sweep advances non-lazy automata eagerly, and a
   lazy location has no eager edge, so no guard is read there. *)
let enabled_spontaneous st = first_enabled st.info.spontaneous st.valuation
let enabled_eager st = first_enabled st.info.eager st.valuation

(* Deliver [root] to [receiver]: fires the first enabled triggered edge
   listening on [root] in the current location, if any. *)
let deliver t ~receiver ~root =
  let st = t.states.(receiver) in
  let name = st.automaton.Automaton.name in
  t.events <- t.events + 1;
  if st.halted then begin
    (* a crashed node's radio is off: the frame arrives at nobody *)
    record t
      (Trace.Message_delivered { receiver = name; root; consumed = false });
    false
  end
  else
    let candidate =
      match Hashtbl.find_opt st.info.triggered root with
      | Some edges ->
          sync t st;
          first_enabled edges st.valuation
      | None -> None
    in
    match candidate with
    | Some edge ->
        record t
          (Trace.Message_delivered { receiver = name; root; consumed = true });
        fire t st edge ~forced:false;
        true
    | None ->
        record t
          (Trace.Message_delivered { receiver = name; root; consumed = false });
        false

(** Hand [root] to [receiver] at the current instant — the delivery half
    of a {!Deferred} routing decision (the event-driven transport calls
    this from a scheduled arrival callback). Returns [true] when a
    triggered edge consumed it. Any resulting cascade (eager edges,
    sends) is finished by the enclosing {!stabilize} loop. *)
let deliver_now t ~receiver ~root = deliver t ~receiver:(state_ix t receiver) ~root

(** Record that a send owned by a {!Deferred} router was lost — the
    asynchronous counterpart of the [Lose] routing decision, so traces
    show the loss at the instant the transport gave up rather than at
    the send instant. *)
let lose_now t ~receiver ~root =
  record t (Trace.Message_lost { receiver; root })

(* Fire eager edges and deliver due events until quiescent at the current
   instant.

   Incremental form: only {e active} automata — those that fired,
   received a message, were externally mutated or sit in a location with
   eager spontaneous edges after a continuous step — are re-chased each
   round. Eager enabledness depends only on (location, valuation), and a
   chase that reaches its fixpoint leaves nothing enabled, so skipping
   quiescent automata removes no transition; active automata are visited
   in declaration order, so the firing order (and hence the trace) is
   exactly the full-scan order. The legacy-list engine keeps the
   original full scan, as the benchmark baseline. *)
let stabilize t =
  let n = Array.length t.states in
  let budget = t.config.max_chain * n in
  let fires = ref 0 in
  let bump name =
    incr fires;
    if !fires > budget then raise (Zeno { automaton = name; time = t.now })
  in
  let progress = ref true in
  while !progress do
    progress := false;
    (* due deliveries and timers, in order *)
    let deadline = t.now +. 1e-12 in
    let rec drain () =
      match queue_pop_due t.queue ~deadline with
      | Some { payload = Message { receiver; root }; _ } ->
          bump t.states.(receiver).automaton.Automaton.name;
          if deliver t ~receiver ~root then progress := true;
          drain ()
      | Some { payload = Timer f; owner; _ } ->
          bump owner;
          t.events <- t.events + 1;
          f t;
          progress := true;
          drain ()
      | None -> ()
    in
    drain ();
    let chase st =
      let name = st.automaton.Automaton.name in
      let rec go k =
        if k >= t.config.max_chain then
          raise (Zeno { automaton = name; time = t.now });
        match enabled_eager st with
        | Some edge ->
            bump name;
            fire t st edge ~forced:false;
            progress := true;
            go (k + 1)
        | None -> ()
      in
      go 0
    in
    match t.queue with
    | Legacy_list _ ->
        for i = 0 to n - 1 do
          let st = t.states.(i) in
          if not st.halted then chase st
        done
    | Heap _ ->
        for w = 0 to Array.length t.active - 1 do
          let base = w * word_bits in
          let rest = ref t.active.(w) and i = ref base in
          while !rest <> 0 do
            if !rest land 1 = 1 then begin
              let st = t.states.(!i) in
              if not st.halted then begin
                chase st;
                (* fixpoint reached: nothing eager is enabled here until
                   a later delivery, mutation or continuous step re-marks
                   it *)
                bit_clear t.active !i
              end;
              rest := (t.active.(w) lsr (!i - base)) lsr 1
            end
            else rest := !rest lsr 1;
            incr i
          done
        done
  done

(* Advance one automaton's continuous state by [span] seconds starting at
   absolute time [start]; handles invariant boundaries by bisection and
   forced transitions. Precondition: invariant holds at entry. *)
let rec advance_automaton t st ~start ~span ~depth =
  if span <= 0.0 then ()
  else begin
    if depth > t.config.max_chain then
      raise (Zeno { automaton = st.automaton.Automaton.name; time = start });
    let flow = st.info.loc.Location.flow in
    let derivatives = Flow.derivatives flow ~time:start st.valuation in
    let tentative = Valuation.advance st.valuation derivatives span in
    let invariant = st.info.loc.Location.invariant in
    if Guard.holds invariant tentative then st.valuation <- tentative
    else begin
      (* Bisect for the largest alpha in [0,1] keeping the invariant. *)
      let from = st.valuation in
      let alpha = ref 0.0 in
      let width = ref 0.5 in
      for _ = 1 to 30 do
        let candidate = !alpha +. !width in
        let v = Valuation.interpolate ~from ~target:tentative candidate in
        if Guard.holds invariant v then alpha := candidate;
        width := !width /. 2.0
      done;
      st.valuation <- Valuation.interpolate ~from ~target:tentative !alpha;
      let boundary_time = start +. (!alpha *. span) in
      let saved_now = t.now in
      t.now <- boundary_time;
      (match enabled_spontaneous st with
      | Some edge -> fire t st edge ~forced:true
      | None ->
          raise
            (Time_block
               {
                 automaton = st.automaton.Automaton.name;
                 location = st.info.loc.Location.name;
                 time = boundary_time;
               }));
      t.now <- saved_now;
      advance_automaton t st ~start:boundary_time
        ~span:(span -. (!alpha *. span))
        ~depth:(depth + 1)
    end
  end

let sample t =
  List.iter
    (fun (automaton, var) ->
      match Hashtbl.find_opt t.index automaton with
      | None -> ()
      | Some ix ->
          let st = t.states.(ix) in
          sync t st;
          record t
            (Trace.Sample
               { automaton; var; value = Valuation.get st.valuation var }))
    t.config.sample_vars

(** Advance the whole system by one step of [config.dt]. *)
let step t =
  stabilize t;
  let start = t.now in
  let span = t.config.dt in
  (* lazy automata are skipped: {!sync} replays this sweep for them *)
  for w = 0 to Array.length t.awake - 1 do
    let base = w * word_bits in
    let rest = ref t.awake.(w) and i = ref base in
    while !rest <> 0 do
      if !rest land 1 = 1 then begin
        let st = t.states.(!i) in
        t.cursor <- !i;
        if not st.halted then begin
          advance_automaton t st ~start ~span:(span *. st.rate) ~depth:0;
          (* time passed: only a location with eager spontaneous edges
             can have gained an enabled transition from it *)
          if st.info.has_eager then bit_set t.active !i
        end;
        st.synced <- t.sweeps + 1;
        rest := (t.awake.(w) lsr (!i - base)) lsr 1
      end
      else rest := !rest lsr 1;
      incr i
    done
  done;
  t.cursor <- 0;
  t.sweeps <- t.sweeps + 1;
  t.now <- start +. span;
  stabilize t;
  if t.config.sample_vars <> [] && t.now >= t.next_sample -. 1e-12 then begin
    sample t;
    (* catch up past [now]: with dt > sample_period the old one-period
       bump fell permanently behind, emitting a stale burst *)
    t.next_sample <- t.next_sample +. t.config.sample_period;
    while t.now >= t.next_sample -. 1e-12 do
      t.next_sample <- t.next_sample +. t.config.sample_period
    done
  end

let run t ~until =
  while t.now < until -. 1e-12 do
    step t
  done

(** Deliver an environment stimulus to one automaton at the current time
    (used by scenarios for "at any time" environment transitions, e.g.
    the surgeon's request in the paper's emulation). Returns [true] if a
    triggered edge consumed it. *)
let inject t ~receiver ~root =
  record t (Trace.Message_sent { sender = "env"; root });
  let consumed = deliver t ~receiver:(state_ix t receiver) ~root in
  stabilize t;
  consumed
