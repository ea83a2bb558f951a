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
    table only at the API boundary (callers that act every step resolve
    it once, into an {!automaton_ref} or a {!var_ref}); each
    automaton's valuation is a [float array] over its declared
    variables, and each location is compiled, the first time the
    automaton enters it, into a {e kernel} of slot arrays ({!Kernel}:
    guards, invariant, resets and flow, an [Ode]'s scratch arrays
    included) with its dispatch index (trigger-root -> edges, eager and
    spontaneous arrays); {!stabilize} re-chases only {e active}
    automata — those that fired, received a message or whose location
    is time-sensitive — instead of scanning the whole system every
    fixpoint round, and allocates nothing in a round that fires
    nothing; and the continuous sweep, which allocates nothing either,
    skips {e sleeping} automata: one in a constant-rate location sleeps
    from the chase that leaves it at its fixpoint until the first sweep
    at which an atom of its invariant or eager guards answers
    differently, found by replaying the Euler additions ahead of time
    ({!Kernel.next_flip}) and queued in a wake heap, and its skipped
    additions are replayed only when something reads or writes its
    valuation or the sweep wakes it. The clock is an unboxed float,
    boxed at most once per instant, when a read escapes into a call.
    Because [seq] is the insertion order and breaks [due] ties exactly
    as a sorted list does, quiescent automata contribute nothing to a
    fixpoint round, a sleeping automaton is woken no later than the
    sweep whose step the full sweep would see change anything, and the
    kernels, the search and the replay perform the same float
    operations in the same order as the list-based {!Guard}, {!Reset}
    and {!Valuation} functions, traces and valuations are bit-identical
    to the reference engine: [~queue:`Legacy_list] keeps a sorted-list
    queue, full-scan stabilization and a full sweep, for the S1
    benchmark baseline and the differential tests. *)

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

type stats = {
  sweeps : int;
  awake_visits : int;
  wakes : int;
  early_wakes : int;
  replays : int;
  bisections : int;
  chases : int;
  kernels : int;
  compactions : int;
  peak_queue : int;
}

(* The trace events an edge's firings record: its [Transition],
   unforced and forced, and the root it sends with its [Message_sent].
   Trace events are immutable, so every firing of the edge shares
   them. *)
type firing = {
  taken : Trace.event;
  taken_forced : Trace.event;
  sends : (string * Trace.event) option;
}

(* An edge compiled over its automaton's slots. *)
type cedge = {
  edge : Edge.t;
  guard : Kernel.guard;
  reset : Kernel.reset;
  mutable firing : firing option;  (* built at its first firing *)
}

(* A location's kernel. The edge arrays keep declaration order, so
   "first enabled edge" picks the same edge a linear scan of the
   automaton's edges does. *)
type kernel = {
  loc : Location.t;
  entered : Trace.event;  (* its [Enter_location] *)
  invariant : Kernel.guard;
  flow : Kernel.flow;
  eager : cedge array;  (* spontaneous + Eager *)
  spontaneous : cedge array;  (* any urgency *)
  triggered : (string, cedge array) Hashtbl.t;  (* trigger root -> edges *)
  has_eager : bool;
      (* whether time passage alone can enable a transition here: if not,
         the automaton needs no eager re-chase after a continuous step *)
  sleepable : bool;
      (* the flow is [Rates] and the engine sleeps automata: between
         discrete changes, a step here only adds [rate * span] to each
         listed variable until an atom of [watch] answers differently *)
  watch : Kernel.watch;  (* the invariant's and the eager guards' atoms *)
}

type automaton_state = {
  automaton : Automaton.t;
  ix : int;  (* index into [t.states] *)
  layout : Kernel.layout;
  sources : (string, Location.t * Edge.t list) Hashtbl.t;
      (* location name -> the location and its out-edges, reversed *)
  kernels : (string, kernel) Hashtbl.t;
      (* location name -> kernel, for the locations entered so far *)
  mutable kernel : kernel;  (* the current location's *)
  values : float array;  (* the valuation, by slot *)
  mutable synced : int;
      (* number of sweeps already applied to [values]; a sleeping
         automaton lags behind and catches up in {!sync} *)
  mutable asleep : bool;
      (* the sweep skips it: out of [awake], and queued in [alarms] at
         the sweep that must visit it again, if there is one *)
  mutable entered_at : float;
  mutable halted : bool;
      (* crashed node: flows frozen, edges disabled, receptions dropped *)
  mutable rate : float;
      (* local clock-drift factor: its flows advance [rate * dt] per step *)
  mutable span : float;
      (* [dt *. rate], kept boxed so that the sweep passes it without
         allocating *)
}

type token = int

(* A variable resolved to its automaton's index and its slot there. *)
type var_ref = { member : int; slot : int }

(* A float-only record stores its field unboxed, so a step moves the
   clock without allocating. *)
type clock = { mutable now : float }

(* {2 The wake schedule}

   The sleeping automata that must be visited again at a given sweep,
   in a binary min-heap on that sweep. [pos] finds an automaton's
   entry, so an early wake takes it out and no automaton is queued
   twice. *)
type alarms = {
  heap : int array;  (* automaton indices; the first [len] in heap order *)
  pos : int array;  (* automaton index -> its heap position, or -1 *)
  due : int array;  (* automaton index -> its wake sweep, while queued *)
  mutable len : int;
}

type t = {
  system : System.t;
  config : config;
  clock : clock;
  mutable now_box : float;
      (* [clock.now] boxed, renewed only when a boxed read finds it stale *)
  states : automaton_state array;
  index : (string, int) Hashtbl.t;  (* automaton name -> states index *)
  listeners : (string, int array) Hashtbl.t;
      (* root -> listener indices, in system declaration order *)
  queue : queue;
  sleep_ok : bool;  (* the heap engine puts automata to sleep *)
  tentative : float array;
  probe : float array;
      (* scratch valuations of the invariant check and its bisection,
         as long as the largest automaton's *)
  mutable next_token : int;
  mutable events : int;  (* deliveries + timer firings + transitions *)
  recorder : Trace.Recorder.recorder;
  mutable router : router;
  samples : (string * Var.t * var_ref) list;  (* [config.sample_vars] *)
  mutable next_sample : float;
  awake : int array;
      (* bitset of the automata not asleep: the sweep visits only these *)
  alarms : alarms;
  active : int array;
      (* bitset of the automata that need an eager re-chase in the next
         stabilization round *)
  mutable sweeps : int;  (* completed continuous sweeps *)
  mutable cursor : int;
      (* during a sweep, the index being advanced: automata below it
         have already taken the current sweep; 0 outside a sweep *)
  mutable awake_visits : int;
  mutable wakes : int;
  mutable early_wakes : int;
  mutable replays : int;
  mutable bisections : int;
  mutable chases : int;
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
  mutable compactions : int;
  mutable peak : int;  (* most live entries at once *)
}

and legacy_list = { mutable items : pending list (* sorted by (due, seq) *) }

(* {2 The event queue}

   Min-heap ordered by [(due, seq)]: [seq] is the global insertion
   counter, so due-ties pop in insertion order — exactly the order the
   legacy sorted list maintained. *)

(* Never live: {!queue_peek}'s "empty" answer. *)
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
  h.compactions <- h.compactions + 1;
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

(* The live minimum, discarding cancelled (tombstoned) entries;
   [dummy_pending] when the queue is empty. *)
let rec heap_peek h =
  if h.len = 0 then dummy_pending
  else
    let root = h.arr.(0) in
    if Hashtbl.mem h.live root.seq then root
    else begin
      heap_drop_root h;
      heap_peek h
    end

let queue_peek = function
  | Heap h -> heap_peek h
  | Legacy_list { items = p :: _; _ } -> p
  | Legacy_list { items = []; _ } -> dummy_pending

(* Remove [p], which {!queue_peek} has just returned. *)
let queue_remove_peeked q p =
  match q with
  | Heap h ->
      Hashtbl.remove h.live p.seq;
      heap_drop_root h
  | Legacy_list l -> l.items <- List.tl l.items

let queue_insert q item =
  match q with
  | Heap h ->
      Hashtbl.replace h.live item.seq ();
      heap_push h item;
      let live = Hashtbl.length h.live in
      if live > h.peak then h.peak <- live
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

let alarms_create n =
  { heap = Array.make n 0; pos = Array.make n (-1); due = Array.make n 0; len = 0 }

let alarm_swap (a : alarms) i j =
  let x = a.heap.(i) and y = a.heap.(j) in
  a.heap.(i) <- y;
  a.pos.(y) <- i;
  a.heap.(j) <- x;
  a.pos.(x) <- j

let rec alarm_up (a : alarms) i =
  let parent = (i - 1) / 2 in
  if i > 0 && a.due.(a.heap.(i)) < a.due.(a.heap.(parent)) then begin
    alarm_swap a i parent;
    alarm_up a parent
  end

let rec alarm_down (a : alarms) i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < a.len && a.due.(a.heap.(l)) < a.due.(a.heap.(i)) then l else i in
  let m = if r < a.len && a.due.(a.heap.(r)) < a.due.(a.heap.(m)) then r else m in
  if m <> i then begin
    alarm_swap a i m;
    alarm_down a m
  end

(* Precondition: [ix] is not queued. *)
let alarm_add (a : alarms) ix due =
  a.due.(ix) <- due;
  a.heap.(a.len) <- ix;
  a.pos.(ix) <- a.len;
  a.len <- a.len + 1;
  alarm_up a (a.len - 1)

let alarm_remove (a : alarms) ix =
  let i = a.pos.(ix) in
  if i >= 0 then begin
    a.pos.(ix) <- -1;
    a.len <- a.len - 1;
    if i < a.len then begin
      let last = a.heap.(a.len) in
      a.heap.(i) <- last;
      a.pos.(last) <- i;
      alarm_up a i;
      alarm_down a a.pos.(last)
    end
  end

(* {2 Kernels}

   A location is compiled the first time its automaton enters it, and
   the kernel is kept by this executor only: the automata of a system
   are shared by every campaign domain that runs it, and most of the
   thousands of supervisor locations at N = 1024 are never entered. *)

(* A watch with no atom: for a location nothing sleeps in, and for one
   with no invariant and no eager edge, which a sleeper never leaves by
   itself. *)
let no_watch = Kernel.watch [] (Kernel.rates (Kernel.layout []) [])

let compile_edge layout (e : Edge.t) =
  { edge = e; guard = Kernel.guard layout e.guard; reset = Kernel.reset layout e.reset;
    firing = None }

let build_kernel ~owner ~sleep_ok layout (loc : Location.t) edges =
  let edges = List.map (compile_edge layout) edges in
  let spontaneous = List.filter (fun ce -> Edge.is_spontaneous ce.edge) edges in
  let eager = List.filter (fun ce -> ce.edge.Edge.urgency = Edge.Eager) spontaneous in
  let triggered = Hashtbl.create 8 in
  (* group triggered edges by root, preserving declaration order *)
  List.iter
    (fun ce ->
      match Edge.trigger_root ce.edge with
      | Some root ->
          let prev =
            match Hashtbl.find_opt triggered root with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace triggered root (ce :: prev)
      | None -> ())
    edges;
  let triggered_arrays = Hashtbl.create (Hashtbl.length triggered) in
  Hashtbl.iter
    (fun root rev_edges ->
      Hashtbl.replace triggered_arrays root
        (Array.of_list (List.rev rev_edges)))
    triggered;
  let eager = Array.of_list eager in
  let has_eager = Array.length eager > 0 in
  let flow = Kernel.flow layout loc.Location.flow in
  let invariant = Kernel.guard layout loc.Location.invariant in
  let sleepable, watch =
    match flow with
    | Kernel.Rates _ when sleep_ok && Kernel.is_true invariant && not has_eager ->
        (true, no_watch)
    | Kernel.Rates rates when sleep_ok ->
        ( true,
          Kernel.watch
            (invariant :: Array.to_list (Array.map (fun ce -> ce.guard) eager))
            rates )
    | Kernel.Rates _ | Kernel.Ode _ -> (false, no_watch)
  in
  {
    loc;
    entered = Trace.Enter_location { automaton = owner; location = loc.Location.name };
    invariant;
    flow;
    eager;
    spontaneous = Array.of_list spontaneous;
    triggered = triggered_arrays;
    has_eager;
    sleepable;
    watch;
  }

(* The kernel of location [name] of automaton [owner], built on its
   first request. *)
let find_kernel ~owner ~sleep_ok layout sources kernels name =
  match Hashtbl.find_opt kernels name with
  | Some k -> k
  | None ->
      let loc, rev_edges = Hashtbl.find sources name (* validated *) in
      let k = build_kernel ~owner ~sleep_ok layout loc (List.rev rev_edges) in
      Hashtbl.replace kernels name k;
      k

let kernel_of t st name =
  find_kernel ~owner:st.automaton.Automaton.name ~sleep_ok:t.sleep_ok st.layout st.sources
    st.kernels name

(* {2 Construction} *)

let resolve_ix index name =
  match Hashtbl.find_opt index name with
  | Some ix -> ix
  | None -> Fmt.invalid_arg "executor: unknown automaton %s" name

let resolve_var states index name var =
  let member = resolve_ix index name in
  let slot = Kernel.find states.(member).layout var in
  if slot < 0 then
    Fmt.invalid_arg "executor: automaton %s declares no variable %S" name var;
  { member; slot }

let build_state ~sleep_ok ~dt ix (a : Automaton.t) =
  let sources = Hashtbl.create (2 * List.length a.Automaton.locations) in
  List.iter
    (fun (loc : Location.t) -> Hashtbl.replace sources loc.Location.name (loc, []))
    a.Automaton.locations;
  List.iter
    (fun (e : Edge.t) ->
      let loc, rev = Hashtbl.find sources e.src in
      Hashtbl.replace sources e.src (loc, e :: rev))
    a.Automaton.edges;
  let layout = Kernel.layout a.Automaton.vars in
  let kernels = Hashtbl.create 8 in
  let kernel =
    find_kernel ~owner:a.Automaton.name ~sleep_ok layout sources kernels
      a.Automaton.initial_location
  in
  {
    automaton = a;
    ix;
    layout;
    sources;
    kernels;
    kernel;
    values = Kernel.load layout (Automaton.initial_valuation a);
    synced = 0;
    asleep = false;
    entered_at = 0.0;
    halted = false;
    rate = 1.0;
    span = dt;
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
  let sleep_ok = queue = `Heap in
  let states = Array.mapi (build_state ~sleep_ok ~dt:config.dt) automata in
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
  Array.iter (fun st -> Trace.Recorder.record recorder ~time:0.0 st.kernel.entered) states;
  let queue =
    match queue with
    | `Heap ->
        Heap
          {
            arr = Array.make 64 dummy_pending;
            len = 0;
            live = Hashtbl.create 64;
            compactions = 0;
            peak = 0;
          }
    | `Legacy_list -> Legacy_list { items = [] }
  in
  (* all awake and active: the first stabilization chases each
     automaton, and puts to sleep those that can sleep *)
  let awake = bits_create n and active = bits_create n in
  Array.iter
    (fun st ->
      bit_set active st.ix;
      bit_set awake st.ix)
    states;
  let width =
    Array.fold_left (fun acc st -> max acc (Array.length st.values)) 0 states
  in
  let samples =
    List.map
      (fun (name, var) -> (name, var, resolve_var states index name var))
      config.sample_vars
  in
  {
    system;
    config;
    clock = { now = 0.0 };
    now_box = 0.0;
    states;
    index;
    listeners = listeners_arr;
    queue;
    sleep_ok;
    tentative = Array.make width 0.0;
    probe = Array.make width 0.0;
    next_token = 0;
    events = 0;
    recorder;
    router = reliable_router;
    samples;
    next_sample = 0.0;
    awake;
    alarms = alarms_create n;
    active;
    sweeps = 0;
    cursor = 0;
    awake_visits = 0;
    wakes = 0;
    early_wakes = 0;
    replays = 0;
    bisections = 0;
    chases = 0;
  }

let set_router t router = t.router <- router

(* The clock as a boxed float, for reads that escape into a call: one
   box per instant read, however often it is read. *)
let now t =
  let c = t.clock.now in
  if t.now_box <> c then t.now_box <- c;
  t.now_box

let clock t = t.clock
let time t = now t
let trace t = Trace.Recorder.entries t.recorder
let events_processed t = t.events

let stats t =
  {
    sweeps = t.sweeps;
    awake_visits = t.awake_visits;
    wakes = t.wakes;
    early_wakes = t.early_wakes;
    replays = t.replays;
    bisections = t.bisections;
    chases = t.chases;
    kernels =
      Array.fold_left (fun acc st -> acc + Hashtbl.length st.kernels) 0 t.states;
    compactions = (match t.queue with Heap h -> h.compactions | Legacy_list _ -> 0);
    peak_queue = (match t.queue with Heap h -> h.peak | Legacy_list _ -> 0);
  }

let state_ix t name = resolve_ix t.index name
let state t name = t.states.(state_ix t name)

(* {2 Sleeping constant-rate automata}

   Between discrete changes, a step in a [Rates] location only adds
   [r *. (dt *. rate)] to each listed variable, and nothing else happens
   until an atom of its invariant or of an eager guard answers
   differently. When a chase leaves an automaton at its fixpoint with
   its invariant holding, {!doze} asks {!Kernel.next_flip} for the
   first sweep at which such an atom flips, and drops the automaton
   from the awake set until that sweep; a location with no such atom
   (no invariant, no eager edge: a lazy location) never wakes it. Its
   valuation lags [synced] sweeps behind and is brought up to date by
   {!sync} before anything reads or writes it, replaying the skipped
   additions — the same IEEE operations in the same order — in place.
   A sleeping automaton wakes early on anything that changes what the
   search assumed: a change of location, of rate or of valuation (a
   write to a slot the watch reads, unless the slot does not move and
   every atom on it answers as before). Each wake syncs first, so the
   skipped sweeps all ran under the current location and rate. *)

(* How many sweeps ahead a search looks. A flip beyond it (the N = 1024
   chain's supervisor guard is ~300 k steps out) costs one visit per
   [sleep_horizon] sweeps, and no search runs longer than this. *)
let sleep_horizon = 1024

(* The sweeps [st]'s valuation must include now. Mid-sweep, the current
   sweep counts only for automata the sweep has already passed, exactly
   as the eager sweep would have advanced them. When an exception ends
   a sweep early, the cursor stays where it stopped, so later reads
   still see what the eager sweep left behind. *)
let sync_target t st = if st.ix < t.cursor then t.sweeps + 1 else t.sweeps

(* Bring [st]'s valuation up to date. Only a sleeping automaton lags;
   halted automata accumulate nothing. *)
let sync t st =
  let target = sync_target t st in
  let k = target - st.synced in
  if k > 0 then begin
    st.synced <- target;
    match st.kernel.flow with
    | Kernel.Rates rates when not st.halted ->
        t.replays <- t.replays + 1;
        Kernel.replay rates st.values st.span k
    | Kernel.Rates _ | Kernel.Ode _ -> ()
  end

(* Put [st] back into the sweep. The caller has synced it or replaces
   its valuation. *)
let awaken t st =
  st.asleep <- false;
  alarm_remove t.alarms st.ix;
  bit_set t.awake st.ix

(* Put [st] back into the sweep and have it re-chased, which puts it
   back to sleep if it can. *)
let wake t st =
  sync t st;
  awaken t st;
  bit_set t.active st.ix

(* Wake a sleeping [st] before the sweep it was due at. *)
let rouse t st =
  if st.asleep then begin
    t.early_wakes <- t.early_wakes + 1;
    wake t st
  end

(* Enter [kernel]. The caller has synced [st] or replaces its
   valuation, and marks it active: the entry's chase decides whether it
   sleeps here. *)
let set_location t st kernel =
  st.kernel <- kernel;
  if st.asleep then begin
    t.early_wakes <- t.early_wakes + 1;
    awaken t st
  end

(* After a chase left [st] at its fixpoint: sleep until the first sweep
   at which an atom of the invariant or of an eager guard answers
   differently. Until then each sweep only adds to the valuation: the
   invariant holds after it as it does now, and no eager guard becomes
   true. An invariant that already fails (broken by a write) would
   force a transition at the next sweep, so [st] stays awake. *)
let doze t st =
  let k = st.kernel in
  if k.sleepable && Kernel.holds k.invariant st.values then begin
    let flip = Kernel.next_flip k.watch st.values st.span sleep_horizon in
    if flip > 1 then begin
      st.asleep <- true;
      bit_clear t.awake st.ix;
      if flip < max_int then alarm_add t.alarms st.ix (t.sweeps + flip)
    end
  end

(* Before sweep [t.sweeps + 1]: wake the automata whose flip, or whose
   search horizon, it is. A halted automaton has nothing to do in a
   sweep and sleeps on until {!restart}. *)
let wake_due t =
  let a = t.alarms and due = t.sweeps + 1 in
  while a.len > 0 && a.due.(a.heap.(0)) <= due do
    let st = t.states.(a.heap.(0)) in
    if st.halted then alarm_remove a st.ix
    else begin
      t.wakes <- t.wakes + 1;
      wake t st
    end
  done

let synced_state t name =
  let st = state t name in
  sync t st;
  st

(* {2 Resolved references}

   A caller that polls or writes an automaton every step resolves its
   name, and a variable's slot, once; the by-name functions below are
   the same code behind a lookup. *)

type automaton_ref = int

let automaton_ref = state_ix

(* Reads no valuation, so it does not sync. *)
let location t r = t.states.(r).kernel.loc.Location.name

(* The location record itself: kernels keep the records of the
   automaton's location list, so a location compares physically. *)
type location_ref = { owner : int; loc : Location.t }

let location_ref t r name =
  match Hashtbl.find_opt t.states.(r).sources name with
  | Some (loc, _) -> { owner = r; loc }
  | None ->
      Fmt.invalid_arg "executor: automaton %s has no location %S"
        t.states.(r).automaton.Automaton.name name

let is_at t r = t.states.(r.owner).kernel.loc == r.loc

let var_ref t name var = resolve_var t.states t.index name var

let get t r =
  let st = t.states.(r.member) in
  sync t st;
  st.values.(r.slot)

(** Overwrite one variable, bypassing flows and resets. This is the hook
    for {e wired} physical couplings that the automata formalism cannot
    express without shared variables (which the system model forbids):
    e.g. the oximeter wired to the supervisor writes the sampled SpO2
    into the supervisor's local data state. Use through [pte_sim]'s
    coupling API rather than directly. *)
let set t r value =
  let st = t.states.(r.member) in
  sync t st;
  let k = st.kernel in
  if st.asleep then begin
    (* a write its sleep did not assume wakes it *)
    let wake = Kernel.disturbs k.watch st.values r.slot value in
    st.values.(r.slot) <- value;
    if wake then rouse t st
  end
  else begin
    st.values.(r.slot) <- value;
    (* only an eager edge can fire on a write *)
    if k.has_eager then bit_set t.active st.ix
  end

let location_of t name = location t (automaton_ref t name)
let value_of t name var = get t (var_ref t name var)
let set_value t name var value = set t (var_ref t name var) value

(* Reads no valuation, so it does not sync. *)
let dwell_time t name = t.clock.now -. (state t name).entered_at

let valuation_of t name =
  let st = synced_state t name in
  Kernel.store st.layout st.values

let record t event = Trace.Recorder.record t.recorder ~time:(now t) event
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
  set_location t st (kernel_of t st st.automaton.Automaton.initial_location);
  (* the fresh valuation owes no skipped sweep *)
  let initial = Kernel.load st.layout (Automaton.initial_valuation st.automaton) in
  Array.blit initial 0 st.values 0 (Array.length initial);
  st.synced <- sync_target t st;
  st.entered_at <- now t;
  bit_set t.active st.ix;
  note t (Printf.sprintf "fault: %s restarted" name);
  record t st.kernel.entered

let is_halted t name = (state t name).halted

(** Set an automaton's local clock-drift factor: each global step of
    [dt] advances its continuous state by [rate * dt]. [rate < 1] runs
    its clocks slow (leases expire late), [rate > 1] fast. *)
let set_rate t name rate =
  if rate <= 0.0 || not (Float.is_finite rate) then
    Fmt.invalid_arg "executor: clock rate must be positive, got %g" rate;
  let st = synced_state t name in
  st.rate <- rate;
  st.span <- t.config.dt *. rate;
  (* its sleep ends at a sweep computed for the old span *)
  rouse t st

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
  push t ~due:(Float.max at t.clock.now) ~owner (Timer f)

(** Revoke a scheduled timer or arrival before it fires. Unknown or
    already-fired tokens are ignored (cancellation is idempotent). *)
let cancel t token = queue_cancel t.queue token

let broadcast t ~sent ~sender ~root =
  let sender_name = t.states.(sender).automaton.Automaton.name in
  record t sent;
  match Hashtbl.find_opt t.listeners root with
  | None -> ()
  | Some ixs ->
      Array.iter
        (fun ix ->
          if ix <> sender then begin
            let receiver = t.states.(ix).automaton.Automaton.name in
            match t.router ~time:(now t) ~sender:sender_name ~root ~receiver with
            | Lose | Deliver_many [] ->
                record t (Trace.Message_lost { receiver; root })
            | Deliver delay -> enqueue t ~due:(t.clock.now +. delay) ~receiver:ix ~root
            | Deliver_many delays ->
                List.iter
                  (fun delay ->
                    enqueue t ~due:(t.clock.now +. delay) ~receiver:ix ~root)
                  delays
            | Deferred -> ()
          end)
        ixs

(* [ce]'s trace events, built at its first firing. *)
let firing st ce =
  match ce.firing with
  | Some f -> f
  | None ->
      let e = ce.edge and owner = st.automaton.Automaton.name in
      let taken forced =
        Trace.Transition { automaton = owner; src = e.src; dst = e.dst; label = e.label; forced }
      in
      let sends =
        match e.label with
        | Some (Label.Send root) -> Some (root, Trace.Message_sent { sender = owner; root })
        | Some (Label.Internal _ | Label.Recv _ | Label.Recv_lossy _) | None -> None
      in
      let f = { taken = taken false; taken_forced = taken true; sends } in
      ce.firing <- Some f;
      f

(* Fire [ce] from [st]'s current location. Emits trace entries and
   broadcasts any sent event. The caller maintains the chain budget. *)
let fire t st ce ~forced =
  let f = firing st ce in
  sync t st;
  record t (if forced then f.taken_forced else f.taken);
  Kernel.apply ce.reset st.values;
  set_location t st (kernel_of t st ce.edge.dst);
  st.entered_at <- now t;
  bit_set t.active st.ix;
  t.events <- t.events + 1;
  record t st.kernel.entered;
  match f.sends with
  | Some (root, sent) -> broadcast t ~sent ~sender:st.ix ~root
  | None -> ()

(* The index of the first edge of [edges] whose guard holds, or -1. *)
let rec first_enabled edges values i =
  if i >= Array.length edges then -1
  else if Kernel.holds edges.(i).guard values then i
  else first_enabled edges values (i + 1)

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
      match Hashtbl.find_opt st.kernel.triggered root with
      | Some edges ->
          sync t st;
          let i = first_enabled edges st.values 0 in
          if i >= 0 then Some edges.(i) else None
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

let zeno t name = raise (Zeno { automaton = name; time = t.clock.now })

(* Fire [st]'s enabled eager edges until none is left. [fires] counts
   the discrete changes of this instant against [budget]; returns it
   with this chase's firings added. Neither the eager scan nor the sweep
   syncs: both see only awake automata, whose valuations the sweep keeps
   up to date (a sleeping one is synced as it wakes and is never
   active). *)
let chase t st ~fires ~budget =
  t.chases <- t.chases + 1;
  let fires = ref fires and k = ref 0 and enabled = ref true in
  while !enabled do
    if !k >= t.config.max_chain then zeno t st.automaton.Automaton.name;
    let eager = st.kernel.eager in
    let i = first_enabled eager st.values 0 in
    if i < 0 then enabled := false
    else begin
      incr fires;
      if !fires > budget then zeno t st.automaton.Automaton.name;
      fire t st eager.(i) ~forced:false;
      incr k
    end
  done;
  !fires

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
   original full scan, as the benchmark baseline. The loops are written
   out with local counters so that a call allocates nothing. *)
let stabilize t =
  let n = Array.length t.states in
  let budget = t.config.max_chain * n in
  let fires = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    (* due deliveries and timers, in order *)
    let deadline = t.clock.now +. 1e-12 in
    let draining = ref true in
    while !draining do
      let p = queue_peek t.queue in
      if p == dummy_pending || not (p.due <= deadline) then draining := false
      else begin
        queue_remove_peeked t.queue p;
        incr fires;
        match p.payload with
        | Message { receiver; root } ->
            if !fires > budget then
              zeno t t.states.(receiver).automaton.Automaton.name;
            if deliver t ~receiver ~root then progress := true
        | Timer f ->
            if !fires > budget then zeno t p.owner;
            t.events <- t.events + 1;
            f t;
            progress := true
      end
    done;
    match t.queue with
    | Legacy_list _ ->
        for i = 0 to n - 1 do
          let st = t.states.(i) in
          if not st.halted then begin
            let before = !fires in
            fires := chase t st ~fires:before ~budget;
            if !fires > before then progress := true
          end
        done
    | Heap _ ->
        for w = 0 to Array.length t.active - 1 do
          let base = w * word_bits in
          let rest = ref t.active.(w) and i = ref base in
          while !rest <> 0 do
            if !rest land 1 = 1 then begin
              let st = t.states.(!i) in
              if not st.halted then begin
                let before = !fires in
                fires := chase t st ~fires:before ~budget;
                if !fires > before then progress := true;
                (* fixpoint reached: nothing eager is enabled here until
                   a later delivery, mutation or continuous step re-marks
                   it, and the automaton may sleep until then *)
                bit_clear t.active !i;
                doze t st
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
    let invariant = st.kernel.invariant in
    if Kernel.is_true invariant then
      Kernel.advance st.kernel.flow ~time:start st.values span
    else begin
      let n = Array.length st.values in
      Array.blit st.values 0 t.tentative 0 n;
      Kernel.advance st.kernel.flow ~time:start t.tentative span;
      if Kernel.holds invariant t.tentative then
        Array.blit t.tentative 0 st.values 0 n
      else cross_boundary t st ~start ~span ~depth
    end
  end

(* The step to [t.tentative] breaks the invariant: bisect for the
   largest alpha in [0,1] that keeps it, move there, force a transition
   and advance the rest of the span. *)
and cross_boundary t st ~start ~span ~depth =
  t.bisections <- t.bisections + 1;
  let invariant = st.kernel.invariant in
  let from = st.values and target = t.tentative and probe = t.probe in
  let alpha = ref 0.0 in
  let width = ref 0.5 in
  for _ = 1 to 30 do
    let candidate = !alpha +. !width in
    Kernel.interpolate ~from ~target candidate probe;
    if Kernel.holds invariant probe then alpha := candidate;
    width := !width /. 2.0
  done;
  Kernel.interpolate ~from ~target !alpha probe;
  Array.blit probe 0 st.values 0 (Array.length st.values);
  let boundary_time = start +. (!alpha *. span) in
  let saved_now = t.clock.now in
  t.clock.now <- boundary_time;
  let i = first_enabled st.kernel.spontaneous st.values 0 in
  if i < 0 then
    raise
      (Time_block
         {
           automaton = st.automaton.Automaton.name;
           location = st.kernel.loc.Location.name;
           time = boundary_time;
         });
  fire t st st.kernel.spontaneous.(i) ~forced:true;
  t.clock.now <- saved_now;
  advance_automaton t st ~start:boundary_time
    ~span:(span -. (!alpha *. span))
    ~depth:(depth + 1)

let sample t =
  List.iter
    (fun (automaton, var, r) ->
      record t (Trace.Sample { automaton; var; value = get t r }))
    t.samples

(** Advance the whole system by one step of [config.dt]. *)
let step t =
  stabilize t;
  wake_due t;
  let start = t.clock.now in
  (* sleeping automata are skipped: {!sync} replays this sweep for them.
     A visit passes the clock boxed, so only a step that visits one
     allocates its box. *)
  for w = 0 to Array.length t.awake - 1 do
    let base = w * word_bits in
    let rest = ref t.awake.(w) and i = ref base in
    while !rest <> 0 do
      if !rest land 1 = 1 then begin
        let st = t.states.(!i) in
        t.cursor <- !i;
        if not st.halted then begin
          t.awake_visits <- t.awake_visits + 1;
          advance_automaton t st ~start:(now t) ~span:st.span ~depth:0;
          (* time passed: only a location with eager spontaneous edges
             can have gained an enabled transition from it, and only a
             chase puts an automaton to sleep *)
          if st.kernel.has_eager || st.kernel.sleepable then bit_set t.active !i
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
  t.clock.now <- start +. t.config.dt;
  stabilize t;
  match t.samples with
  | [] -> ()
  | _ :: _ ->
      if t.clock.now >= t.next_sample -. 1e-12 then begin
        sample t;
        (* catch up past [now]: with dt > sample_period the old one-period
           bump fell permanently behind, emitting a stale burst *)
        t.next_sample <- t.next_sample +. t.config.sample_period;
        while t.clock.now >= t.next_sample -. 1e-12 do
          t.next_sample <- t.next_sample +. t.config.sample_period
        done
      end

let run t ~until =
  while t.clock.now < until -. 1e-12 do
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
