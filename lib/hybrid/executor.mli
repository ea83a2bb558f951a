(** Fixed-step executor for hybrid systems.

    Time advances in steps of [config.dt] (explicit Euler); invariant
    boundaries are located by bisection and force an enabled spontaneous
    transition ({e forced} in the trace); {!Edge.Eager} edges fire as
    soon as their guard holds; event transport is delegated to a
    pluggable {!type-router} (reliable-instant by default; [pte_sim]
    plugs in the lossy wireless star). A bounded number of discrete
    changes may occur per instant.

    The hot path is built for systems of 1000+ automata: a binary
    min-heap event queue ordered by (due, insertion seq) with
    lazy-delete tombstones that are compacted away once they outnumber
    the live entries, flat int-indexed automaton states with
    per-location dispatch indices, an activity-set stabilization that
    re-chases only automata that changed since the last fixpoint, and a
    continuous sweep that skips automata sitting in constant-rate
    locations with no invariant and no eager edge. A skipped automaton's
    valuation is brought up to date, by replaying the same float
    additions in the same order, before any read or write of it. All of
    it is bit-identical to the reference engine selected by
    [~queue:`Legacy_list]. *)

exception
  Time_block of { automaton : string; location : string; time : float }
(** An invariant boundary was reached with no enabled egress — the paper
    assumes time-block-free automata, so this surfaces modeling errors. *)

exception Zeno of { automaton : string; time : float }
(** More than [config.max_chain] discrete changes in one instant. *)

type route_decision =
  | Deliver of float  (** deliver after the given delay (seconds) *)
  | Deliver_many of float list
      (** deliver one copy per delay — duplicated frames (fault
          injection); an empty list is equivalent to [Lose] *)
  | Lose
  | Deferred
      (** the router has taken ownership of the send: it schedules the
          arrival (or records the loss) itself through {!schedule} /
          {!deliver_now} / {!lose_now}. Used by the event-driven ARQ
          transport, whose exchange outcome is not known at send time. *)

type router =
  time:float -> sender:string -> root:string -> receiver:string ->
  route_decision

val reliable_router : router

type config = {
  dt : float;
  max_chain : int;
  sample_vars : (string * Var.t) list;
      (** [(automaton, var)] recorded every [sample_period]. *)
  sample_period : float;
}

val default_config : config
(** 1 ms step, chain bound 64, no sampling. *)

type t

type queue_kind = [ `Heap | `Legacy_list ]
(** Engine selection. [`Heap] (the default) is the production engine:
    the O(log n)-push min-heap with O(1)-amortised cancel and tombstone
    compaction, activity-set stabilization and lazy constant-rate
    clocks. [`Legacy_list] is the reference: an O(n) sorted
    singly-linked list, full-scan stabilization and a full continuous
    sweep of every automaton every step. It is the measured baseline of
    the S1 throughput benchmark and the oracle of the differential
    tests. Both produce identical traces and bit-identical valuations. *)

val create : ?config:config -> ?queue:queue_kind ->
  ?trace_sink:(Trace.entry -> unit) -> System.t -> t
(** Validates the system. [trace_sink] streams entries as they happen. *)

val set_router : t -> router -> unit
val time : t -> float
val trace : t -> Trace.t

val events_processed : t -> int
(** Monotone count of discrete work done so far: message deliveries,
    timer firings and transitions. Cheap (no trace traversal) — the
    throughput benchmarks' events/sec numerator. *)

(** {2 Revocable scheduling}

    Timers share the delivery queue (one timeline, ordered by (due,
    insertion)), so a scheduled arrival or retransmission timer can be
    revoked before it fires — the primitive behind the event-driven ARQ
    transport. *)

type token
(** Names one scheduled (not yet fired) queue entry. *)

val schedule : t -> ?owner:string -> at:float -> (t -> unit) -> token
(** Run the callback at absolute time [at] (clamped to now if in the
    past), interleaved with message deliveries in queue order. The
    callback may deliver events ({!deliver_now}), schedule or {!cancel}
    further timers, and mutate automata; any discrete cascade it starts
    is finished within the same instant.

    [owner] names the automaton on whose behalf the timer was armed
    (e.g. the sender of a retransmission): Zeno diagnostics raised
    while firing the callback blame it instead of the anonymous
    ["<timer>"], so shrink artifacts name the real culprit.

    Raises [Invalid_argument] if [at] is NaN or infinite — such a timer
    could never fire and would silently wedge its exchange. *)

val cancel : t -> token -> unit
(** Revoke a scheduled entry before it fires. Idempotent: unknown or
    already-fired tokens are ignored. *)

val deliver_now : t -> receiver:string -> root:string -> bool
(** Hand [root] to [receiver] at the current instant — the delivery half
    of a [Deferred] routing decision. Returns [true] if a triggered edge
    consumed it. *)

val lose_now : t -> receiver:string -> root:string -> unit
(** Record the loss of a send owned by a [Deferred] router, at the
    instant the transport gave up on it. *)

val location_of : t -> string -> string
val valuation_of : t -> string -> Valuation.t
val value_of : t -> string -> Var.t -> float
val dwell_time : t -> string -> float
(** Continuous dwell in the current location. *)

val set_value : t -> string -> Var.t -> float -> unit
(** Overwrite one variable, bypassing flows/resets — the hook for wired
    physical couplings (e.g. the oximeter writing the supervisor's
    ApprovalCondition). Use via [pte_sim]'s coupling API. *)

val note : t -> string -> unit
(** Append a free-form annotation to the trace. *)

(** {2 Node-fault hooks}

    Used by the fault-injection layer ([pte_faults]) to realize
    fail-stop crashes and clock drift — faults {e outside} the paper's
    message-loss-only model, injected to probe how the lease pattern
    degrades when Theorem 1's assumptions are broken. *)

val halt : t -> string -> unit
(** Crash an automaton: flows freeze, edges stop firing, incoming events
    are recorded as unconsumed and dropped, until {!restart}. *)

val restart : t -> string -> unit
(** Reboot an automaton into its initial location and valuation (records
    the location entry, so monitors see the reset). *)

val is_halted : t -> string -> bool

val set_rate : t -> string -> float -> unit
(** Local clock-drift factor: each global [dt] advances this automaton's
    continuous state by [rate * dt]. [rate < 1] = slow clocks (leases
    expire late, eating the c1-c7 margins); [rate > 1] = fast. Raises
    [Invalid_argument] on non-positive or non-finite rates. *)

val rate : t -> string -> float

val step : t -> unit
(** Advance by one [config.dt] step. *)

val run : t -> until:float -> unit

val inject : t -> receiver:string -> root:string -> bool
(** Deliver an environment stimulus now (the paper's emulated surgeon).
    Returns [true] if a triggered edge consumed it. *)
