(** Scenario combinators: the environment behaviours outside the automata.

    The paper's emulation drives the system with three kinds of external
    events (Section V): the surgeon's request timer Ton, the surgeon's
    cancel timer Toff (both exponential), and the supervisor's abort when
    the ApprovalCondition fails. These combinators reproduce that setup
    and generalize it for the other examples.

    Each combinator resolves the automata, locations and variables it
    names into {!Pte_hybrid.Executor} refs when it registers its
    process, so an unknown name fails at registration, and the process,
    which runs every step or every period, compares no name; it reads
    the engine's unboxed clock, so it allocates nothing while it only
    watches. *)

open Pte_hybrid

(** Arm an exponential timer whenever [automaton] dwells in [armed_in];
    when it fires and the automaton is still there, inject [root]
    (locally, losslessly — the stimulus is the environment's "human
    will", not a network message). Re-arms on every fresh entry, exactly
    like the paper's Ton/Toff timers which are created on entry and
    destroyed on exit.

    [immediately] fires the very first timer at time ~0 (used by
    single-episode scenario tests). *)
let exponential_stimulus engine ~mean ?(immediately = false) ~automaton
    ~armed_in ~root () =
  let exec = Engine.executor engine in
  let armed = Executor.(location_ref exec (automaton_ref exec automaton) armed_in) in
  let clock = Engine.clock engine in
  let rng = Engine.fork_rng engine in
  let deadline = ref None in
  let first = ref immediately in
  Engine.add_process engine ~name:(root ^ "-timer") (fun engine ->
      if Executor.is_at exec armed then
        match !deadline with
        | None ->
            let delay =
              if !first then 0.0
              else Pte_util.Rng.exponential rng ~mean
            in
            first := false;
            deadline := Some (clock.now +. delay)
        | Some due when clock.now >= due ->
            deadline := None;
            Engine.inject engine ~receiver:automaton ~root
        | Some _ -> ()
      else deadline := None)

(** Inject [root] exactly once, the first time [automaton] dwells in
    [armed_in] at or after [at]. *)
let one_shot engine ~at ~automaton ~armed_in ~root =
  let exec = Engine.executor engine in
  let armed = Executor.(location_ref exec (automaton_ref exec automaton) armed_in) in
  let clock = Engine.clock engine in
  let done_ = ref false in
  Engine.add_process engine ~name:(root ^ "-oneshot") (fun engine ->
      if (not !done_) && clock.now >= at then
        if Executor.is_at exec armed then begin
          done_ := true;
          Engine.inject engine ~receiver:automaton ~root
        end)

(** Periodically copy a (possibly transformed) reading from one
    automaton's data state into another's — the wired-sensor coupling
    (e.g. oximeter → supervisor). [transform] sees the raw value and the
    component RNG (for sensor noise). *)
let wired_sensor engine ~period ~from:(src_automaton, src_var)
    ~to_:(dst_automaton, dst_var) ?(transform = fun _rng v -> v) () =
  let exec = Engine.executor engine in
  let src = Executor.var_ref exec src_automaton src_var in
  let dst = Executor.var_ref exec dst_automaton dst_var in
  let rng = Engine.fork_rng engine in
  Engine.add_process engine ~period ~name:(src_var ^ "-sensor")
    (fun _engine ->
      Executor.set exec dst (transform rng (Executor.get exec src)))

(** Every step, write [f engine] into [automaton.var] — for physical
    couplings such as "the patient is being ventilated iff the
    ventilator dwells in a ventilating location". *)
let coupling engine ~automaton ~var f =
  let exec = Engine.executor engine in
  let target = Executor.var_ref exec automaton var in
  Engine.add_process engine ~name:(var ^ "-coupling") (fun engine ->
      Executor.set exec target (f engine))
