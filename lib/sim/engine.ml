(** Simulation engine: a hybrid-system executor coupled to the wireless
    star network and to periodic environment processes.

    This is the emulation testbed of Fig. 7(b) in software. The executor
    advances the automata; the {!Pte_net.Star} router decides each
    event's fate on the air; {e processes} model everything outside the
    automata formalism — the surgeon's random timers, the oximeter wired
    to the supervisor, the patient's coupling to the ventilator.

    The step loop runs the processes from an array, with their due
    times in an unboxed [float array], and reads the executor's unboxed
    clock, so polling them allocates nothing; a process that reads or
    writes an automaton every step holds {!Pte_hybrid.Executor} refs
    resolved when it registers, and reads the instant from {!clock}
    if it needs it. *)

open Pte_hybrid

type process = {
  name : string;
  gap : float;  (* the period, at least 1 ns *)
  action : t -> unit;
}

and t = {
  exec : Executor.t;
  clock : Executor.clock;
  net : Pte_net.Star.t option;
  transport : Pte_net.Transport.t option;
  rng : Pte_util.Rng.t;
  mutable processes : process array;  (* in registration order *)
  mutable due : float array;  (* [due.(i)]: when process [i] next runs *)
}

let create ?(config = Executor.default_config) ?net
    ?(transport : Pte_net.Transport.mode = `Bare) ?trace_sink ~seed system =
  let exec = Executor.create ~config ?trace_sink system in
  let rng = Pte_util.Rng.create seed in
  let transport =
    match net with
    | None -> None
    | Some star ->
        (* `Bare never draws from its stream, so handing it the engine
           rng leaves every legacy stream byte-identical; `Reliable and
           `Scheduled get an independent split (`Reliable keys its
           per-exchange jitter streams off it; `Scheduled draws nothing
           today, but owning a stream keeps the split layout stable if
           it ever does) *)
        let trng =
          match transport with
          | `Bare -> rng
          | `Reliable _ | `Scheduled _ | `Adaptive _ ->
              Pte_util.Rng.split rng
        in
        let t = Pte_net.Transport.create ~mode:transport ~rng:trng ~exec star in
        Executor.set_router exec (Pte_net.Transport.router t);
        Some t
  in
  { exec; clock = Executor.clock exec; net; transport; rng; processes = [||]; due = [||] }

let executor t = t.exec
let clock t = t.clock
let network t = t.net
let transport t = t.transport
let time t = Executor.time t.exec
let rng t = t.rng

(** Derive an independent random stream for one model component. *)
let fork_rng t = Pte_util.Rng.split t.rng

(** Register a periodic process. [period] defaults to the executor step,
    i.e. the process observes every simulation instant. *)
let add_process t ?(period = 0.0) ~name action =
  let p = { name; gap = Float.max period 1e-9; action } in
  t.processes <- Array.append t.processes [| p |];
  t.due <- Array.append t.due [| 0.0 |]

let inject t ~receiver ~root =
  ignore (Executor.inject t.exec ~receiver ~root)

let location_of t name = Executor.location_of t.exec name
let value_of t name var = Executor.value_of t.exec name var
let set_value t name var value = Executor.set_value t.exec name var value
let note t text = Executor.note t.exec text

(* Node-fault hooks (crash / reboot / clock drift), for [pte_faults]. *)
let halt t name = Executor.halt t.exec name
let restart t name = Executor.restart t.exec name
let is_halted t name = Executor.is_halted t.exec name
let set_rate t name rate = Executor.set_rate t.exec name rate

(* A process registered by an action first runs at the next poll. *)
let run_processes t =
  let now = t.clock.Executor.now in
  for i = 0 to Array.length t.processes - 1 do
    if now >= t.due.(i) -. 1e-12 then begin
      let p = t.processes.(i) in
      p.action t;
      t.due.(i) <- now +. p.gap
    end
  done

(** Run to [until], interleaving processes with executor steps. *)
let run t ~until =
  while t.clock.Executor.now < until -. 1e-12 do
    run_processes t;
    Executor.step t.exec
  done;
  run_processes t

let trace t = Executor.trace t.exec
