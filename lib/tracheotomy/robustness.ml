(** Fault-injection campaigns over the laser-tracheotomy system.

    Two drivers on top of {!Pte_faults}:

    - {!coverage}: enumerate every protocol message root × occurrence of
      the N=2 system, auto-generate a one-shot drop plan per target, and
      run each under both lease modes. Message drops are exactly the
      paper's fault model, so Theorem 1 predicts the with-lease column
      stays at 0 violations while the without-lease column degrades —
      the coverage matrix is an executable restatement of Table I, one
      targeted loss at a time.

    - {!fuzz}: random plans (drops, corruption, delays, duplicates,
      crashes, clock drift) against the {e with-lease} system. Crash and
      drift sit outside the paper's message-loss fault model, so
      violations here are expected and interesting: each one is shrunk
      to a minimal plan and emitted as a replayable (plan, seed)
      artifact. *)

module Plan = Pte_faults.Plan

(* ------------------------------------------------------------------ *)
(* Protocol vocabulary of the N=2 case-study system                    *)
(* ------------------------------------------------------------------ *)

let messages ?(params = Pte_core.Params.case_study) () =
  let vent = params.Pte_core.Params.entities.(0).Pte_core.Params.name in
  let laser = (Pte_core.Params.initializer_ params).Pte_core.Params.name in
  let up entity root = { Pte_faults.Fuzz.root; site = { Plan.entity; direction = Plan.Up } } in
  let down entity root =
    { Pte_faults.Fuzz.root; site = { Plan.entity; direction = Plan.Down } }
  in
  [
    (* initializer uplink *)
    up laser (Pte_core.Events.request ~initializer_:laser);
    up laser (Pte_core.Events.cancel_up ~initializer_:laser);
    up laser (Pte_core.Events.exit_up ~initializer_:laser);
    (* participant uplink *)
    up vent (Pte_core.Events.lease_approve ~participant:vent);
    up vent (Pte_core.Events.lease_deny ~participant:vent);
    up vent (Pte_core.Events.exited_up ~participant:vent);
    (* downlinks *)
    down vent (Pte_core.Events.lease_req ~participant:vent);
    down vent (Pte_core.Events.cancel_down ~entity:vent);
    down vent (Pte_core.Events.abort_down ~entity:vent);
    down laser (Pte_core.Events.approve ~initializer_:laser);
    down laser (Pte_core.Events.cancel_down ~entity:laser);
    down laser (Pte_core.Events.abort_down ~entity:laser);
  ]

let vocabulary ?params ~horizon () =
  let params' = Option.value params ~default:Pte_core.Params.case_study in
  {
    Pte_faults.Fuzz.messages = messages ?params ();
    entities =
      [
        params'.Pte_core.Params.entities.(0).Pte_core.Params.name;
        (Pte_core.Params.initializer_ params').Pte_core.Params.name;
      ];
    horizon;
  }

(* ------------------------------------------------------------------ *)
(* Coverage campaign                                                   *)
(* ------------------------------------------------------------------ *)

type target = {
  message : Pte_faults.Fuzz.message;
  occurrence : int;
  plan : Plan.t;  (** the auto-generated one-shot drop plan *)
}

let targets ?params ?(occurrences = 2) () =
  List.concat_map
    (fun (m : Pte_faults.Fuzz.message) ->
      List.init occurrences (fun k ->
          {
            message = m;
            occurrence = k;
            plan =
              { Plan.empty with
                Plan.packet_faults =
                  [
                    Plan.drop_nth ~entity:m.site.Plan.entity
                      ~direction:m.site.Plan.direction ~root:m.root k;
                  ];
                node_faults = [];
              };
          }))
    (messages ?params ())

type coverage_row = {
  target : target;
  fired : bool;  (** did the targeted frame exist (drop actually fired)? *)
  with_lease : Trial.result;
  without_lease : Trial.result;
}

type coverage = {
  rows : coverage_row list;
  roots_total : int;
  roots_targeted : int;  (** always all of them: plans cover every root *)
  roots_exercised : int;  (** roots whose drop fired in >= 1 trial *)
  with_lease_violations : int;  (** total episodes, with lease — want 0 *)
  without_lease_violations : int;  (** total episodes, no lease — want > 0 *)
}

(** Trial configuration for one coverage cell. The stochastic channel is
    perfect and MAC retries are off so the scripted drop is the {e only}
    loss in the trial — pure fault isolation. *)
let coverage_config ~base ~lease ~seed (t : target) =
  {
    base with
    Emulation.lease;
    seed;
    loss = Pte_net.Loss.Perfect;
    mac_retries = 0;
    faults = t.plan;
  }

let coverage ?workers ?checkpoint ?(resume = false) ?params ?(occurrences = 2)
    ?(horizon = 600.0) ?(seed = 7100)
    ?(transport : Pte_net.Transport.mode = `Bare) () =
  let base = { Emulation.default with horizon; transport } in
  let targets = targets ?params ~occurrences () in
  (* cell layout: for target i, job 2i = with lease, 2i+1 = without *)
  let cells =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i t ->
              [
                coverage_config ~base ~lease:true ~seed:(seed + (2 * i)) t;
                coverage_config ~base ~lease:false ~seed:(seed + (2 * i) + 1) t;
              ])
            targets))
  in
  let _campaign, full =
    Trial.run_cells ?workers ?checkpoint ~resume ~reps:1 ~seed cells
  in
  let result j =
    match full.(j) with
    | Some r -> r
    | None -> invalid_arg "Robustness.coverage: missing trial result"
  in
  let rows =
    List.mapi
      (fun i t ->
        let with_lease = result (2 * i) in
        let without_lease = result ((2 * i) + 1) in
        { target = t; fired = with_lease.Trial.faults_fired > 0; with_lease; without_lease })
      targets
  in
  let roots = messages ?params () in
  let exercised (m : Pte_faults.Fuzz.message) =
    List.exists
      (fun row -> row.target.message.Pte_faults.Fuzz.root = m.root && row.fired)
      rows
  in
  {
    rows;
    roots_total = List.length roots;
    roots_targeted = List.length roots;
    roots_exercised = List.length (List.filter exercised roots);
    with_lease_violations =
      List.fold_left (fun acc r -> acc + r.with_lease.Trial.failures) 0 rows;
    without_lease_violations =
      List.fold_left (fun acc r -> acc + r.without_lease.Trial.failures) 0 rows;
  }

let pp_coverage ppf c =
  let dir = function Plan.Up -> "up" | Plan.Down -> "down" in
  Fmt.pf ppf "@[<v>%-38s %-16s %3s  %5s  %11s %11s@,"
    "root" "link" "occ" "fired" "viol(lease)" "viol(none)";
  List.iter
    (fun r ->
      let m = r.target.message in
      Fmt.pf ppf "%-38s %-16s %3d  %5s  %11d %11d@," m.Pte_faults.Fuzz.root
        (m.site.Plan.entity ^ "/" ^ dir m.site.Plan.direction)
        r.target.occurrence
        (if r.fired then "yes" else "no")
        r.with_lease.Trial.failures r.without_lease.Trial.failures)
    c.rows;
  Fmt.pf ppf
    "roots targeted: %d/%d (100%%)  exercised: %d/%d@,\
     with-lease violations: %d (expect 0)@,\
     without-lease violations: %d (expect > 0)@]"
    c.roots_targeted c.roots_total c.roots_exercised c.roots_total
    c.with_lease_violations c.without_lease_violations

(* ------------------------------------------------------------------ *)
(* Fuzz + shrink                                                       *)
(* ------------------------------------------------------------------ *)

type artifact = {
  plan : Plan.t;
  trial_seed : int;
  horizon : float;
  lease : bool;
  failures : int;  (** violation episodes the minimal plan reproduces *)
}

let artifact_config a =
  {
    Emulation.default with
    lease = a.lease;
    horizon = a.horizon;
    seed = a.trial_seed;
    loss = Pte_net.Loss.Perfect;
    mac_retries = 0;
    faults = a.plan;
  }

let replay a = Trial.run (artifact_config a)

let artifact_to_json a =
  let module J = Pte_util.Json in
  J.Obj
    [
      ("type", J.Str "pte-fault-artifact");
      ("plan", Plan.to_json a.plan);
      ("trial_seed", J.Num (float_of_int a.trial_seed));
      ("horizon", J.Num a.horizon);
      ("lease", J.Bool a.lease);
      ("failures", J.Num (float_of_int a.failures));
    ]

let artifact_of_json json =
  let module J = Pte_util.Json in
  let ( let* ) = Result.bind in
  match json with
  | J.Obj members ->
      let field name =
        match List.assoc_opt name members with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "artifact: missing %S" name)
      in
      let num name =
        let* v = field name in
        match v with
        | J.Num n -> Ok n
        | _ -> Error (Printf.sprintf "artifact: %S must be a number" name)
      in
      let* plan_json = field "plan" in
      let* plan = Plan.of_json plan_json in
      let* trial_seed = num "trial_seed" in
      let* horizon = num "horizon" in
      let* lease =
        let* v = field "lease" in
        match v with
        | J.Bool b -> Ok b
        | _ -> Error "artifact: \"lease\" must be a boolean"
      in
      let failures = match num "failures" with Ok n -> int_of_float n | Error _ -> 0 in
      Ok { plan; trial_seed = int_of_float trial_seed; horizon; lease; failures }
  | _ -> Error "artifact: expected a JSON object"

let artifact_to_string a = Pte_util.Json.to_string (artifact_to_json a)

let artifact_of_string s =
  Result.bind (Pte_util.Json.of_string s) artifact_of_json

let save_artifact a path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (artifact_to_string a ^ "\n"))

let load_artifact path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      artifact_of_string (really_input_string ic n))

type fuzz_report = {
  trials : int;
  violating : int;  (** random plans that produced >= 1 violation *)
  artifacts : artifact list;  (** one shrunk artifact per violating plan *)
  oracle_calls : int;  (** trials replayed by the shrinker *)
}

let fuzz ?params ?(horizon = 300.0) ?(lease = true) ?(max_oracle_calls = 60)
    ?(log = ignore) ~seed ~trials () =
  let vocab = vocabulary ?params ~horizon () in
  let rng = Pte_util.Rng.create seed in
  let failures_of plan trial_seed =
    (Trial.run
       (artifact_config
          { plan; trial_seed; horizon; lease; failures = 0 }))
      .Trial.failures
  in
  let artifacts = ref [] in
  let violating = ref 0 in
  let oracle_calls = ref 0 in
  for i = 0 to trials - 1 do
    let plan_rng = Pte_util.Rng.split rng in
    let plan = Pte_faults.Fuzz.random_plan plan_rng vocab in
    let trial_seed = seed + (1000 * (i + 1)) in
    let failures = failures_of plan trial_seed in
    log (Printf.sprintf "fuzz %d/%d: %d violation(s)" (i + 1) trials failures);
    if failures > 0 then begin
      incr violating;
      let minimal, calls =
        Pte_faults.Shrink.shrink ~max_oracle_calls
          ~oracle:(fun candidate -> failures_of candidate trial_seed > 0)
          plan
      in
      oracle_calls := !oracle_calls + calls;
      let failures = failures_of minimal trial_seed in
      artifacts :=
        { plan = minimal; trial_seed; horizon; lease; failures } :: !artifacts
    end
  done;
  {
    trials;
    violating = !violating;
    artifacts = List.rev !artifacts;
    oracle_calls = !oracle_calls;
  }

let pp_artifact ppf a =
  Fmt.pf ppf "@[<v>%a@,seed %d, horizon %gs, lease %b -> %d violation(s)@]"
    Plan.pp a.plan a.trial_seed a.horizon a.lease a.failures

let pp_fuzz_report ppf r =
  Fmt.pf ppf "@[<v>fuzz: %d trials, %d violating, %d shrink replays@,%a@]"
    r.trials r.violating r.oracle_calls
    (Fmt.list ~sep:Fmt.cut pp_artifact)
    r.artifacts
