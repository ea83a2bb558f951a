module Rng = Pte_util.Rng
module Plan = Pte_faults.Plan
module Severity = Pte_faults.Severity
module Sprt = Pte_rare.Sprt
module Seq = Pte_rare.Seq
module Split = Pte_rare.Split

type config = {
  target : float;
  confidence : float;
  min_effective : float;
  horizon : float;
  screen : Sprt.config option;
  screen_max : int;
  split : Split.config;
  crashes : bool;
  workers : int option;
  seed : int;
}

let default =
  {
    target = 1e-6;
    confidence = 0.99;
    min_effective = 1e6;
    horizon = 1800.0;
    screen = Some { Sprt.p0 = 1e-3; p1 = 0.05; alpha = 0.05; beta = 0.05 };
    screen_max = 200;
    split = Split.default;
    crashes = false;
    workers = None;
    seed = 9300;
  }

let smoke =
  {
    default with
    target = 1e-3;
    min_effective = 1e3;
    horizon = 300.0;
    screen = Some { Sprt.p0 = 1e-2; p1 = 0.3; alpha = 0.05; beta = 0.05 };
    screen_max = 40;
    (* 16 particles x 10 stages at keep 1/8: per-stage Wilson upper
       ~0.52, zero-hit terminal ~0.35 -> joint bound ~9e-4, just under
       the 1e-3 smoke target *)
    split = { Split.default with particles = 16; max_stages = 10 };
  }

let validate c =
  if not (0.0 < c.target && c.target < 1.0) then
    Error (Format.asprintf "certification target %g outside (0, 1)" c.target)
  else if not (Float.is_finite c.min_effective && c.min_effective >= 0.0) then
    Error
      (Format.asprintf "effective-trial floor %g must be finite and >= 0"
         c.min_effective)
  else if not (Float.is_finite c.horizon && c.horizon > 0.0) then
    Error
      (Format.asprintf "trial horizon %g s must be finite and > 0" c.horizon)
  else
    match Option.fold ~none:(Ok ()) ~some:Sprt.validate c.screen with
    | Error _ as e -> e
    | Ok () -> Split.validate { c.split with Split.confidence = c.confidence }

(* ------------------------------------------------------------------ *)
(* Level function                                                      *)
(* ------------------------------------------------------------------ *)

let level_score ~dwell_bound ~plan (r : Trial.result) =
  if r.Trial.failures > 0 then
    (* any violation is past the target; deeper episodes rank higher so
       the terminal stage still discriminates *)
    1.0 +. (0.1 *. float_of_int r.Trial.failures)
  else
    (* closeness to violation, all terms in [0, 1): how much of the
       Lemma-2 dwell bound the longest emission consumed (dominant),
       how deep the worst feedback blackout ran, how often the
       ventilator's lease actually expired *)
    let dwell = Float.min 1.0 (r.Trial.longest_emission /. dwell_bound) in
    let blackout =
      let c = float_of_int r.Trial.max_consec_losses in
      c /. (c +. 8.0)
    in
    let expiries =
      let e = float_of_int r.Trial.vent_lease_expiries in
      e /. (e +. 4.0)
    in
    let base =
      (0.9 *. dwell) +. (0.05 *. blackout) +. (0.04 *. expiries)
    in
    (* lexicographic tiebreak on plan severity: strictly increasing
       under escalation, too small to outrank any continuous progress.
       Asymptotic in the rank rather than hard-capped — a cap saturates
       once plans accumulate ~a dozen escalations and the adaptive
       threshold stops strictly increasing (stagnation at stage 13 of
       the full C1 run), while rank/(rank+50) keeps every escalation
       visible at any depth *)
    let tiebreak =
      let rank = float_of_int (Severity.rank plan) in
      0.005 *. rank /. (rank +. 50.0)
    in
    Float.min 0.9899 base +. tiebreak

(* ------------------------------------------------------------------ *)
(* Designs                                                             *)
(* ------------------------------------------------------------------ *)

type design = { label : string; lease : bool; config : Emulation.config }

let designs c =
  let base lease =
    { Emulation.default with Emulation.lease; horizon = c.horizon }
  in
  [
    { label = "with-lease"; lease = true; config = base true };
    { label = "without-lease"; lease = false; config = base false };
  ]

(* ------------------------------------------------------------------ *)
(* Certification driver                                                *)
(* ------------------------------------------------------------------ *)

type cell = {
  design : design;
  screen : Seq.result option;
  split : Split.result option;
  bound : float;
  effective_trials : float;
  trials_run : int;
  certified : bool;
}

type report = { config : config; cells : cell list }

(* A splitting particle: a replayable (plan, seed) artifact plus its
   cached score. Clones keep the seed and extend the plan, so the
   survivor's trial prefix replays bit-identically. *)
type particle = { plan : Plan.t; trial_seed : int; score : float }

let run_trial (design : design) plan trial_seed =
  Trial.run
    { design.config with Emulation.faults = plan; seed = trial_seed }

let particle_of design plan trial_seed =
  let r = run_trial design plan trial_seed in
  {
    plan;
    trial_seed;
    score = level_score ~dwell_bound:design.config.Emulation.dwell_bound ~plan r;
  }

let split_model c (design : design) =
  let vocab =
    Robustness.vocabulary ~params:design.config.Emulation.params
      ~horizon:c.horizon ()
  in
  {
    Split.init =
      (fun rng -> particle_of design Plan.empty (Rng.int rng 0x3FFFFFFF));
    extend =
      (fun p rng ->
        let plan = Severity.escalate ~crashes:c.crashes ~vocab p.plan rng in
        particle_of design plan p.trial_seed);
    score = (fun p -> p.score);
    target = 1.0;
  }

let certify_design (c : config) design =
  let screen =
    match c.screen with
    | None -> None
    | Some sprt ->
        Some
          (Seq.run ?workers:c.workers ~max_trials:c.screen_max
             ~rule:(Seq.Sprt sprt) ~seed:c.seed (fun rng ->
               (run_trial design Plan.empty (Rng.int rng 0x3FFFFFFF))
                 .Trial.failures > 0))
  in
  let screen_trials =
    match screen with None -> 0 | Some s -> s.Seq.trials
  in
  match screen with
  | Some ({ Seq.verdict = Seq.Refuted; _ } as s) ->
      {
        design;
        screen;
        split = None;
        bound = s.Seq.upper_bound;
        effective_trials = 0.0;
        trials_run = screen_trials;
        certified = false;
      }
  | _ ->
      let split_cfg =
        { c.split with Split.confidence = c.confidence; workers = c.workers }
      in
      let sr = Split.run ~config:split_cfg ~seed:(c.seed + 1) (split_model c design) in
      {
        design;
        screen;
        split = Some sr;
        bound = sr.Split.upper_bound;
        effective_trials = sr.Split.effective_trials;
        trials_run = screen_trials + sr.Split.trials_run;
        certified =
          (not sr.Split.stagnated)
          && sr.Split.upper_bound <= c.target
          && sr.Split.effective_trials >= c.min_effective;
      }

let run ?(config = default) () =
  (match validate config with Ok () -> () | Error e -> invalid_arg e);
  { config; cells = List.map (certify_design config) (designs config) }

let exit_code r =
  let ok (cell : cell) =
    if cell.design.lease then cell.certified else not cell.certified
  in
  if List.for_all ok r.cells then 0 else 1

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_cell ppf (cell : cell) =
  Fmt.pf ppf "@[<v2>%s:@," cell.design.label;
  (match cell.screen with
  | None -> Fmt.pf ppf "screen: skipped@,"
  | Some s -> Fmt.pf ppf "screen: %a@," Seq.pp_result s);
  (match cell.split with
  | None -> Fmt.pf ppf "splitting: not reached@,"
  | Some s -> Fmt.pf ppf "splitting: %a@," Split.pp_result s);
  Fmt.pf ppf "bound %.3g, %g effective trials, %d trials run -> %s@]"
    cell.bound cell.effective_trials cell.trials_run
    (if cell.certified then "CERTIFIED" else "NOT CERTIFIED")

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>certification target %.3g at confidence %g (>= %g effective \
     trials)@,%a@,verdict: %s@]"
    r.config.target r.config.confidence r.config.min_effective
    (Fmt.list ~sep:Fmt.cut pp_cell)
    r.cells
    (if exit_code r = 0 then
       "PASS (lease certified; baseline refuted)"
     else "FAIL")

let report_to_json r =
  let module J = Pte_util.Json in
  let stage_json (st : Split.stage) =
    J.Obj
      [
        ("index", J.Num (float_of_int st.Split.index));
        ("threshold", J.Num st.Split.threshold);
        ("survivors", J.Num (float_of_int st.Split.survivors));
        ("attempts", J.Num (float_of_int st.Split.attempts));
        ("p_hat", J.Num st.Split.p_hat);
        ("p_upper", J.Num st.Split.p_upper);
      ]
  in
  let cell_json (cell : cell) =
    let screen =
      match cell.screen with
      | None -> J.Null
      | Some s ->
          J.Obj
            [
              ( "verdict",
                J.Str (Format.asprintf "%a" Seq.pp_verdict s.Seq.verdict) );
              ("trials", J.Num (float_of_int s.Seq.trials));
              ("hits", J.Num (float_of_int s.Seq.hits));
              ("upper_bound", J.Num s.Seq.upper_bound);
            ]
    in
    let split =
      match cell.split with
      | None -> J.Null
      | Some s ->
          J.Obj
            [
              ("stages", J.Arr (List.map stage_json s.Split.stages));
              ("hits", J.Num (float_of_int s.Split.hits));
              ("estimate", J.Num s.Split.estimate);
              ("upper_bound", J.Num s.Split.upper_bound);
              ("effective_trials", J.Num s.Split.effective_trials);
              ("trials_run", J.Num (float_of_int s.Split.trials_run));
              ("stagnated", J.Bool s.Split.stagnated);
            ]
    in
    J.Obj
      [
        ("label", J.Str cell.design.label);
        ("lease", J.Bool cell.design.lease);
        ("screen", screen);
        ("split", split);
        ("bound", J.Num cell.bound);
        ("effective_trials", J.Num cell.effective_trials);
        ("trials_run", J.Num (float_of_int cell.trials_run));
        ("certified", J.Bool cell.certified);
      ]
  in
  J.Obj
    [
      ("target", J.Num r.config.target);
      ("confidence", J.Num r.config.confidence);
      ("min_effective", J.Num r.config.min_effective);
      ("horizon", J.Num r.config.horizon);
      ("seed", J.Num (float_of_int r.config.seed));
      ("cells", J.Arr (List.map cell_json r.cells));
      ("pass", J.Bool (exit_code r = 0));
    ]
