(* pte_lint: every shipped system lints clean; every diagnostic code has
   a minimal triggering and non-triggering fixture; the linter is total
   and deterministic on random automata. *)

open Pte_hybrid
module Lint = Pte_lint.Lint
module Diagnostic = Pte_lint.Diagnostic

(* ---- fixture helpers ---- *)

let loc ?kind ?invariant ?flow name = Location.make ?kind ?invariant ?flow name

let edge ?guard ?reset ?label ?urgency src dst =
  Edge.make ?guard ?reset ?label ?urgency ~src ~dst ()

let auto ?(vars = []) ?(initial_values = []) ~locations ~edges ~init name =
  Automaton.make ~name ~vars ~locations ~edges ~initial_location:init
    ~initial_values ()

let has code diags =
  List.exists (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code code) diags

let check_fixture ~code ~positive ~negative () =
  Alcotest.(check bool)
    (code ^ " triggers on its positive fixture")
    true (has code positive);
  Alcotest.(check bool)
    (code ^ " silent on its negative fixture")
    false (has code negative)

(* ---- per-code fixtures ---- *)

let star = Some { Pte_lint.Sync.base = "S"; remotes = [ "A" ] }

let lint ?(config = Lint.default_config) automata =
  Lint.lint_system ~config (System.make ~name:"fixture" automata)

(* L001: orphan send / declared-observable send *)
let l001 =
  let sender roots_observable =
    let a =
      auto ~locations:[ loc "I" ]
        ~edges:[ edge ~label:(Label.Send "ping") "I" "I" ]
        ~init:"I" "A"
    in
    lint
      ~config:{ Lint.default_config with observable_roots = roots_observable }
      [ a ]
  in
  check_fixture ~code:"L001" ~positive:(sender []) ~negative:(sender [ "ping" ])

(* L002: orphan receive / stim_-prefixed environment stimulus *)
let l002 =
  let receiver root =
    lint
      [
        auto ~locations:[ loc "I" ]
          ~edges:[ edge ~label:(Label.Recv root) "I" "I" ]
          ~init:"I" "A";
      ]
  in
  check_fixture ~code:"L002" ~positive:(receiver "pong")
    ~negative:(receiver "stim_pong")

(* L003: reliable receive over the lossy star / lossy receive is fine *)
let l003_system recv_label =
  let s =
    auto ~locations:[ loc "I" ]
      ~edges:[ edge ~label:(Label.Send "grant") "I" "I" ]
      ~init:"I" "S"
  in
  let a =
    auto ~locations:[ loc "J" ]
      ~edges:[ edge ~label:(recv_label "grant") "J" "J" ]
      ~init:"J" "A"
  in
  lint ~config:{ Lint.default_config with topology = star } [ s; a ]

let l003 =
  check_fixture ~code:"L003"
    ~positive:(l003_system (fun r -> Label.Recv r))
    ~negative:(l003_system (fun r -> Label.Recv_lossy r))

(* L004: lossy receive though every sender is wired / reliable is right *)
let l004_system recv_label =
  let w =
    auto ~locations:[ loc "I" ]
      ~edges:[ edge ~label:(Label.Send "data") "I" "I" ]
      ~init:"I" "W"
  in
  let a =
    auto ~locations:[ loc "J" ]
      ~edges:[ edge ~label:(recv_label "data") "J" "J" ]
      ~init:"J" "A"
  in
  lint ~config:{ Lint.default_config with topology = star } [ w; a ]

let l004 =
  check_fixture ~code:"L004"
    ~positive:(l004_system (fun r -> Label.Recv_lossy r))
    ~negative:(l004_system (fun r -> Label.Recv r))

(* L005: only a remote-to-remote path / base also sends *)
let l005_system ~base_sends =
  let star = Some { Pte_lint.Sync.base = "S"; remotes = [ "A"; "B" ] } in
  let sender name =
    auto ~locations:[ loc "I" ]
      ~edges:[ edge ~label:(Label.Send "x2x") "I" "I" ]
      ~init:"I" name
  in
  let b =
    auto ~locations:[ loc "J" ]
      ~edges:[ edge ~label:(Label.Recv_lossy "x2x") "J" "J" ]
      ~init:"J" "B"
  in
  lint
    ~config:{ Lint.default_config with topology = star }
    (if base_sends then [ sender "A"; sender "S"; b ] else [ sender "A"; b ])

let l005 =
  check_fixture ~code:"L005" ~positive:(l005_system ~base_sends:false)
    ~negative:(l005_system ~base_sends:true)

(* L010: unreachable location / wired in *)
let l010_system ~wired =
  lint
    [
      auto
        ~locations:[ loc "A"; loc "B"; loc "C" ]
        ~edges:
          (edge "A" "B" :: (if wired then [ edge "B" "C" ] else []))
        ~init:"A" "M";
    ]

let l010 =
  check_fixture ~code:"L010" ~positive:(l010_system ~wired:false)
    ~negative:(l010_system ~wired:true)

(* L011: guard incompatible with the source invariant / satisfiable *)
let l011_system bound =
  lint
    [
      auto ~vars:[ "c" ]
        ~locations:[ loc ~invariant:[ Guard.atom "c" Guard.Le 5.0 ] "A" ]
        ~edges:[ edge ~guard:[ Guard.atom "c" Guard.Ge bound ] "A" "A" ]
        ~init:"A" "M";
    ]

let l011 =
  check_fixture ~code:"L011" ~positive:(l011_system 10.0)
    ~negative:(l011_system 3.0)

(* L020: risky location with only receive egress / clock-forced expiry *)
let l020_system ~expiry =
  let risky_flow = Flow.clocks [ "c" ] in
  lint
    [
      auto ~vars:[ "c" ]
        ~locations:[ loc "S"; loc ~kind:Location.Risky ~flow:risky_flow "R" ]
        ~edges:
          (edge "S" "R"
          :: edge ~label:(Label.Recv "stim_back") "R" "S"
          ::
          (if expiry then
             [ edge ~guard:[ Guard.atom "c" Guard.Ge 2.0 ] "R" "S" ]
           else []))
        ~init:"S" "M";
    ]

let l020 =
  check_fixture ~code:"L020" ~positive:(l020_system ~expiry:false)
    ~negative:(l020_system ~expiry:true)

(* L030: undeclared variable / declared *)
let l030_system vars =
  lint
    [
      auto ~vars
        ~locations:[ loc "A" ]
        ~edges:[ edge ~guard:[ Guard.atom "z" Guard.Ge 1.0 ] "A" "A" ]
        ~init:"A" "M";
    ]

let l030 =
  check_fixture ~code:"L030" ~positive:(l030_system []) ~negative:(l030_system [ "z" ])

(* L031: read but never written / carries an initial value *)
let l031_system initial_values =
  lint
    [
      auto ~vars:[ "w" ] ~initial_values
        ~locations:[ loc "A" ]
        ~edges:[ edge ~guard:[ Guard.atom "w" Guard.Ge 0.5 ] "A" "A" ]
        ~init:"A" "M";
    ]

let l031 =
  check_fixture ~code:"L031" ~positive:(l031_system [])
    ~negative:(l031_system [ ("w", 0.0) ])

(* L031 through an ODE: the field reads [w], which nothing writes / the
   field also drives [w]. An ODE declares what it reads and drives, so
   its automaton gets L031-L033 like any other. *)
let l031_ode_system drives =
  let flow = Flow.Ode { reads = [ "w" ]; drives; f = (fun _ x dx -> dx.(0) <- x.(0)) } in
  lint
    [
      auto ~vars:[ "w"; "x" ] ~initial_values:[ ("x", 1.0) ]
        ~locations:[ loc ~flow "A" ]
        ~edges:[] ~init:"A" "M";
    ]

let l031_ode =
  check_fixture ~code:"L031" ~positive:(l031_ode_system [ "x" ])
    ~negative:(l031_ode_system [ "x"; "w" ])

(* L032: reset never read / read by a guard *)
let l032_system ~read =
  lint
    [
      auto ~vars:[ "u" ]
        ~locations:[ loc "A" ]
        ~edges:
          [
            edge ~reset:(Reset.set "u" 1.0)
              ~guard:(if read then [ Guard.atom "u" Guard.Le 9.0 ] else [])
              "A" "A";
          ]
        ~init:"A" "M";
    ]

let l032 =
  check_fixture ~code:"L032" ~positive:(l032_system ~read:false)
    ~negative:(l032_system ~read:true)

(* L033: declared never used / not declared *)
let l033_system vars =
  lint [ auto ~vars ~locations:[ loc "A" ] ~edges:[] ~init:"A" "M" ]

let l033 =
  check_fixture ~code:"L033" ~positive:(l033_system [ "d" ]) ~negative:(l033_system [])

(* L040: expirable invariant without egress / boundary egress *)
let l040_system ~egress =
  lint
    [
      auto ~vars:[ "c" ]
        ~locations:
          (loc ~invariant:[ Guard.atom "c" Guard.Le 5.0 ]
             ~flow:(Flow.clocks [ "c" ]) "A"
          :: (if egress then [ loc "End" ] else []))
        ~edges:
          (if egress then
             [ edge ~guard:[ Guard.atom "c" Guard.Ge 5.0 ] "A" "End" ]
           else [])
        ~init:"A" "M";
    ]

let l040 =
  check_fixture ~code:"L040" ~positive:(l040_system ~egress:false)
    ~negative:(l040_system ~egress:true)

(* L041: untimed spontaneous cycle / timed by a clock lower bound *)
let l041_system ~timed =
  let guard = if timed then [ Guard.atom "c" Guard.Ge 1.0 ] else [] in
  lint
    [
      auto ~vars:[ "c" ]
        ~locations:[ loc ~flow:(Flow.clocks [ "c" ]) "A"; loc ~flow:(Flow.clocks [ "c" ]) "B" ]
        ~edges:
          [
            edge ~guard ~reset:(Reset.set "c" 0.0) "A" "B";
            edge ~guard ~reset:(Reset.set "c" 0.0) "B" "A";
          ]
        ~init:"A" "M";
    ]

let l041 =
  check_fixture ~code:"L041" ~positive:(l041_system ~timed:false)
    ~negative:(l041_system ~timed:true)

(* ---- shipped systems lint clean ---- *)

let star_of params =
  Some
    {
      Pte_lint.Sync.base = params.Pte_core.Params.supervisor;
      remotes = Pte_core.Pattern.remotes params;
    }

let synthesized n =
  Pte_core.Synthesis.synthesize_exn
    (Pte_core.Synthesis.default_requirements
       ~entity_names:(List.init n (fun i -> Fmt.str "entity%d" (i + 1)))
       ~safeguards:
         (List.init (n - 1) (fun _ ->
              { Pte_core.Params.enter_risky_min = 2.0; exit_safe_min = 1.0 })))

let check_clean name config system () =
  let diags = Lint.lint_system ~config system in
  Alcotest.(check int)
    (name ^ " lints clean")
    0 (List.length diags)

let pattern_clean n () =
  let params = if n = 2 then Pte_core.Params.case_study else synthesized n in
  check_clean
    (Fmt.str "pattern N=%d" n)
    { Lint.default_config with topology = star_of params }
    (Pte_core.Pattern.system params)
    ()

let tracheotomy_clean () =
  let params = Pte_core.Params.case_study in
  check_clean "tracheotomy"
    {
      Lint.default_config with
      topology = star_of params;
      observable_roots = [ "evtVPumpIn"; "evtVPumpOut" ];
    }
    (System.make ~name:"laser-tracheotomy"
       [
         Pte_core.Pattern.supervisor params;
         Pte_tracheotomy.Ventilator.participant params;
         Pte_core.Pattern.initializer_ params;
         Pte_tracheotomy.Patient.automaton;
       ])
    ()

let ventilator_standalone_clean () =
  check_clean "ventilator stand-alone"
    { Lint.default_config with
      observable_roots = [ "evtVPumpIn"; "evtVPumpOut" ] }
    (System.make ~name:"vent" [ Pte_tracheotomy.Ventilator.stand_alone ])
    ()

let multi_clean ~n ~initiators () =
  let params = if n = 2 then Pte_core.Params.case_study else synthesized n in
  check_clean
    (Fmt.str "multi N=%d" n)
    { Lint.default_config with topology = star_of params }
    (Pte_core.Multi.system { Pte_core.Multi.params; initiators })
    ()

let without_lease_flagged () =
  let params = Pte_core.Params.case_study in
  let diags =
    Lint.lint_system
      ~config:{ Lint.default_config with topology = star_of params }
      (Pte_core.Pattern.system ~lease:false params)
  in
  Alcotest.(check bool) "L020 on without-lease baseline" true (has "L020" diags);
  Alcotest.(check bool) "errors present" true (Lint.has_errors diags)

(* ---- totality and determinism on random automata ---- *)

let gen_automaton =
  let open QCheck.Gen in
  let vars = [ "x"; "y"; "c" ] in
  let var = oneofl vars in
  let cmp = oneofl [ Guard.Lt; Guard.Le; Guard.Gt; Guard.Ge; Guard.Eq ] in
  let atom =
    map3 (fun v c b -> Guard.atom v c b) var cmp (float_range (-5.0) 10.0)
  in
  let guard = list_size (int_range 0 2) atom in
  let names = [ "A"; "B"; "C"; "D" ] in
  let root = oneofl [ "e1"; "e2"; "stim_go" ] in
  let label =
    oneof
      [
        return None;
        map (fun r -> Some (Label.Send r)) root;
        map (fun r -> Some (Label.Recv r)) root;
        map (fun r -> Some (Label.Recv_lossy r)) root;
        map (fun r -> Some (Label.Internal r)) root;
      ]
  in
  let assignment =
    oneof
      [
        map (fun c -> Reset.Set_const c) (float_range (-2.0) 2.0);
        map (fun c -> Reset.Add_const c) (float_range (-2.0) 2.0);
        map (fun v -> Reset.Copy v) var;
      ]
  in
  let reset = list_size (int_range 0 2) (pair var assignment) in
  let flow =
    let rates =
      list_size (int_range 0 2) (pair var (float_range (-2.0) 2.0))
    in
    oneof
      [
        map (fun r -> Flow.Rates r) rates;
        return (Flow.Ode { reads = []; drives = [ "x" ]; f = (fun _ _ dx -> dx.(0) <- 1.0) });
      ]
  in
  let location name =
    map3
      (fun kind invariant flow -> Location.make ~kind ~invariant ~flow name)
      (oneofl [ Location.Safe; Location.Risky ])
      guard flow
  in
  let edge =
    map3
      (fun (src, dst) (guard, reset) (label, urgency) ->
        Edge.make ~guard ~reset ?label ~urgency ~src ~dst ())
      (pair (oneofl names) (oneofl names))
      (pair guard reset)
      (pair label (oneofl [ Edge.Eager; Edge.Delayed ]))
  in
  let* locations = flatten_l (List.map location names) in
  let* edges = list_size (int_range 0 6) edge in
  let* initial_values =
    list_size (int_range 0 2) (pair var (float_range (-1.0) 1.0))
  in
  return
    (Automaton.make ~name:"rand" ~vars ~locations ~edges ~initial_location:"A"
       ~initial_values ())

let arb_automaton = QCheck.make ~print:(Fmt.str "%a" Automaton.pp) gen_automaton

let prop_total =
  QCheck.Test.make ~name:"linter total on random automata" ~count:300
    arb_automaton (fun a ->
      let _ = Lint.lint_automaton a in
      let _ =
        Lint.lint_system
          ~config:
            { Lint.default_config with
              topology = Some { Pte_lint.Sync.base = "S"; remotes = [ "rand" ] }
            }
          (System.make ~name:"rand-sys" [ a ])
      in
      true)

let prop_deterministic =
  QCheck.Test.make ~name:"linter deterministic on random automata" ~count:150
    arb_automaton (fun a ->
      let run () = Lint.lint_automaton a in
      run () = run ())

let fixed_system_deterministic () =
  let params = Pte_core.Params.case_study in
  let config = { Lint.default_config with topology = star_of params } in
  let system = Pte_core.Pattern.system ~lease:false params in
  let a = Lint.lint_system ~config system in
  let b = Lint.lint_system ~config system in
  Alcotest.(check bool) "same diagnostics" true (a = b);
  Alcotest.(check bool)
    "sorted by Diagnostic.compare" true
    (List.sort Diagnostic.compare a = a)

(* Wellformed stays the single source of truth for L040/L041: the lifted
   diagnostics agree with a direct Wellformed.check call. *)
let wellformed_shim_agrees () =
  let a =
    auto ~vars:[ "c" ]
      ~locations:
        [ loc ~invariant:[ Guard.atom "c" Guard.Le 5.0 ]
            ~flow:(Flow.clocks [ "c" ]) "A" ]
      ~edges:[] ~init:"A" "M"
  in
  let lifted =
    List.filter
      (fun (d : Diagnostic.t) ->
        String.equal d.Diagnostic.code "L040"
        || String.equal d.Diagnostic.code "L041")
      (Lint.lint_automaton a)
  in
  Alcotest.(check int)
    "as many lifted diagnostics as Wellformed issues"
    (List.length (Wellformed.check a))
    (List.length lifted)

let registry_covers_fixture_codes () =
  List.iter
    (fun code ->
      match Diagnostic.find_info code with
      | Some _ -> ()
      | None -> Alcotest.failf "code %s missing from registry" code)
    [ "L001"; "L002"; "L003"; "L004"; "L005"; "L010"; "L011"; "L020";
      "L030"; "L031"; "L032"; "L033"; "L040"; "L041" ]

let suite =
  [
    ( "lint.fixtures",
      [
        Alcotest.test_case "L001 orphan send" `Quick l001;
        Alcotest.test_case "L002 orphan receive" `Quick l002;
        Alcotest.test_case "L003 reliable over lossy star" `Quick l003;
        Alcotest.test_case "L004 lossy over wired path" `Quick l004;
        Alcotest.test_case "L005 remote-to-remote only" `Quick l005;
        Alcotest.test_case "L010 unreachable location" `Quick l010;
        Alcotest.test_case "L011 dead edge" `Quick l011;
        Alcotest.test_case "L020 risky without self-reset" `Quick l020;
        Alcotest.test_case "L030 undeclared variable" `Quick l030;
        Alcotest.test_case "L031 read never written" `Quick l031;
        Alcotest.test_case "L031 read by an ODE" `Quick l031_ode;
        Alcotest.test_case "L032 reset never read" `Quick l032;
        Alcotest.test_case "L033 declared never used" `Quick l033;
        Alcotest.test_case "L040 time-block lifted" `Quick l040;
        Alcotest.test_case "L041 zeno lifted" `Quick l041;
        Alcotest.test_case "registry covers all codes" `Quick
          registry_covers_fixture_codes;
      ] );
    ( "lint.shipped",
      [
        Alcotest.test_case "pattern N=2 clean" `Quick (pattern_clean 2);
        Alcotest.test_case "pattern N=3 clean" `Quick (pattern_clean 3);
        Alcotest.test_case "pattern N=4 clean" `Quick (pattern_clean 4);
        Alcotest.test_case "tracheotomy clean" `Quick tracheotomy_clean;
        Alcotest.test_case "ventilator stand-alone clean" `Quick
          ventilator_standalone_clean;
        Alcotest.test_case "multi N=2 clean" `Quick
          (multi_clean ~n:2 ~initiators:[ 1; 2 ]);
        Alcotest.test_case "multi N=3 clean" `Quick
          (multi_clean ~n:3 ~initiators:[ 1; 3 ]);
        Alcotest.test_case "without-lease flagged" `Quick without_lease_flagged;
      ] );
    ( "lint.robustness",
      [
        QCheck_alcotest.to_alcotest prop_total;
        QCheck_alcotest.to_alcotest prop_deterministic;
        Alcotest.test_case "fixed system deterministic + sorted" `Quick
          fixed_system_deterministic;
        Alcotest.test_case "wellformed shim agrees" `Quick
          wellformed_shim_agrees;
      ] );
  ]
