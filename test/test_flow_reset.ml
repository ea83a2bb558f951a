(* Flow maps and reset functions. *)

open Pte_hybrid

let test_clock_flow () =
  let flow = Flow.clocks [ "c"; "d" ] in
  let rates = Flow.derivatives flow ~time:0.0 Valuation.empty in
  Alcotest.(check (float 0.0)) "c rate" 1.0 (List.assoc "c" rates);
  Alcotest.(check (float 0.0)) "d rate" 1.0 (List.assoc "d" rates)

let test_frozen () =
  Alcotest.(check int) "no rates" 0
    (List.length (Flow.derivatives Flow.frozen ~time:0.0 Valuation.empty))

let test_rate_of () =
  let flow = Flow.Rates [ ("h", -0.1) ] in
  Alcotest.(check (float 0.0)) "listed" (-0.1)
    (Flow.rate_of flow ~time:0.0 Valuation.empty "h");
  Alcotest.(check (float 0.0)) "unlisted" 0.0
    (Flow.rate_of flow ~time:0.0 Valuation.empty "other")

let test_ode () =
  let flow =
    Flow.Ode { reads = [ "x" ]; drives = [ "x" ]; f = (fun _t x dx -> dx.(0) <- -.x.(0)) }
  in
  let v = Valuation.of_list [ ("x", 4.0) ] in
  Alcotest.(check (float 1e-12)) "ode rate" (-4.0)
    (Flow.rate_of flow ~time:0.0 v "x")

let test_combine_rates () =
  let combined = Flow.combine (Flow.Rates [ ("a", 1.0) ]) (Flow.Rates [ ("b", 2.0) ]) in
  Alcotest.(check bool) "still constant-rate" true (Flow.is_constant_rate combined);
  Alcotest.(check (float 0.0)) "a" 1.0 (Flow.rate_of combined ~time:0.0 Valuation.empty "a");
  Alcotest.(check (float 0.0)) "b" 2.0 (Flow.rate_of combined ~time:0.0 Valuation.empty "b")

let test_combine_with_ode () =
  let ode = Flow.Ode { reads = []; drives = [ "x" ]; f = (fun _ _ dx -> dx.(0) <- 5.0) } in
  let combined = Flow.combine (Flow.Rates [ ("c", 1.0) ]) ode in
  Alcotest.(check bool) "becomes ode" false (Flow.is_constant_rate combined);
  Alcotest.(check (float 0.0)) "c" 1.0 (Flow.rate_of combined ~time:0.0 Valuation.empty "c");
  Alcotest.(check (float 0.0)) "x" 5.0 (Flow.rate_of combined ~time:0.0 Valuation.empty "x");
  (* each side of a combined ODE reads its own inputs *)
  let scaled var k =
    Flow.Ode { reads = [ var ]; drives = [ var ]; f = (fun _ x dx -> dx.(0) <- k *. x.(0)) }
  in
  let both = Flow.combine (scaled "a" (-1.0)) (scaled "b" 2.0) in
  let v = Valuation.of_list [ ("a", 3.0); ("b", 4.0) ] in
  Alcotest.(check (float 0.0)) "a" (-3.0) (Flow.rate_of both ~time:0.0 v "a");
  Alcotest.(check (float 0.0)) "b" 8.0 (Flow.rate_of both ~time:0.0 v "b")

let test_reset_identity () =
  let v = Valuation.of_list [ ("x", 3.0) ] in
  Alcotest.(check (float 0.0)) "unchanged" 3.0
    (Valuation.get (Reset.apply Reset.identity v) "x")

let test_reset_set_zero () =
  let v = Valuation.of_list [ ("c", 7.0); ("d", 8.0) ] in
  let v' = Reset.apply (Reset.zero [ "c"; "d" ]) v in
  Alcotest.(check (float 0.0)) "c" 0.0 (Valuation.get v' "c");
  Alcotest.(check (float 0.0)) "d" 0.0 (Valuation.get v' "d")

let test_reset_simultaneous () =
  (* all right-hand sides read the pre-transition valuation *)
  let v = Valuation.of_list [ ("a", 1.0); ("b", 2.0) ] in
  let swap = [ ("a", Reset.Copy "b"); ("b", Reset.Copy "a") ] in
  let v' = Reset.apply swap v in
  Alcotest.(check (float 0.0)) "a := old b" 2.0 (Valuation.get v' "a");
  Alcotest.(check (float 0.0)) "b := old a" 1.0 (Valuation.get v' "b")

let test_reset_add () =
  let v = Valuation.of_list [ ("x", 10.0) ] in
  let v' = Reset.apply [ ("x", Reset.Add_const (-3.0)) ] v in
  Alcotest.(check (float 0.0)) "x" 7.0 (Valuation.get v' "x")

let test_reset_vars () =
  let reset = [ ("a", Reset.Copy "b"); ("c", Reset.Set_const 0.0) ] in
  let vars = Reset.vars reset in
  Alcotest.(check bool) "mentions a,b,c" true
    (Var.Set.mem "a" vars && Var.Set.mem "b" vars && Var.Set.mem "c" vars)

let suite =
  [
    ( "hybrid.flow+reset",
      [
        Alcotest.test_case "clock flow" `Quick test_clock_flow;
        Alcotest.test_case "frozen" `Quick test_frozen;
        Alcotest.test_case "rate_of" `Quick test_rate_of;
        Alcotest.test_case "ode" `Quick test_ode;
        Alcotest.test_case "combine rates" `Quick test_combine_rates;
        Alcotest.test_case "combine with ode" `Quick test_combine_with_ode;
        Alcotest.test_case "reset identity" `Quick test_reset_identity;
        Alcotest.test_case "reset to zero" `Quick test_reset_set_zero;
        Alcotest.test_case "simultaneous resets" `Quick test_reset_simultaneous;
        Alcotest.test_case "add-const reset" `Quick test_reset_add;
        Alcotest.test_case "reset vars" `Quick test_reset_vars;
      ] );
  ]
