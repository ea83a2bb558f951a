(* Tests of the benchmark's own arithmetic: order statistics, span self
   time, aggregated percentiles and the result digest. *)

open Pte_perf

let close = Alcotest.float 1e-9

(* reference values from Python's statistics.median / quantiles(n=4) *)
let test_quartiles () =
  let check xs (q1, med, q3) =
    let lo, hi = Stats.quartiles xs in
    Alcotest.check close "q1" q1 lo;
    Alcotest.check close "median" med (Stats.median xs);
    Alcotest.check close "q3" q3 hi
  in
  check (List.init 10 (fun i -> Float.of_int (i + 1))) (2.75, 5.5, 8.25);
  check [ 1.0; 2.0; 3.0; 4.0 ] (1.25, 2.5, 3.75);
  check [ 3.0; 1.0; 2.0 ] (1.0, 2.0, 3.0);
  check [ 5.0; 1.0 ] (0.0, 3.0, 6.0);
  check [ 0.5; 2.0; 9.0; 4.0; 7.5; 1.0; 3.0 ] (1.0, 3.0, 7.5);
  check [ 4.2 ] (4.2, 4.2, 4.2)

let test_self_time () =
  (* overlapping [10,30] and [20,40] count once, [52,55] nests inside
     [50,60], and [90,120] is clipped at the parent's end *)
  let children = [ (10, 30); (20, 40); (50, 60); (52, 55); (90, 120); (150, 160) ] in
  Alcotest.(check int) "self" 50 (Span.self_ns ~start:0 ~stop:100 children);
  Alcotest.(check int) "no children" 100 (Span.self_ns ~start:0 ~stop:100 []);
  Alcotest.(check int) "fully covered" 0 (Span.self_ns ~start:0 ~stop:100 [ (-5, 200) ])

let test_self_total () =
  let tr = Span.create true in
  let span name parent start stop = { Span.name; parent; start; stop; tid = 0 } in
  tr.Span.spans <-
    [ span "run" "" 0 100; span "step" "run" 10 40; span "step" "run" 30 60;
      span "run" "" 200 300; span "step" "run" 250 260;
      (* another thread's span never covers this one *)
      { (span "step" "run" 0 100) with tid = 1 } ];
  Alcotest.(check int) "run self" (50 + 90) (Span.self_total tr "run");
  Alcotest.(check int) "run total" 200 (Span.total tr "run")

let test_percentiles () =
  let h = Stats.Hist.create () in
  for v = 1 to 100 do
    Stats.Hist.add h v
  done;
  (* below 128 ns every value has its own bucket *)
  Alcotest.check close "p50 exact" 50.0 (Stats.Hist.percentile h 0.5);
  Alcotest.check close "p99 exact" 99.0 (Stats.Hist.percentile h 0.99);
  let h = Stats.Hist.create () in
  let xs = List.init 10_000 (fun i -> (i * 37) + 1000) in
  List.iter (Stats.Hist.add h) xs;
  let exact p = Stats.percentile (List.map Float.of_int xs) p in
  List.iter
    (fun p ->
      let got = Stats.Hist.percentile h p and want = exact p in
      if Float.abs (got -. want) > want /. 64.0 then
        Alcotest.failf "p%g: histogram %g, exact %g" (100.0 *. p) got want)
    [ 0.5; 0.9; 0.99 ];
  Alcotest.(check int) "count" 10_000 h.Stats.Hist.n;
  Alcotest.(check int) "sum" (List.fold_left ( + ) 0 xs) h.Stats.Hist.sum;
  (* aggregates of one name under different parents and tracers merge *)
  let a = Span.create true and b = Span.create ~tid:1 true in
  List.iter (Span.record (Span.agg a ~parent:"run" "step")) [ 10; 20 ];
  List.iter (Span.record (Span.agg a ~parent:"other" "step")) [ 30 ];
  List.iter (Span.record (Span.agg b ~parent:"run" "step")) [ 40; 50 ];
  Span.adopt a [ b ];
  let m = Span.merged a "step" in
  Alcotest.(check int) "merged count" 5 m.Stats.Hist.n;
  Alcotest.check close "merged p50" 30.0 (Stats.Hist.percentile m 0.5)

let test_digest_order () =
  let rows =
    List.init 12 (fun id ->
        (id, [ ("emissions", Float.of_int (id mod 5)); ("worst_latency", 0.1 *. Float.of_int id) ]))
  in
  let reference = Digest_rows.of_rows rows in
  (* campaign jobs land in any order at 2 workers *)
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let shuffled =
      List.map (fun r -> (Random.State.bits rng, r)) rows
      |> List.sort compare |> List.map snd
    in
    Alcotest.(check string) "order-free" reference (Digest_rows.of_rows shuffled)
  done;
  let changed = List.map (fun (id, row) -> if id = 3 then (id, ("extra", 1.0) :: row) else (id, row)) rows in
  if String.equal reference (Digest_rows.of_rows changed) then
    Alcotest.fail "a changed row must change the digest"

let () =
  Alcotest.run "perf"
    [ ( "arithmetic",
        [ Alcotest.test_case "median and quartiles" `Quick test_quartiles;
          Alcotest.test_case "self time of overlapping children" `Quick test_self_time;
          Alcotest.test_case "self time per span name" `Quick test_self_total;
          Alcotest.test_case "aggregated percentiles" `Quick test_percentiles;
          Alcotest.test_case "digest ignores completion order" `Quick test_digest_order ] ) ]
