(* The performance benchmark; README.md describes the workloads and
   metrics.

     main.exe                       every workload: three runs, the last
                                    also traced, one process per run
     main.exe --smoke               every workload shrunk, one traced run
     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                                    one run: set-up timed here, rounds in
                                    forked children; the last line of
                                    stdout is the JSON result *)

open Pte_perf
module J = Pte_util.Json
module W = Workloads

let end_to_end =
  [ ("setup_s", "s"); ("work_per_s", "1/s"); ("peak_heap_mb", "MB") ]

let setup_samples = 5
let mb words = Float.of_int (words * (Sys.word_size / 8)) /. 1048576.0

let metric_json rows =
  J.Obj (List.map (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ])) rows)

(* ------------------------------------------------------------------ *)
(* One run of one workload                                             *)
(* ------------------------------------------------------------------ *)

(* One set-up sample, after a compaction: the construction repeated until
   10 ms have passed, so that sub-millisecond set-ups are timed well above
   the clock's and the scheduler's noise. *)
let setup_sample (w : W.t) ~size ~seed =
  Gc.compact ();
  let t0 = Span.now () in
  let rec go n =
    w.setup size ~seed;
    let elapsed = Span.now () - t0 in
    if elapsed >= 10_000_000 then Float.of_int elapsed *. 1e-9 /. Float.of_int n else go (n + 1)
  in
  go 1

type measured = {
  outcome : W.outcome;
  tracer : Span.t;
  top_heap_words : int;
  major_collections : int;
}

(* Every round runs in a forked copy of this process: each starts from the
   same small heap, so neither its speed nor its peak heap depends on the
   rounds before it. The result comes back marshalled through a pipe. *)
let round_in_child (w : W.t) ~size ~seed ~traced : (measured, string) result =
  Gc.compact ();
  let r, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let tracer = Span.create traced in
      let gc0 = Gc.quick_stat () in
      let result =
        match w.round size ~seed tracer with
        | outcome ->
            let gc1 = Gc.quick_stat () in
            Ok
              { outcome; tracer; top_heap_words = gc1.Gc.top_heap_words;
                major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections }
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (result : (measured, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr r in
      let result =
        try (Marshal.from_channel ic : (measured, string) result)
        with End_of_file | Failure _ -> Error "the round's process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      result

(* Untraced rounds until one more would overrun [seconds] (at least one);
   with [trace], one untraced round and then one traced round, whose
   per-layer numbers are reported. *)
let run_one (w : W.t) ~size ~seed ~seconds ~trace ~trace_out =
  (* the first sample pays for cold caches and fresh heap pages: drop it *)
  ignore (setup_sample w ~size ~seed);
  let setup = List.init setup_samples (fun _ -> setup_sample w ~size ~seed) in
  let start = Span.now () in
  let rec rounds acc =
    let acc = round_in_child w ~size ~seed ~traced:false :: acc in
    let elapsed = Float.of_int (Span.now () - start) *. 1e-9 in
    if trace || elapsed +. (elapsed /. Float.of_int (List.length acc)) > seconds then
      List.rev acc
    else rounds acc
  in
  let plain = rounds [] in
  let traced = if trace then [ round_in_child w ~size ~seed ~traced:true ] else [] in
  let ok = List.filter_map Result.to_option in
  let died = List.filter_map (function Error e -> Some e | Ok _ -> None) (plain @ traced) in
  let outcomes = List.map (fun m -> m.outcome) (ok (plain @ traced)) in
  let digest = match outcomes with o :: _ -> o.W.digest | [] -> "" in
  let problems =
    died
    @ List.concat_map (fun (o : W.outcome) -> o.problems) outcomes
    @ List.filter_map
        (fun (o : W.outcome) ->
          if String.equal o.digest digest then None
          else Some (Printf.sprintf "digest %s differs from the first round's %s" o.digest digest))
        outcomes
  in
  let attempted = List.length died + List.fold_left (fun acc (o : W.outcome) -> acc + o.ops) 0 outcomes in
  let failed = List.length died + List.fold_left (fun acc (o : W.outcome) -> acc + o.failed) 0 outcomes in
  let plain = ok plain in
  let median f = if plain = [] then Float.nan else Stats.median (List.map f plain) in
  let e2e =
    [ ("setup_s", "s", Stats.median setup);
      ("work_per_s", "1/s", median (fun m -> m.outcome.work /. m.outcome.wall_s));
      ("peak_heap_mb", "MB", median (fun m -> mb m.top_heap_words)) ]
  in
  let metrics =
    match (plain, ok traced) with
    | first :: _, [ t ] ->
        Option.iter
          (fun dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let oc = open_out (Filename.concat dir (w.name ^ ".trace.json")) in
            output_string oc (J.to_string (Span.to_chrome t.tracer));
            close_out oc)
          trace_out;
        Layers.compute
          { tr = t.tracer; plain = first.outcome; traced = t.outcome;
            major_collections = Float.of_int first.major_collections;
            top_heap_mb = mb first.top_heap_words }
    | _ when trace -> List.map (fun (name, unit) -> (name, unit, Float.nan)) Layers.metrics
    | _ -> e2e
  in
  List.iter (fun p -> Printf.eprintf "%s: %s\n%!" w.name p) problems;
  (* the report line: what the orchestrator compares across runs *)
  print_endline
    (J.to_string
       (J.Obj
          [ ("workload", J.Str w.name); ("seed", J.Num (Float.of_int seed));
            ("digest", J.Str digest); ("rounds", J.Num (Float.of_int (List.length plain)));
            ("end_to_end", metric_json e2e);
            ("problems", J.Arr (List.map (fun p -> J.Str p) problems)) ]));
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (problems = [] && failed = 0));
            ("attempted", J.Num (Float.of_int attempted));
            ("failed", J.Num (Float.of_int failed)); ("metrics", metric_json metrics) ]))

(* ------------------------------------------------------------------ *)
(* Every workload, one fresh process per run                           *)
(* ------------------------------------------------------------------ *)

type child = { report : J.t; result : J.t }

let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  let json l = match J.of_string l with Ok j -> Some j | Error _ -> None in
  match (status, out) with
  | Unix.WEXITED 0, last :: report :: _ -> (
      match (json report, json last) with
      | Some report, Some result -> Ok { report; result }
      | _ -> Error "unparsable output")
  | Unix.WEXITED 0, _ -> Error "no result printed"
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
      Error (Printf.sprintf "exited with status %d" c)

let path keys j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) keys

let num keys j = Option.bind (path keys j) J.to_float
let str keys j = Option.bind (path keys j) J.to_str

let run_all ~smoke ~runs ~seed ~trace_out =
  let size_args = if smoke then [ "--smoke" ] else [] in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        Printf.printf "FAIL %s\n%!" s)
      fmt
  in
  Printf.printf "%-17s %-13s %-18s %14s %14s %14s  %s\n" "workload" "metric" "unit" "median" "q1" "q3"
    "runs";
  let layer_rows = ref [] in
  List.iter
    (fun (w : W.t) ->
      let args trace =
        [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds"; "0"; "--trace"; trace ]
        @ size_args
        @ match (trace, trace_out) with "1", Some d -> [ "--trace-out"; d ] | _ -> []
      in
      (* the traced run measures an untraced round first, so it is the
         last of the [runs] measured runs *)
      let spawn_run trace =
        match spawn (args trace) with
        | Ok c -> Some c
        | Error e ->
            fail "%s: %s" w.name e;
            None
      in
      let plain = List.filter_map (fun _ -> spawn_run "0") (List.init (runs - 1) Fun.id) in
      let traced = spawn_run "1" in
      let children = plain @ Option.to_list traced in
      List.iter
        (fun (name, unit) ->
          let values = List.filter_map (fun c -> num [ "end_to_end"; name; "value" ] c.report) children in
          let unit = if name = "work_per_s" then w.work_unit ^ "/s" else unit in
          if values <> [] then begin
            let q1, q3 = Stats.quartiles values in
            Printf.printf "%-17s %-13s %-18s %14.6g %14.6g %14.6g  %d\n%!" w.name name unit
              (Stats.median values) q1 q3 (List.length values)
          end)
        end_to_end;
      List.iter
        (fun c ->
          if path [ "correct" ] c.result <> Some (J.Bool true) then
            fail "%s: a run reported incorrect results" w.name)
        children;
      (match List.sort_uniq compare (List.filter_map (fun c -> str [ "digest" ] c.report) children) with
      | [ _ ] -> ()
      | ds -> fail "%s: %d different digests across runs" w.name (List.length ds));
      Option.iter
        (fun traced ->
          List.iter
            (fun (name, unit) ->
              match num [ "metrics"; name; "value" ] traced.result with
              | Some v -> layer_rows := (w.name, name, unit, v) :: !layer_rows
              | None -> fail "%s: traced run lacks %s" w.name name)
            Layers.metrics)
        traced)
    W.all;
  if not smoke then begin
    Printf.printf "\nper-layer metrics of the traced runs (layers a workload does not exercise read 0)\n";
    List.iter
      (fun (w, name, unit, v) ->
        if v <> 0.0 then Printf.printf "%-17s %-32s %-6s %14.6g\n" w name unit v)
      (List.rev !layer_rows)
  end;
  Printf.printf "\n%s\n" (if !ok then "all checks passed" else "CHECKS FAILED");
  if not !ok then exit 1

let () =
  let workload = ref None and seed = ref W.pinned_seed and seconds = ref 0.0 in
  let trace = ref false and smoke = ref false and trace_out = ref None in
  Arg.parse
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed all inputs derive from (default 2013)");
      ("--seconds", Arg.Set_float seconds, "S repeat rounds while they fit in S seconds (default: one)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
        " 1: report per-layer metrics from an extra traced round" );
      ("--trace-out", Arg.String (fun d -> trace_out := Some d), "DIR write the traced round's spans as Chrome trace JSON");
      ("--smoke", Arg.Set smoke, " shrink every workload to well under a second") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload NAME --seed N --seconds S --trace 0|1] [--smoke]";
  let size = if !smoke then W.Smoke else W.Full in
  match !workload with
  | Some name -> (
      match W.find name with
      | Some w -> run_one w ~size ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_out:!trace_out
      | None ->
          Printf.eprintf "unknown workload %s\n" name;
          exit 2)
  | None -> run_all ~smoke:!smoke ~runs:(if !smoke then 1 else 3) ~seed:!seed ~trace_out:!trace_out
