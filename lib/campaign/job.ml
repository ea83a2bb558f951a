(** Campaign job specs and completed-job records. *)

module Json = Pte_util.Json

type 'cell t = {
  id : int;
  cell : int;
  rep : int;
  seed : int;
  payload : 'cell;
}

(* Per-job seeds come from splitting the master stream once per job, in
   job-id order: job i's seed is a pure function of (master seed, i), so
   results cannot depend on scheduling. The extra [next_int64] flattens
   the split state into a storable int. *)
let plan ~cells ~reps ~seed =
  if reps <= 0 then invalid_arg "Job.plan: reps must be positive";
  let master = Pte_util.Rng.create seed in
  let jobs = Array.length cells * reps in
  Array.init jobs (fun id ->
      let stream = Pte_util.Rng.split master in
      {
        id;
        cell = id / reps;
        rep = id mod reps;
        seed = Int64.to_int (Pte_util.Rng.next_int64 stream);
        payload = cells.(id / reps);
      })

let rng job = Pte_util.Rng.create job.seed

(* Fingerprint of a plan: a mix over the per-job seed sequence (itself a
   pure function of master seed, cell count and reps). Two campaigns
   agree on the digest iff they would hand every job the same stream. *)
let digest jobs =
  let mix h x =
    let h = Int64.mul (Int64.logxor h x) 0x100000001b3L in
    Int64.logxor h (Int64.shift_right_logical h 29)
  in
  Printf.sprintf "%016Lx"
    (Array.fold_left
       (fun acc j -> mix acc (Int64.of_int j.seed))
       0xcbf29ce484222325L jobs)

type status = Done | Failed of string

type outcome = {
  id : int;
  cell : int;
  rep : int;
  attempts : int;
  status : status;
  metrics : (string * float) list;
}

let outcome_ok o = match o.status with Done -> true | Failed _ -> false

let outcome_to_json o =
  let base =
    [
      ("job", Json.Num (Float.of_int o.id));
      ("cell", Json.Num (Float.of_int o.cell));
      ("rep", Json.Num (Float.of_int o.rep));
      ("attempts", Json.Num (Float.of_int o.attempts));
    ]
  in
  match o.status with
  | Done ->
      Json.Obj
        (base
        @ [
            ("status", Json.Str "ok");
            ( "metrics",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.metrics) );
          ])
  | Failed reason ->
      Json.Obj (base @ [ ("status", Json.Str "failed"); ("error", Json.Str reason) ])

let outcome_of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name extract =
    match Option.bind (Json.member name json) extract with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "outcome: missing or bad %S" name)
  in
  let* id = field "job" Json.to_int in
  let* cell = field "cell" Json.to_int in
  let* rep = field "rep" Json.to_int in
  let* attempts = field "attempts" Json.to_int in
  let* status = field "status" Json.to_str in
  match status with
  | "ok" ->
      let* metrics =
        match Json.member "metrics" json with
        | Some (Json.Obj fields) ->
            List.fold_right
              (fun (k, v) acc ->
                let* acc = acc in
                match Json.to_float v with
                | Some v -> Ok ((k, v) :: acc)
                | None -> Error (Printf.sprintf "outcome: metric %S not a number" k))
              fields (Ok [])
        | _ -> Error "outcome: missing metrics object"
      in
      Ok { id; cell; rep; attempts; status = Done; metrics }
  | "failed" ->
      let reason =
        Option.value ~default:"unknown"
          (Option.bind (Json.member "error" json) Json.to_str)
      in
      Ok { id; cell; rep; attempts; status = Failed reason; metrics = [] }
  | s -> Error (Printf.sprintf "outcome: unknown status %S" s)
