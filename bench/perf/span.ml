(** Spans recorded by the benchmark around calls into each layer's
    public functions. A tracer belongs to one domain; the campaign
    workloads give every job its own and {!adopt} them afterwards.

    Spans that fire at a high rate (one per step, per route call, per
    schedule/cancel) are not kept one by one: they are aggregated per
    (name, parent) into a count, a total and a histogram. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; parent : string; start : int; stop : int; tid : int }

type agg = { a_name : string; a_parent : string; hist : Stats.Hist.t }

type t = {
  enabled : bool;
  tid : int;
  mutable stack : string list;  (** names of the open spans *)
  mutable spans : span list;  (** newest first *)
  mutable aggs : agg list;
  mutable adopted : t list;
}

(** [parent] names the span, in another tracer, that the new tracer's
    spans nest under. *)
let create ?(tid = 0) ?parent enabled =
  { enabled; tid; stack = Option.to_list parent; spans = []; aggs = []; adopted = [] }

let enabled t = t.enabled

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> "" in
    t.stack <- name :: t.stack;
    let start = now () in
    let close () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      t.spans <- { name; parent; start; stop; tid = t.tid } :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** The aggregate for [name] under [parent], created on first use. *)
let agg t ~parent name =
  match
    List.find_opt
      (fun a -> String.equal a.a_name name && String.equal a.a_parent parent)
      t.aggs
  with
  | Some a -> a
  | None ->
      let a = { a_name = name; a_parent = parent; hist = Stats.Hist.create () } in
      t.aggs <- a :: t.aggs;
      a

let record a ns = Stats.Hist.add a.hist ns

(** Attach tracers filled in other domains, once those have finished. *)
let adopt t children = t.adopted <- t.adopted @ children

let rec all t = t :: List.concat_map all t.adopted
let spans t = List.concat_map (fun t -> List.rev t.spans) (all t)

(** Every aggregate named [name] (under any parent, in any tracer),
    merged into one histogram. *)
let merged t name =
  let h = Stats.Hist.create () in
  List.iter
    (fun tr ->
      List.iter
        (fun a -> if String.equal a.a_name name then Stats.Hist.merge_into ~dst:h a.hist)
        tr.aggs)
    (all t);
  h

(** The part of [\[start, stop\]] that no child interval covers. Children
    may nest, overlap one another or stick out of the parent: only their
    union inside the parent is subtracted. *)
let self_ns ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Int.max s start and e = Int.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (s, e) ->
        let s = Int.max s reach in
        if e > s then (covered + e - s, e) else (covered, reach))
      (0, start) clipped
  in
  stop - start - covered

(** Summed self time of every span named [name]: each instance minus
    the spans recorded as its children on the same thread. *)
let self_total t name =
  let spans = spans t in
  List.fold_left
    (fun acc s ->
      if not (String.equal s.name name) then acc
      else
        let children =
          List.filter_map
            (fun c ->
              if String.equal c.parent name && c.tid = s.tid && c.start >= s.start
                 && c.stop <= s.stop && c != s
              then Some (c.start, c.stop)
              else None)
            spans
        in
        acc + self_ns ~start:s.start ~stop:s.stop children)
    0 spans

let durations t name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (s.stop - s.start) else None)
    (spans t)

let total t name = List.fold_left ( + ) 0 (durations t name)

(** Chrome trace-event JSON (opens in Perfetto): one complete event per
    recorded span, one instant event carrying the statistics of each
    aggregate. *)
let to_chrome t =
  let module J = Pte_util.Json in
  let spans = spans t in
  let origin = List.fold_left (fun m s -> Int.min m s.start) max_int spans in
  let origin = if origin = max_int then 0 else origin in
  let us ns = J.Num (Float.of_int ns /. 1000.0) in
  let complete s =
    J.Obj
      [ ("name", J.Str s.name); ("cat", J.Str "bench"); ("ph", J.Str "X");
        ("ts", us (s.start - origin)); ("dur", us (s.stop - s.start));
        ("pid", J.Num 1.0); ("tid", J.Num (Float.of_int s.tid));
        ("args", J.Obj [ ("parent", J.Str s.parent) ]) ]
  in
  let instant tr a =
    let h = a.hist in
    J.Obj
      [ ("name", J.Str a.a_name); ("cat", J.Str "aggregate"); ("ph", J.Str "i");
        ("s", J.Str "t"); ("ts", J.Num 0.0); ("pid", J.Num 1.0);
        ("tid", J.Num (Float.of_int tr.tid));
        ("args",
          J.Obj
            [ ("parent", J.Str a.a_parent);
              ("count", J.Num (Float.of_int h.Stats.Hist.n));
              ("total_us", us h.Stats.Hist.sum);
              ("p50_us", J.Num (Stats.Hist.percentile h 0.5 /. 1000.0));
              ("p99_us", J.Num (Stats.Hist.percentile h 0.99 /. 1000.0)) ]) ]
  in
  J.Obj
    [ ("traceEvents",
        J.Arr
          (List.map complete spans
          @ List.concat_map
              (fun tr -> List.rev_map (instant tr) tr.aggs)
              (all t)));
      ("displayTimeUnit", J.Str "ms") ]
