(* Reference DBM for the differential tests of [Pte_mc.Dbm]: the textbook
   matrix of boxed [Bound.t], every entry compared with [Bound.compare].
   [Pte_mc.Dbm] must produce the same entries, bit for bit, on any
   sequence of operations. *)

open Pte_mc

type t = { dim : int; m : Bound.t array array }

let copy t = { dim = t.dim; m = Array.map Array.copy t.m }

let zero ~clocks =
  let dim = clocks + 1 in
  { dim; m = Array.make_matrix dim dim (Bound.le 0.0) }

let top ~clocks =
  let dim = clocks + 1 in
  let m =
    Array.init dim (fun i ->
        Array.init dim (fun j ->
            if i = j then Bound.zero
            else if i = 0 then Bound.le 0.0
            else Bound.infinity_))
  in
  { dim; m }

let get t i j = t.m.(i).(j)

let is_empty t =
  let rec go i =
    i >= t.dim || (Bound.compare t.m.(i).(i) Bound.zero >= 0 && go (i + 1))
  in
  not (go 0)

let canonicalize t =
  let { dim; m } = t in
  for k = 0 to dim - 1 do
    for i = 0 to dim - 1 do
      for j = 0 to dim - 1 do
        let through_k = Bound.add m.(i).(k) m.(k).(j) in
        if Bound.compare through_k m.(i).(j) < 0 then m.(i).(j) <- through_k
      done
    done
  done

let constrain t i j bound =
  if Bound.compare bound t.m.(i).(j) < 0 then begin
    t.m.(i).(j) <- bound;
    let { dim; m } = t in
    for a = 0 to dim - 1 do
      for b = 0 to dim - 1 do
        let via = Bound.add (Bound.add m.(a).(i) bound) m.(j).(b) in
        if Bound.compare via m.(a).(b) < 0 then m.(a).(b) <- via
      done
    done
  end;
  not (is_empty t)

let up t =
  for i = 1 to t.dim - 1 do
    t.m.(i).(0) <- Bound.infinity_
  done

let reset t i =
  for j = 0 to t.dim - 1 do
    if j <> i then begin
      t.m.(i).(j) <- t.m.(0).(j);
      t.m.(j).(i) <- t.m.(j).(0)
    end
  done;
  t.m.(i).(i) <- Bound.zero

let free t i =
  for j = 0 to t.dim - 1 do
    if j <> i then begin
      t.m.(i).(j) <- (if j = 0 then Bound.infinity_ else t.m.(i).(0));
      t.m.(j).(i) <- t.m.(j).(0)
    end
  done;
  t.m.(0).(i) <- Bound.le 0.0;
  t.m.(i).(0) <- Bound.infinity_;
  for j = 1 to t.dim - 1 do
    if j <> i then begin
      t.m.(i).(j) <- Bound.add t.m.(i).(0) t.m.(0).(j);
      t.m.(j).(i) <- Bound.add t.m.(j).(0) t.m.(0).(i)
    end
  done

let includes a b =
  let ok = ref true in
  for i = 0 to a.dim - 1 do
    for j = 0 to a.dim - 1 do
      if Bound.compare a.m.(i).(j) b.m.(i).(j) < 0 then ok := false
    done
  done;
  !ok

let equal a b =
  let ok = ref true in
  for i = 0 to a.dim - 1 do
    for j = 0 to a.dim - 1 do
      if not (Bound.equal a.m.(i).(j) b.m.(i).(j)) then ok := false
    done
  done;
  !ok

let constrain_atom t ~clock ~(cmp : Dbm.cmp) ~const =
  match cmp with
  | Le -> constrain t clock 0 (Bound.le const)
  | Lt -> constrain t clock 0 (Bound.lt const)
  | Ge -> constrain t 0 clock (Bound.le (-.const))
  | Gt -> constrain t 0 clock (Bound.lt (-.const))
  | Eq ->
      constrain t clock 0 (Bound.le const)
      && constrain t 0 clock (Bound.le (-.const))

let normalize_per_clock t ~k =
  let bound_for i = if i = 0 then 0.0 else k.(i) in
  let changed = ref false in
  for i = 0 to t.dim - 1 do
    for j = 0 to t.dim - 1 do
      if i <> j then
        match t.m.(i).(j) with
        | Bound.Inf -> ()
        | Bound.Bound (v, _) ->
            if i > 0 && v > bound_for i then begin
              t.m.(i).(j) <- Bound.infinity_;
              changed := true
            end
            else if j > 0 && v < -.bound_for j then begin
              t.m.(i).(j) <- Bound.lt (-.bound_for j);
              changed := true
            end
    done
  done;
  if !changed then canonicalize t
