(** Flow maps.

    The paper's flow map [f_v] gives a differential equation
    [~x' = f_v(~x)] per location (Section II-A, item 4). Two concrete
    forms cover the paper and its case study:

    - {!Rates}: constant-slope flows ([x' = c]). All clock variables of
      the design-pattern automata, and the ventilator cylinder height of
      Fig. 2, are of this form. Constant-rate flows admit exact
      boundary-crossing computation and an exact timed-automaton view for
      the model checker.
    - {!Ode}: an arbitrary vector field evaluated numerically (the
      executor integrates with explicit Euler and boundary bisection).
      Used for physical dynamics such as the patient's SpO2 level. It
      declares the variables it reads and the variables it drives, and
      its function works on [float array]s in the order of those lists,
      so the executor resolves every name once, when it compiles the
      location, and an Euler step of it looks up no name. *)

type ode = {
  reads : Var.t list;
  drives : Var.t list;
  f : float -> float array -> float array -> unit;
}

type t = Rates of (Var.t * float) list | Ode of ode

(** All declared clocks advance at rate 1 and everything else is frozen. *)
let clocks vars = Rates (List.map (fun v -> (v, 1.0)) vars)

let frozen = Rates []

let derivatives flow ~time valuation =
  match flow with
  | Rates rates -> rates
  | Ode o ->
      let inputs = Array.of_list (List.map (Valuation.get valuation) o.reads) in
      let derivs = Array.make (List.length o.drives) 0.0 in
      o.f time inputs derivs;
      List.mapi (fun j var -> (var, derivs.(j))) o.drives

let rate_of flow ~time valuation var =
  let rates = derivatives flow ~time valuation in
  match List.assoc_opt var rates with Some r -> r | None -> 0.0

let is_constant_rate = function Rates _ -> true | Ode _ -> false

(** Static view of the rate table: [Some rates] for a {!Rates} flow,
    [None] for an {!Ode}, whose derivatives are computed. *)
let constant_rates = function Rates rates -> Some rates | Ode _ -> None

let reads = function Rates _ -> [] | Ode o -> o.reads

let vars = function
  | Rates rates -> Var.Set.of_list (List.map fst rates)
  | Ode o -> Var.Set.of_list (o.reads @ o.drives)

(* A [Rates] flow as an [Ode] that reads nothing. *)
let as_ode = function
  | Ode o -> o
  | Rates rates ->
      let slopes = Array.of_list (List.map snd rates) in
      {
        reads = [];
        drives = List.map fst rates;
        f = (fun _ _ derivs -> Array.blit slopes 0 derivs 0 (Array.length slopes));
      }

(** [combine f g] evolves the (disjoint) variables of both flows
    simultaneously; used by elaboration, where the data state variables of
    the elaborated automaton keep their parent-location dynamics while the
    child automaton's variables follow the child flow. Combined with an
    {!Ode}, the result splits its arrays on every call, so it allocates;
    no shipped system combines one. *)
let combine f g =
  match (f, g) with
  | Rates a, Rates b -> Rates (a @ b)
  | _ ->
      let a = as_ode f and b = as_ode g in
      let na = List.length a.reads and da = List.length a.drives in
      let nb = List.length b.reads and db = List.length b.drives in
      Ode
        {
          reads = a.reads @ b.reads;
          drives = a.drives @ b.drives;
          f =
            (fun time inputs derivs ->
              let da_out = Array.make da 0.0 and db_out = Array.make db 0.0 in
              a.f time (Array.sub inputs 0 na) da_out;
              b.f time (Array.sub inputs na nb) db_out;
              Array.blit da_out 0 derivs 0 da;
              Array.blit db_out 0 derivs da db);
        }

let pp ppf = function
  | Rates [] -> Fmt.string ppf "frozen"
  | Rates rates ->
      Fmt.list ~sep:(Fmt.any ", ")
        (fun ppf (v, r) -> Fmt.pf ppf "%s'=%g" v r)
        ppf rates
  | Ode o ->
      Fmt.pf ppf "<ode: %a' from %a>"
        (Fmt.list ~sep:(Fmt.any ",") Fmt.string) o.drives
        (Fmt.list ~sep:(Fmt.any ",") Fmt.string) o.reads
