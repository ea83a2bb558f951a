(** Extension: multiple Initializers.

    Section IV-A fixes, "without loss of generality", a single
    Initializer ξN. This module implements the natural generalization
    the paper defers: a designated subset of the remote entities may
    initiate. When ξk requests, the Supervisor leases the {e prefix}
    ξ1 … ξk−1 in PTE order, then approves ξk; entities above ξk stay in
    Fall-Back (safe), so the PTE embedding for their pairs holds
    vacuously. Sessions are serialized by the Supervisor (requests
    arriving outside "Fall-Back" are ignored), and every session is
    protected by exactly the same leases as the single-Initializer
    pattern, so Theorem 1's argument applies per session provided:

    - the full-chain conditions c1–c7 hold (prefix instances of c2/c4–c7
      are implied), and
    - the c3 instance of {e every} initiator k holds:
      (k−1)·T^max_wait < T^max_req < T^max_LS1 — checked by {!check}.

    Both roles come from the pattern's own builders. The Supervisor is
    one {!Pattern.session} per initiator (locations suffixed
    ["@<initiator>"]) plus the Fall-Back sweep on a cancel chain of its
    own (["@sweep"]). A remote entity that can both participate and
    initiate gets a {e dual-role} automaton: its Participant automaton
    and the {!Pattern.initializer_body} under ["(init)"] names, glued at
    "Fall-Back". ξN, having no entity above it, is Initializer-only. *)

open Pte_hybrid

type config = {
  params : Params.t;
  initiators : int list;  (** 1-based entity indices, strictly increasing. *)
}

let validate_config { params; initiators } =
  let n = Params.n params in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  if initiators = [] then Error "no initiators designated"
  else if not (increasing initiators) then
    Error "initiators must be strictly increasing"
  else if List.exists (fun k -> k < 1 || k > n) initiators then
    Error "initiator index out of range"
  else if not (List.mem n initiators) then
    Error "the top entity must be an initiator (it has no participant role)"
  else Ok ()

(** Theorem 1 conditions for the multi-initializer system: the full-chain
    c1–c7 plus the per-initiator c3 instances. *)
let check ({ params; initiators } as config) =
  match validate_config config with
  | Error e -> Error e
  | Ok () ->
      let base = Constraints.check params in
      let t_ls1 = Params.t_ls1 params in
      let extra =
        List.map
          (fun k ->
            let lo = Float.of_int (k - 1) *. params.Params.t_wait_max in
            let ok = lo < params.Params.t_req_max && params.Params.t_req_max < t_ls1 in
            {
              Constraints.condition = Constraints.C3;
              ok;
              detail =
                Fmt.str "initiator %s (k=%d): %g < T_req = %g < %g%s"
                  params.Params.entities.(k - 1).Params.name k lo
                  params.Params.t_req_max t_ls1
                  (if ok then "" else " FAILS");
            })
          initiators
      in
      Ok (base @ extra)

let satisfies config =
  match check config with
  | Ok outcomes -> Constraints.all_ok outcomes
  | Error _ -> false

(* -------------------------------------------------------------------- *)
(* Dual-role remote entity                                               *)
(* -------------------------------------------------------------------- *)

let init_suffix name = name ^ " (init)"

(** The automaton of entity [index]: its Participant automaton (if
    index < N), plus the Initializer under [init_suffix] names when
    designated. ξN is Initializer-only (there is nothing above it to
    participate for). *)
let entity ?(lease = true) (config : config) ~index =
  let p = config.params in
  let n = Params.n p in
  let is_initiator = List.mem index config.initiators in
  if index = n then begin
    if not is_initiator then
      Fmt.invalid_arg
        "entity %d is the top of the chain but not an initiator (it would be unused)"
        index;
    Pattern.initializer_ ~lease p
  end
  else begin
    let participant = Pattern.participant ~lease p ~index in
    if not is_initiator then participant
    else begin
      let locations, edges =
        Pattern.initializer_body ~lease p ~index ~at:init_suffix
      in
      {
        participant with
        Automaton.locations = participant.Automaton.locations @ locations;
        edges = participant.Automaton.edges @ edges;
      }
    end
  end

(* -------------------------------------------------------------------- *)
(* Supervisor with one session per initiator                             *)
(* -------------------------------------------------------------------- *)

(* Fall-Back, one session per initiator (its locations suffixed
   "@<initiator>"), and the sweep's own cancel chain through every
   participant ("@sweep"). The sweep edge comes first, then each
   session's request and links, then the sweep chain. *)
let supervisor (config : config) =
  let p = config.params in
  let at initiator base = base ^ " @" ^ initiator in
  (* a session lists all its links' locations, then its cancel chain's *)
  let grouped (chain : Pattern.chain) =
    List.concat_map fst chain.locations @ List.concat_map snd chain.locations
  in
  let sessions =
    List.map
      (fun k -> Pattern.session p ~at:(at p.Params.entities.(k - 1).Params.name) ~k)
      config.initiators
  in
  let sweep = Pattern.cancel_chain p ~at:(at "sweep") ~k:(Params.n p) in
  Pattern.supervisor_of p
    ~locations:(List.concat_map (fun (_, s) -> grouped s) sessions @ grouped sweep)
    ~edges:
      (sweep.sweep
      @ List.concat_map (fun (request, s) -> request :: s.Pattern.edges) sessions
      @ sweep.edges)

(** The multi-initializer hybrid system. *)
let system ?(lease = true) (config : config) =
  (match validate_config config with
  | Ok () -> ()
  | Error e -> Fmt.invalid_arg "Multi.system: %s" e);
  let n = Params.n config.params in
  let remotes = List.init n (fun idx -> entity ~lease config ~index:(idx + 1)) in
  (* entities that are neither participants (index = N) nor initiators
     would be inert; validate_config allows ξN only as initiator *)
  System.make ~name:"pte-lease-multi" (supervisor config :: remotes)

(** Stimulus roots for driving each initiator (for scenarios/tests). *)
let stimuli (config : config) =
  List.map
    (fun k ->
      let name = config.params.Params.entities.(k - 1).Params.name in
      (name,
       Events.stim_request ~initializer_:name,
       Events.stim_cancel ~initializer_:name))
    config.initiators
