(** The lease-based design pattern automata (Section IV-A).

    Builders for the three roles — Supervisor ξ0 ([Asupvsr], Fig. 3),
    Initializer ξN ([Ainitzr], Fig. 5a) and Participant ξi
    ([Aptcpnt,i], Fig. 5b) — parameterized by the configuration constants
    of {!Params.t}.

    The supervisor is one {e session}: the request edge out of
    "Fall-Back", then one link per ξ1..ξN that grants, leases and aborts
    ξi and cancels back down. {!session} builds it for any initiator ξk
    and {!initializer_body} builds the Initializer without its
    "Fall-Back"; both name every other location through [~at]. The
    pattern uses them with [Fun.id]; {!Multi} builds its per-initiator
    sessions and dual-role entities from the same two functions.

    Where the paper compresses a receive-then-send step into one
    "transition", we materialize its footnote 2: an intermediate
    zero-dwell location whose egress edge carries the send label
    ("Grant …", "Send Cancel …", …). These instants dwell for 0 time
    (the executor fires their eager egress in the same instant).

    Reconstructions where the paper's figures are only sketched:

    - Participants confirm completed exits with an uplink event
      [evt_<p>_to_s_exited] (sent on the Exiting → Fall-Back step); the
      Initializer confirms aborts and lease expirations with
      [evt_<N>_to_s_exit], which the paper's abort-scenario analysis
      names explicitly. The supervisor descends its cancel/abort chain
      only on such confirmations — descending blindly after a timeout
      could order exits wrongly when a cancel is lost, exactly the
      failure mode the paper's §V scenario discusses.
    - While waiting for a confirmation the supervisor retransmits the
      cancel/abort every T^max_wait.
    - The supervisor carries its own lease: a session clock [ls] started
      when it leaves "Fall-Back"; when [ls] reaches
      T^max_wait + T^max_LS1 — the Theorem 1 bound by which every
      remote entity has provably self-reset — it abandons the chain and
      returns to "Fall-Back".

    The [~lease:false] variants reproduce the paper's "without Lease"
    baseline trials: the risky-core lease-expiry transitions of the
    remote entities are removed (their "Entering" procedure timers
    remain — only the risky-state leases are ablated, as in §V). *)

open Pte_hybrid

let clock = "c"
let session_clock = "ls"
let fallback_clock = "fb"
let approval_var = "approval"
let participation_var = "part"

(* location-name helpers *)
let fall_back = "Fall-Back"
let grant_loc name = "Grant " ^ name
let lease_loc name = "Lease " ^ name
let send_cancel_loc name = "Send Cancel " ^ name
let cancel_loc name = "Cancel " ^ name
let send_abort_loc name = "Send Abort " ^ name
let abort_loc name = "Abort " ^ name
let requesting = "Requesting"
let entering = "Entering"
let risky_core = "Risky Core"
let exiting1 = "Exiting 1"
let exiting2 = "Exiting 2"

let ge var bound = [ Guard.atom var Guard.Ge bound ]
let lt var bound = [ Guard.atom var Guard.Lt bound ]

let reset_clock = Reset.set clock 0.0

let edge ?guard ?reset ?label ?urgency src dst =
  Edge.make ?guard ?reset ?label ?urgency ~src ~dst ()

(** {1 Supervisor} *)

let supervisor_flow =
  Flow.Rates [ (clock, 1.0); (session_clock, 1.0); (fallback_clock, 1.0) ]

let supervisor_loc name = Location.make ~flow:supervisor_flow name

(* Leaving Fall-Back starts a session; entering it starts the cool-down. *)
let leave_fall_back =
  [ (clock, Reset.Set_const 0.0); (session_clock, Reset.Set_const 0.0) ]

let enter_fall_back =
  [ (clock, Reset.Set_const 0.0); (fallback_clock, Reset.Set_const 0.0) ]

let approval_fails = lt approval_var 0.5

type chain = {
  sweep : Edge.t list;
  edges : Edge.t list;
  locations : (Location.t list * Location.t list) list;
}

(* The names [at (loc ξi)] of links 1..k, each built once. Index 0 is
   "Fall-Back", where every descent ends. *)
let chain_names (p : Params.t) ~at ~k loc =
  Array.init (k + 1) (fun i ->
      if i = 0 then fall_back else at (loc p.Params.entities.(i - 1).Params.name))

(* Leave link ξi down to [below.(i − 1)]: the link under it, or
   Fall-Back (restarting the cool-down) from ξ1. *)
let descend ~label src below i =
  edge ~label ~reset:(if i = 1 then enter_fall_back else reset_clock) src
    below.(i - 1)

(* The session bailout, its guard built once per chain. *)
let bailout (p : Params.t) =
  let guard = ge session_clock (Params.risky_dwell_bound p) in
  fun src -> edge ~guard ~reset:enter_fall_back src fall_back

(* The cancel links of ξ1..ξk−1, under [at]: their entry names, and per
   link ξi its edges — send the cancel, descend on ξi's exited
   confirmation, retransmit every T^max_wait — and its locations. *)
let cancels (p : Params.t) ~at ~k ~bailout ~waited =
  let send_cancel = chain_names p ~at ~k:(k - 1) send_cancel_loc in
  let cancel = chain_names p ~at ~k:(k - 1) cancel_loc in
  let edges i =
    let me = p.Params.entities.(i - 1).Params.name in
    [
      edge ~label:(Label.Send (Events.cancel_down ~entity:me))
        ~reset:reset_clock send_cancel.(i) cancel.(i);
      bailout cancel.(i);
      descend ~label:(Label.Recv_lossy (Events.exited_up ~participant:me))
        cancel.(i) send_cancel i;
      edge ~guard:waited ~reset:reset_clock cancel.(i) send_cancel.(i);
    ]
  in
  (send_cancel, edges, fun i -> [ supervisor_loc send_cancel.(i); supervisor_loc cancel.(i) ])

(* Precautionary sweep: the ApprovalCondition failing while the
   supervisor believes all leases are clear means some remote entity
   may be stuck in a risky state (possible only when its lease was
   ablated, or after a chain was abandoned at the session bailout).
   Sweep a cancel chain through the participants, paced by the
   Fall-Back cool-down. A chain of one link has nothing to sweep. *)
let sweep (p : Params.t) send_cancel ~k =
  if k < 2 then []
  else
    [
      edge
        ~guard:(approval_fails @ ge fallback_clock p.Params.t_fb_min)
        ~reset:leave_fall_back fall_back send_cancel.(k - 1);
    ]

let links k = List.init k (fun idx -> idx + 1)

let session (p : Params.t) ~at ~k =
  let name i = p.Params.entities.(i - 1).Params.name in
  let initiator = name k in
  let names = chain_names p ~at ~k in
  let grant = names grant_loc and lease = names lease_loc in
  let send_abort = names send_abort_loc and abort = names abort_loc in
  let bailout = bailout p and waited = ge clock p.Params.t_wait_max in
  (* cancel links exist for participants only: the initiator cancels
     itself (it is never sent a cancel), so the reverse-order cancel
     chain starts at ξk−1; abort links exist for every ξi up to ξk *)
  let send_cancel, cancel_edges, cancel_locations =
    cancels p ~at ~k ~bailout ~waited
  in
  let link i =
    let me = name i and here = lease.(i) in
    (* instant: send the lease request (or the approval for ξk) *)
    let grant_label =
      if i < k then Events.lease_req ~participant:me
      else Events.approve ~initializer_:initiator
    in
    let lease_edges =
      bailout here
      :: edge ~guard:approval_fails ~reset:reset_clock here send_abort.(i)
      ::
      (if i < k then
         [
           edge ~label:(Label.Recv_lossy (Events.lease_approve ~participant:me))
             ~reset:reset_clock here grant.(i + 1);
           descend ~label:(Label.Recv_lossy (Events.lease_deny ~participant:me))
             here send_cancel i;
           edge ~label:(Label.Recv_lossy (Events.cancel_up ~initializer_:initiator))
             ~reset:reset_clock here send_cancel.(i);
           edge ~guard:waited ~reset:reset_clock here send_cancel.(i);
         ]
       else
         (* Lease ξk: the session is granted. The supervisor leaves only
            on the initiator's cancel/exit, on an approval failure (abort
            chain), or via the session bailout. Deliberately {e no} dwell
            timeout here: if the initiator's messages are all lost, the
            rescue must come from the remote entities' own leases — that
            is the property the with/without-lease trials contrast. *)
         [
           descend ~label:(Label.Recv_lossy (Events.cancel_up ~initializer_:initiator))
             here send_cancel k;
           descend ~label:(Label.Recv_lossy (Events.exit_up ~initializer_:initiator))
             here send_cancel k;
         ])
    in
    let abort_edges =
      let confirmation =
        if i = k then Events.exit_up ~initializer_:initiator
        else Events.exited_up ~participant:me
      in
      [
        edge ~label:(Label.Send (Events.abort_down ~entity:me)) ~reset:reset_clock
          send_abort.(i) abort.(i);
        bailout abort.(i);
        descend ~label:(Label.Recv_lossy confirmation) abort.(i) send_abort i;
        edge ~guard:waited ~reset:reset_clock abort.(i) send_abort.(i);
      ]
    in
    (edge ~label:(Label.Send grant_label) ~reset:reset_clock grant.(i) here
     :: lease_edges)
    @ abort_edges
    @ if i < k then cancel_edges i else []
  in
  let locations i =
    ( List.map supervisor_loc [ grant.(i); lease.(i); send_abort.(i); abort.(i) ],
      if i < k then cancel_locations i else [] )
  in
  ( edge ~label:(Label.Recv_lossy (Events.request ~initializer_:initiator))
      ~guard:(ge fallback_clock p.Params.t_fb_min @ ge approval_var 0.5)
      ~reset:leave_fall_back fall_back grant.(1),
    {
      sweep = sweep p send_cancel ~k;
      edges = List.concat_map link (links k);
      locations = List.map locations (links k);
    } )

let cancel_chain (p : Params.t) ~at ~k =
  let send_cancel, edges, locations =
    cancels p ~at ~k ~bailout:(bailout p) ~waited:(ge clock p.Params.t_wait_max)
  in
  {
    sweep = sweep p send_cancel ~k;
    edges = List.concat_map edges (links (k - 1));
    locations = List.map (fun i -> ([], locations i)) (links (k - 1));
  }

let supervisor_of (p : Params.t) ~locations ~edges =
  Automaton.make ~name:p.Params.supervisor
    ~vars:[ clock; session_clock; fallback_clock; approval_var ]
    ~locations:(supervisor_loc fall_back :: locations)
    ~edges ~initial_location:fall_back
    ~initial_values:[ (approval_var, 1.0) ]
    ()

(* ξ0 is ξN's session, entered from Fall-Back by the request or by the
   sweep into its own cancel chain; each link's locations are listed
   together. *)
let supervisor (p : Params.t) =
  let request, session = session p ~at:Fun.id ~k:(Params.n p) in
  supervisor_of p
    ~locations:(List.concat_map (fun (link, cancel) -> link @ cancel) session.locations)
    ~edges:(request :: session.sweep @ session.edges)

(** {1 Initializer} *)

let remote_flow = Flow.Rates [ (clock, 1.0) ]

let initializer_body ?(lease = true) (p : Params.t) ~index ~at =
  let e = p.Params.entities.(index - 1) in
  let me = e.Params.name in
  let loc ?(kind = Location.Safe) location_name =
    Location.make ~kind ~flow:remote_flow location_name
  in
  let send_req = at "Send Req" and requesting = at requesting in
  let entering = at entering and risky_core = at risky_core in
  let exiting1 = at exiting1 and exiting2 = at exiting2 in
  let send_cancel_req = at "Send Cancel (requesting)" in
  let send_cancel_entering = at "Send Cancel (entering)" in
  let send_exit_entering = at "Send Exit (entering)" in
  let send_cancel_risky = at "Send Cancel (risky)" in
  let send_exit_abort = at "Send Exit (abort)" in
  let lease_expired = at "Lease Expired" in
  let send_exit_expired = at "Send Exit (expired)" in
  let locations =
    [
      loc send_req; loc requesting; loc entering;
      loc send_cancel_req; loc send_cancel_entering; loc send_exit_entering;
      loc ~kind:Location.Risky risky_core;
      loc ~kind:Location.Risky send_cancel_risky;
      loc ~kind:Location.Risky send_exit_abort;
      loc ~kind:Location.Risky lease_expired;
      loc ~kind:Location.Risky send_exit_expired;
      loc ~kind:Location.Risky exiting1;
      loc exiting2;
    ]
  in
  let stim_request = Events.stim_request ~initializer_:me in
  let stim_cancel = Events.stim_cancel ~initializer_:me in
  let expiry_edges =
    if lease then
      [
        edge ~guard:(ge clock e.Params.t_run_max) ~reset:reset_clock risky_core
          lease_expired;
        edge ~label:(Label.Internal (Events.to_stop ~entity:me)) lease_expired
          send_exit_expired;
        edge ~label:(Label.Send (Events.exit_up ~initializer_:me))
          ~reset:reset_clock send_exit_expired exiting1;
      ]
    else []
  in
  let edges =
    [
      (* Fall-Back: the surgeon may request at any time (env stimulus). *)
      edge ~label:(Label.Recv stim_request) ~reset:reset_clock fall_back
        send_req;
      edge ~label:(Label.Send (Events.request ~initializer_:me))
        ~reset:reset_clock send_req requesting;
      (* Requesting *)
      edge ~label:(Label.Recv stim_cancel) ~reset:reset_clock requesting
        send_cancel_req;
      edge ~label:(Label.Send (Events.cancel_up ~initializer_:me))
        ~reset:reset_clock send_cancel_req fall_back;
      edge ~guard:(ge clock p.Params.t_req_max) ~reset:reset_clock requesting
        fall_back;
      edge ~label:(Label.Recv_lossy (Events.approve ~initializer_:me))
        ~reset:reset_clock requesting entering;
      (* Entering *)
      edge ~label:(Label.Recv stim_cancel) ~reset:reset_clock entering
        send_cancel_entering;
      edge ~label:(Label.Send (Events.cancel_up ~initializer_:me))
        ~reset:reset_clock send_cancel_entering exiting2;
      edge ~label:(Label.Recv_lossy (Events.abort_down ~entity:me))
        ~reset:reset_clock entering send_exit_entering;
      edge ~label:(Label.Send (Events.exit_up ~initializer_:me))
        ~reset:reset_clock send_exit_entering exiting2;
      edge ~guard:(ge clock e.Params.t_enter_max) ~reset:reset_clock entering
        risky_core;
      (* Risky Core *)
      edge ~label:(Label.Recv stim_cancel) ~reset:reset_clock risky_core
        send_cancel_risky;
      edge ~label:(Label.Send (Events.cancel_up ~initializer_:me))
        ~reset:reset_clock send_cancel_risky exiting1;
      edge ~label:(Label.Recv_lossy (Events.abort_down ~entity:me))
        ~reset:reset_clock risky_core send_exit_abort;
      edge ~label:(Label.Send (Events.exit_up ~initializer_:me))
        ~reset:reset_clock send_exit_abort exiting1;
    ]
    @ expiry_edges
    @ [
        (* Exiting: dwell exactly T_exit,N, then back to Fall-Back. *)
        edge ~guard:(ge clock e.Params.t_exit) ~reset:reset_clock exiting1
          fall_back;
        edge ~guard:(ge clock e.Params.t_exit) ~reset:reset_clock exiting2
          fall_back;
      ]
  in
  (locations, edges)

let initializer_ ?lease (p : Params.t) =
  let locations, edges =
    initializer_body ?lease p ~index:(Params.n p) ~at:Fun.id
  in
  Automaton.make ~name:(Params.initializer_ p).Params.name ~vars:[ clock ]
    ~locations:(Location.make ~flow:remote_flow fall_back :: locations)
    ~edges ~initial_location:fall_back ()

(** {1 Participant} *)

let participant ?(lease = true) (p : Params.t) ~index =
  if index < 1 || index > Params.n p - 1 then
    Fmt.invalid_arg "participant index %d out of range 1..%d" index
      (Params.n p - 1);
  let e = p.Params.entities.(index - 1) in
  let me = e.Params.name in
  let flow = Flow.Rates [ (clock, 1.0) ] in
  let loc ?(kind = Location.Safe) location_name =
    Location.make ~kind ~flow location_name
  in
  let l0 = "L0" in
  let send_approve = "Send Approve" in
  let send_deny = "Send Deny" in
  let lease_expired = "Lease Expired" in
  let send_exited_1 = "Send Exited 1" in
  let send_exited_2 = "Send Exited 2" in
  let locations =
    [
      loc fall_back; loc "Send Exited (idle)"; loc l0; loc send_approve;
      loc send_deny; loc entering;
      loc ~kind:Location.Risky risky_core;
      loc ~kind:Location.Risky lease_expired;
      loc ~kind:Location.Risky exiting1;
      loc exiting2; loc send_exited_1; loc send_exited_2;
    ]
  in
  let cancel = Events.cancel_down ~entity:me in
  let abort = Events.abort_down ~entity:me in
  let expiry_edges =
    if lease then
      [
        edge ~guard:(ge clock e.Params.t_run_max) ~reset:reset_clock risky_core
          lease_expired;
        edge ~label:(Label.Internal (Events.lease_expired ~entity:me))
          lease_expired exiting1;
      ]
    else []
  in
  let idle_ack = "Send Exited (idle)" in
  let edges =
    [
      edge ~label:(Label.Recv_lossy (Events.lease_req ~participant:me))
        ~reset:reset_clock fall_back l0;
      (* Idle acks: a cancel/abort reaching a participant that is already
         back in Fall-Back is answered with the exited confirmation, so a
         supervisor chain never stalls on a participant that has nothing
         left to do. (The Initializer deliberately has no such ack: the
         paper's §V scenario analyses the supervisor stalling on a lost
         evtξN→ξ0Exit.) *)
      edge ~label:(Label.Recv_lossy cancel) fall_back idle_ack;
      edge ~label:(Label.Recv_lossy abort) fall_back idle_ack;
      edge ~label:(Label.Send (Events.exited_up ~participant:me)) idle_ack
        fall_back;
      (* L0: decide on the ParticipationCondition. *)
      edge ~guard:(ge participation_var 0.5) l0 send_approve;
      edge ~guard:(lt participation_var 0.5) l0 send_deny;
      edge ~label:(Label.Send (Events.lease_approve ~participant:me))
        ~reset:reset_clock send_approve entering;
      edge ~label:(Label.Send (Events.lease_deny ~participant:me))
        ~reset:reset_clock send_deny fall_back;
      (* Entering *)
      edge ~label:(Label.Recv_lossy cancel) ~reset:reset_clock entering exiting2;
      edge ~label:(Label.Recv_lossy abort) ~reset:reset_clock entering exiting2;
      edge ~guard:(ge clock e.Params.t_enter_max) ~reset:reset_clock entering
        risky_core;
      (* Risky Core *)
      edge ~label:(Label.Recv_lossy cancel) ~reset:reset_clock risky_core
        exiting1;
      edge ~label:(Label.Recv_lossy abort) ~reset:reset_clock risky_core
        exiting1;
    ]
    @ expiry_edges
    @ [
        edge ~guard:(ge clock e.Params.t_exit) ~reset:reset_clock exiting1
          send_exited_1;
        edge ~label:(Label.Send (Events.exited_up ~participant:me))
          ~reset:reset_clock send_exited_1 fall_back;
        edge ~guard:(ge clock e.Params.t_exit) ~reset:reset_clock exiting2
          send_exited_2;
        edge ~label:(Label.Send (Events.exited_up ~participant:me))
          ~reset:reset_clock send_exited_2 fall_back;
      ]
  in
  Automaton.make ~name:me ~vars:[ clock; participation_var ] ~locations ~edges
    ~initial_location:fall_back
    ~initial_values:[ (participation_var, 1.0) ]
    ()

(** {1 Whole-system assembly} *)

(** The hybrid system H of Theorem 1: ξ0 as Supervisor, ξN as
    Initializer, ξ1..ξN−1 as Participants. [~lease:false] gives the
    baseline used by the paper's "without Lease" trials. *)
let system ?(lease = true) (p : Params.t) =
  let n = Params.n p in
  let participants =
    List.init (n - 1) (fun idx -> participant ~lease p ~index:(idx + 1))
  in
  System.make ~name:"pte-lease-pattern"
    ((supervisor p :: participants) @ [ initializer_ ~lease p ])

(** Names of the remote entities, in PTE order (for network setup). *)
let remotes (p : Params.t) =
  Array.to_list
    (Array.map (fun (e : Params.entity) -> e.Params.name) p.Params.entities)
