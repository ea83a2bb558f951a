(* Reference builders for the equality tests of [Pte_core.Pattern] and
   [Pte_core.Multi]: a verbatim copy of the supervisor, Initializer and
   system builders as they stood when each extension built its own
   grant/lease/cancel/abort chains and Initializer. The shared chain
   builders must produce the same automata: [Pattern] values [=] to
   these, [Multi] values [=] apart from the location order of a
   dual-role entity. Participants are not copied: both sides build them
   with [Pattern.participant]. *)

open Pte_hybrid
open Pte_core

let clock = "c"
let session_clock = "ls"
let fallback_clock = "fb"
let approval_var = "approval"

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

let supervisor (p : Params.t) =
  let n = Params.n p in
  let names =
    Array.map (fun (e : Params.entity) -> e.Params.name) p.Params.entities
  in
  let name i = names.(i - 1) (* 1-based, like the paper *) in
  let initializer_name = name n in
  let bailout_bound = Params.risky_dwell_bound p in
  let flow =
    Flow.Rates [ (clock, 1.0); (session_clock, 1.0); (fallback_clock, 1.0) ]
  in
  let loc ?(kind = Location.Safe) location_name =
    Location.make ~kind ~flow location_name
  in
  let locations =
    (* cancel-chain locations exist for participants only: the
       Initializer cancels itself (it is never sent a cancel), so the
       reverse-order cancel chain starts at ξN−1. Abort locations exist
       for every remote entity including ξN. *)
    [ loc fall_back ]
    @ List.concat
        (List.init n (fun idx ->
             let i = idx + 1 in
             [ loc (grant_loc (name i)); loc (lease_loc (name i));
               loc (send_abort_loc (name i)); loc (abort_loc (name i)) ]
             @
             if i < n then
               [ loc (send_cancel_loc (name i)); loc (cancel_loc (name i)) ]
             else []))
  in
  let to_fb ?guard ?label ?urgency src =
    edge ?guard ?label ?urgency
      ~reset:[ (clock, Reset.Set_const 0.0); (fallback_clock, Reset.Set_const 0.0) ]
      src fall_back
  in
  let bailout src = to_fb ~guard:(ge session_clock bailout_bound) src in
  let grant_edges i =
    (* instant: send the lease request (or the approval for ξN) *)
    let send_label =
      if i < n then Label.Send (Events.lease_req ~participant:(name i))
      else Label.Send (Events.approve ~initializer_:initializer_name)
    in
    [ edge ~label:send_label ~reset:reset_clock (grant_loc (name i))
        (lease_loc (name i)) ]
  in
  let lease_edges i =
    let here = lease_loc (name i) in
    let abort_here =
      edge ~guard:(lt approval_var 0.5) ~reset:reset_clock here
        (send_abort_loc (name i))
    in
    if i < n then
      [
        bailout here;
        abort_here;
        edge ~label:(Label.Recv_lossy (Events.lease_approve ~participant:(name i)))
          ~reset:reset_clock here
          (grant_loc (name (i + 1)));
        (if i = 1 then
           to_fb ~label:(Label.Recv_lossy (Events.lease_deny ~participant:(name i))) here
         else
           edge ~label:(Label.Recv_lossy (Events.lease_deny ~participant:(name i)))
             ~reset:reset_clock here
             (send_cancel_loc (name (i - 1))));
        edge ~label:(Label.Recv_lossy (Events.cancel_up ~initializer_:initializer_name))
          ~reset:reset_clock here
          (send_cancel_loc (name i));
        edge ~guard:(ge clock p.Params.t_wait_max) ~reset:reset_clock here
          (send_cancel_loc (name i));
      ]
    else
      (* Lease ξN: the session is granted. The supervisor leaves only on
         the initializer's cancel/exit, on an approval failure (abort
         chain), or via the session bailout. Deliberately {e no} dwell
         timeout here: if the initializer's messages are all lost, the
         rescue must come from the remote entities' own leases — that is
         the property the with/without-lease trials contrast. *)
      [
        bailout here;
        abort_here;
        edge ~label:(Label.Recv_lossy (Events.cancel_up ~initializer_:initializer_name))
          ~reset:reset_clock here
          (send_cancel_loc (name (n - 1)));
        edge ~label:(Label.Recv_lossy (Events.exit_up ~initializer_:initializer_name))
          ~reset:reset_clock here
          (send_cancel_loc (name (n - 1)));
      ]
  in
  let cancel_edges i =
    let dispatch =
      edge ~label:(Label.Send (Events.cancel_down ~entity:(name i)))
        ~reset:reset_clock
        (send_cancel_loc (name i))
        (cancel_loc (name i))
    in
    let here = cancel_loc (name i) in
    let confirmed =
      let label =
        Label.Recv_lossy (Events.exited_up ~participant:(name i))
      in
      if i = 1 then to_fb ~label here
      else edge ~label ~reset:reset_clock here (send_cancel_loc (name (i - 1)))
    in
    let retransmit =
      edge ~guard:(ge clock p.Params.t_wait_max) ~reset:reset_clock here
        (send_cancel_loc (name i))
    in
    [ dispatch; bailout here; confirmed; retransmit ]
  in
  let abort_edges i =
    let dispatch =
      edge ~label:(Label.Send (Events.abort_down ~entity:(name i)))
        ~reset:reset_clock
        (send_abort_loc (name i))
        (abort_loc (name i))
    in
    let here = abort_loc (name i) in
    let confirmation_label =
      if i = n then Label.Recv_lossy (Events.exit_up ~initializer_:initializer_name)
      else Label.Recv_lossy (Events.exited_up ~participant:(name i))
    in
    let confirmed =
      if i = 1 then to_fb ~label:confirmation_label here
      else
        edge ~label:confirmation_label ~reset:reset_clock here
          (send_abort_loc (name (i - 1)))
    in
    let retransmit =
      edge ~guard:(ge clock p.Params.t_wait_max) ~reset:reset_clock here
        (send_abort_loc (name i))
    in
    [ dispatch; bailout here; confirmed; retransmit ]
  in
  let grant_from_fb =
    edge
      ~label:(Label.Recv_lossy (Events.request ~initializer_:initializer_name))
      ~guard:(ge fallback_clock p.Params.t_fb_min @ ge approval_var 0.5)
      ~reset:
        [ (clock, Reset.Set_const 0.0); (session_clock, Reset.Set_const 0.0) ]
      fall_back (grant_loc (name 1))
  in
  (* Precautionary sweep: the ApprovalCondition failing while the
     supervisor believes all leases are clear means some remote entity
     may be stuck in a risky state (possible only when its lease was
     ablated, or after a chain was abandoned at the session bailout).
     Sweep a cancel chain through the participants, paced by the
     Fall-Back cool-down. *)
  let sweep_from_fb =
    edge
      ~guard:(lt approval_var 0.5 @ ge fallback_clock p.Params.t_fb_min)
      ~reset:
        [ (clock, Reset.Set_const 0.0); (session_clock, Reset.Set_const 0.0) ]
      fall_back
      (send_cancel_loc (name (n - 1)))
  in
  let edges =
    grant_from_fb :: sweep_from_fb
    :: List.concat
         (List.init n (fun idx ->
              let i = idx + 1 in
              grant_edges i @ lease_edges i @ abort_edges i
              @ if i < n then cancel_edges i else []))
  in
  Automaton.make ~name:p.Params.supervisor
    ~vars:[ clock; session_clock; fallback_clock; approval_var ]
    ~locations ~edges ~initial_location:fall_back
    ~initial_values:[ (approval_var, 1.0) ]
    ()

(** {1 Initializer} *)

let initializer_ ?(lease = true) (p : Params.t) =
  let e = Params.initializer_ p in
  let me = e.Params.name in
  let flow = Flow.Rates [ (clock, 1.0) ] in
  let loc ?(kind = Location.Safe) location_name =
    Location.make ~kind ~flow location_name
  in
  let send_req = "Send Req" in
  let send_cancel_req = "Send Cancel (requesting)" in
  let send_cancel_entering = "Send Cancel (entering)" in
  let send_exit_entering = "Send Exit (entering)" in
  let send_cancel_risky = "Send Cancel (risky)" in
  let send_exit_abort = "Send Exit (abort)" in
  let lease_expired = "Lease Expired" in
  let send_exit_expired = "Send Exit (expired)" in
  let locations =
    [
      loc fall_back; loc send_req; loc requesting; loc entering;
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
  Automaton.make ~name:me ~vars:[ clock ] ~locations ~edges
    ~initial_location:fall_back ()

(** {1 Whole-system assembly} *)

let system ?(lease = true) (p : Params.t) =
  let n = Params.n p in
  let participants =
    List.init (n - 1) (fun idx -> Pattern.participant ~lease p ~index:(idx + 1))
  in
  System.make ~name:"pte-lease-pattern"
    ((supervisor p :: participants) @ [ initializer_ ~lease p ])

(* -------------------------------------------------------------------- *)
(* Multi: dual-role remote entity                                        *)
(* -------------------------------------------------------------------- *)

let init_suffix name = name ^ " (init)"

let initiator_fragment ?(lease = true) (p : Params.t) ~index =
  let e = p.Params.entities.(index - 1) in
  let me = e.Params.name in
  let c = clock in
  let ge v bound = [ Guard.atom v Guard.Ge bound ] in
  let reset_clock = Reset.set c 0.0 in
  let flow = Flow.Rates [ (c, 1.0) ] in
  let loc ?(kind = Location.Safe) name = Location.make ~kind ~flow (init_suffix name) in
  let edge ?guard ?reset ?label src dst =
    Edge.make ?guard ?reset ?label ~src ~dst ()
  in
  let fb = fall_back in
  let i name = init_suffix name in
  let locations =
    [
      loc "Send Req"; loc "Requesting"; loc "Send Cancel (requesting)";
      loc "Entering"; loc "Send Cancel (entering)"; loc "Send Exit (entering)";
      loc ~kind:Location.Risky "Risky Core";
      loc ~kind:Location.Risky "Send Cancel (risky)";
      loc ~kind:Location.Risky "Send Exit (abort)";
      loc ~kind:Location.Risky "Lease Expired";
      loc ~kind:Location.Risky "Send Exit (expired)";
      loc ~kind:Location.Risky "Exiting 1";
      loc "Exiting 2";
    ]
  in
  let expiry_edges =
    if lease then
      [
        edge ~guard:(ge c e.Params.t_run_max) ~reset:reset_clock
          (i "Risky Core") (i "Lease Expired");
        edge ~label:(Label.Internal (Events.to_stop ~entity:me))
          (i "Lease Expired") (i "Send Exit (expired)");
        edge ~label:(Label.Send (Events.exit_up ~initializer_:me))
          ~reset:reset_clock (i "Send Exit (expired)") (i "Exiting 1");
      ]
    else []
  in
  let edges =
    [
      edge ~label:(Label.Recv (Events.stim_request ~initializer_:me))
        ~reset:reset_clock fb (i "Send Req");
      edge ~label:(Label.Send (Events.request ~initializer_:me))
        ~reset:reset_clock (i "Send Req") (i "Requesting");
      edge ~label:(Label.Recv (Events.stim_cancel ~initializer_:me))
        ~reset:reset_clock (i "Requesting") (i "Send Cancel (requesting)");
      edge ~label:(Label.Send (Events.cancel_up ~initializer_:me))
        ~reset:reset_clock (i "Send Cancel (requesting)") fb;
      edge ~guard:(ge c p.Params.t_req_max) ~reset:reset_clock (i "Requesting") fb;
      edge ~label:(Label.Recv_lossy (Events.approve ~initializer_:me))
        ~reset:reset_clock (i "Requesting") (i "Entering");
      edge ~label:(Label.Recv (Events.stim_cancel ~initializer_:me))
        ~reset:reset_clock (i "Entering") (i "Send Cancel (entering)");
      edge ~label:(Label.Send (Events.cancel_up ~initializer_:me))
        ~reset:reset_clock (i "Send Cancel (entering)") (i "Exiting 2");
      edge ~label:(Label.Recv_lossy (Events.abort_down ~entity:me))
        ~reset:reset_clock (i "Entering") (i "Send Exit (entering)");
      edge ~label:(Label.Send (Events.exit_up ~initializer_:me))
        ~reset:reset_clock (i "Send Exit (entering)") (i "Exiting 2");
      edge ~guard:(ge c e.Params.t_enter_max) ~reset:reset_clock (i "Entering")
        (i "Risky Core");
      edge ~label:(Label.Recv (Events.stim_cancel ~initializer_:me))
        ~reset:reset_clock (i "Risky Core") (i "Send Cancel (risky)");
      edge ~label:(Label.Send (Events.cancel_up ~initializer_:me))
        ~reset:reset_clock (i "Send Cancel (risky)") (i "Exiting 1");
      edge ~label:(Label.Recv_lossy (Events.abort_down ~entity:me))
        ~reset:reset_clock (i "Risky Core") (i "Send Exit (abort)");
      edge ~label:(Label.Send (Events.exit_up ~initializer_:me))
        ~reset:reset_clock (i "Send Exit (abort)") (i "Exiting 1");
    ]
    @ expiry_edges
    @ [
        edge ~guard:(ge c e.Params.t_exit) ~reset:reset_clock (i "Exiting 1") fb;
        edge ~guard:(ge c e.Params.t_exit) ~reset:reset_clock (i "Exiting 2") fb;
      ]
  in
  (locations, edges)

let entity ?(lease = true) (config : Multi.config) ~index =
  let p = config.Multi.params in
  let n = Params.n p in
  let is_initiator = List.mem index config.Multi.initiators in
  if index = n then begin
    if not is_initiator then
      Fmt.invalid_arg
        "entity %d is the top of the chain but not an initiator (it would be unused)"
        index;
    initializer_ ~lease p
  end
  else begin
    let participant = Pattern.participant ~lease p ~index in
    if not is_initiator then participant
    else begin
      let locations, edges = initiator_fragment ~lease p ~index in
      {
        participant with
        Automaton.locations = participant.Automaton.locations @ locations;
        edges = participant.Automaton.edges @ edges;
      }
    end
  end

(* -------------------------------------------------------------------- *)
(* Multi: supervisor with one chain per initiator                        *)
(* -------------------------------------------------------------------- *)

let session_loc base ~initiator = base ^ " @" ^ initiator

let multi_supervisor (config : Multi.config) =
  let p = config.Multi.params in
  let n = Params.n p in
  let name i = p.Params.entities.(i - 1).Params.name in
  let bailout_bound = Params.risky_dwell_bound p in
  let clock = clock and ls = session_clock
  and fb_clock = fallback_clock and approval = approval_var in
  let flow = Flow.Rates [ (clock, 1.0); (ls, 1.0); (fb_clock, 1.0) ] in
  let loc location_name = Location.make ~flow location_name in
  let ge v bound = [ Guard.atom v Guard.Ge bound ] in
  let lt v bound = [ Guard.atom v Guard.Lt bound ] in
  let reset_clock = Reset.set clock 0.0 in
  let edge ?guard ?reset ?label src dst = Edge.make ?guard ?reset ?label ~src ~dst () in
  let to_fb ?guard ?label src =
    edge ?guard ?label
      ~reset:[ (clock, Reset.Set_const 0.0); (fb_clock, Reset.Set_const 0.0) ]
      src fall_back
  in
  let bailout src = to_fb ~guard:(ge ls bailout_bound) src in
  (* one grant/lease/cancel/abort chain per session (initiator); the
     sweep is a cancel chain through all participants keyed "sweep" *)
  let chains =
    List.map (fun k -> (name k, k)) config.Multi.initiators @ [ ("sweep", n) ]
  in
  let grant_loc s i = session_loc (grant_loc (name i)) ~initiator:s in
  let lease_loc s i = session_loc (lease_loc (name i)) ~initiator:s in
  let send_cancel s i = session_loc (send_cancel_loc (name i)) ~initiator:s in
  let cancel_loc s i = session_loc (cancel_loc (name i)) ~initiator:s in
  let send_abort s i = session_loc (send_abort_loc (name i)) ~initiator:s in
  let abort_loc s i = session_loc (abort_loc (name i)) ~initiator:s in
  let session_locations (s, k) =
    let is_sweep = String.equal s "sweep" in
    (if is_sweep then []
     else
       List.concat
         (List.init k (fun idx ->
              let i = idx + 1 in
              [ loc (grant_loc s i); loc (lease_loc s i); loc (send_abort s i);
                loc (abort_loc s i) ])))
    @ List.concat
        (List.init (k - 1) (fun idx ->
             let i = idx + 1 in
             [ loc (send_cancel s i); loc (cancel_loc s i) ]))
  in
  let cancel_chain_edges (s, _k) i =
    (* Send Cancel ξi -> Cancel ξi -> (exited) descend / retransmit *)
    let dispatch =
      edge ~label:(Label.Send (Events.cancel_down ~entity:(name i)))
        ~reset:reset_clock (send_cancel s i) (cancel_loc s i)
    in
    let confirmed =
      let label = Label.Recv_lossy (Events.exited_up ~participant:(name i)) in
      if i = 1 then to_fb ~label (cancel_loc s i)
      else edge ~label ~reset:reset_clock (cancel_loc s i) (send_cancel s (i - 1))
    in
    let retransmit =
      edge ~guard:(ge clock p.Params.t_wait_max) ~reset:reset_clock
        (cancel_loc s i) (send_cancel s i)
    in
    [ dispatch; bailout (cancel_loc s i); confirmed; retransmit ]
  in
  let session_edges (s, k) =
    let is_sweep = String.equal s "sweep" in
    if is_sweep then
      List.concat (List.init (k - 1) (fun idx -> cancel_chain_edges (s, k) (idx + 1)))
    else begin
      let initiator_name = s in
      let grant_edges i =
        let send_label =
          if i < k then Label.Send (Events.lease_req ~participant:(name i))
          else Label.Send (Events.approve ~initializer_:initiator_name)
        in
        [ edge ~label:send_label ~reset:reset_clock (grant_loc s i) (lease_loc s i) ]
      in
      let lease_edges i =
        let here = lease_loc s i in
        let abort_here =
          edge ~guard:(lt approval 0.5) ~reset:reset_clock here (send_abort s i)
        in
        if i < k then
          [
            bailout here;
            abort_here;
            edge
              ~label:(Label.Recv_lossy (Events.lease_approve ~participant:(name i)))
              ~reset:reset_clock here
              (grant_loc s (i + 1));
            (if i = 1 then
               to_fb
                 ~label:(Label.Recv_lossy (Events.lease_deny ~participant:(name i)))
                 here
             else
               edge
                 ~label:(Label.Recv_lossy (Events.lease_deny ~participant:(name i)))
                 ~reset:reset_clock here
                 (send_cancel s (i - 1)));
            edge
              ~label:(Label.Recv_lossy (Events.cancel_up ~initializer_:initiator_name))
              ~reset:reset_clock here (send_cancel s i);
            edge ~guard:(ge clock p.Params.t_wait_max) ~reset:reset_clock here
              (send_cancel s i);
          ]
        else begin
          (* granted: k = 1 sessions have no participants to cancel *)
          let after_exit label =
            if k = 1 then to_fb ~label here
            else edge ~label ~reset:reset_clock here (send_cancel s (k - 1))
          in
          [
            bailout here;
            abort_here;
            after_exit (Label.Recv_lossy (Events.cancel_up ~initializer_:initiator_name));
            after_exit (Label.Recv_lossy (Events.exit_up ~initializer_:initiator_name));
          ]
        end
      in
      let abort_edges i =
        let dispatch =
          edge ~label:(Label.Send (Events.abort_down ~entity:(name i)))
            ~reset:reset_clock (send_abort s i) (abort_loc s i)
        in
        let confirmation =
          if i = k then Label.Recv_lossy (Events.exit_up ~initializer_:initiator_name)
          else Label.Recv_lossy (Events.exited_up ~participant:(name i))
        in
        let confirmed =
          if i = 1 then to_fb ~label:confirmation (abort_loc s i)
          else edge ~label:confirmation ~reset:reset_clock (abort_loc s i)
              (send_abort s (i - 1))
        in
        let retransmit =
          edge ~guard:(ge clock p.Params.t_wait_max) ~reset:reset_clock
            (abort_loc s i) (send_abort s i)
        in
        [ dispatch; bailout (abort_loc s i); confirmed; retransmit ]
      in
      let request =
        edge
          ~label:(Label.Recv_lossy (Events.request ~initializer_:initiator_name))
          ~guard:(ge fb_clock p.Params.t_fb_min @ ge approval 0.5)
          ~reset:[ (clock, Reset.Set_const 0.0); (ls, Reset.Set_const 0.0) ]
          fall_back (grant_loc s 1)
      in
      request
      :: List.concat
           (List.init k (fun idx ->
                let i = idx + 1 in
                grant_edges i @ lease_edges i @ abort_edges i
                @ if i < k then cancel_chain_edges (s, k) i else []))
    end
  in
  let sweep =
    if n >= 2 then
      [
        edge
          ~guard:(lt approval 0.5 @ ge fb_clock p.Params.t_fb_min)
          ~reset:[ (clock, Reset.Set_const 0.0); (ls, Reset.Set_const 0.0) ]
          fall_back
          (send_cancel "sweep" (n - 1));
      ]
    else []
  in
  Automaton.make ~name:p.Params.supervisor
    ~vars:[ clock; ls; fb_clock; approval ]
    ~locations:(loc fall_back :: List.concat_map session_locations chains)
    ~edges:(sweep @ List.concat_map session_edges chains)
    ~initial_location:fall_back
    ~initial_values:[ (approval, 1.0) ]
    ()

let multi_system ?(lease = true) (config : Multi.config) =
  (match Multi.validate_config config with
  | Ok () -> ()
  | Error e -> Fmt.invalid_arg "Multi.system: %s" e);
  let n = Params.n config.Multi.params in
  let remotes = List.init n (fun idx -> entity ~lease config ~index:(idx + 1)) in
  System.make ~name:"pte-lease-multi" (multi_supervisor config :: remotes)
