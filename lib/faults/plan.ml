(** The fault-plan DSL: deterministic, serializable scripts of targeted
    faults.

    Theorem 1 quantifies over {e arbitrary} message loss, but stochastic
    channels only ever sample that quantifier. A fault plan makes it
    enumerable and replayable: "lose exactly the 2nd cancel on the
    laser's downlink", "crash the ventilator for 4 s at t=30",
    "run the laser's clocks 20% fast". Plans round-trip through JSON, so
    any violation found by a fuzzing campaign can be checked in as a
    minimal replayable artifact. *)

module Json = Pte_util.Json

type direction = Up | Down

(** Which link of the star a packet fault sits on: the [entity]'s uplink
    (remote → supervisor) or downlink (supervisor → remote). *)
type site = { entity : string; direction : direction }

type occurrence =
  | Nth of int  (** the nth matching frame on that link, 0-based *)
  | Every

(** Restrict a fault to frames sent in [\[after, before)]. *)
type window = { after : float; before : float }

type packet_action =
  | Drop
  | Corrupt  (** delivered with bit errors; the CRC discard path eats it *)
  | Delay of float  (** extra delivery delay, seconds *)
  | Duplicate

type packet_fault = {
  site : site;
  root : string option;  (** [None] matches every event root *)
  occurrence : occurrence;
  window : window option;
  action : packet_action;
}

type node_fault =
  | Crash of { entity : string; at : float; blackout : float }
      (** fail-stop at [at]; reboot to the initial location after
          [blackout] seconds *)
  | Clock_drift of { entity : string; factor : float }
      (** the entity's local clocks advance [factor] seconds per second *)

(** One step of a piecewise-constant loss profile: from [at] on, the
    channel runs at average loss rate [loss] (0 = perfect; realized as
    the Table-I Gilbert–Elliott channel otherwise). *)
type loss_step = { at : float; loss : float }

type t = {
  packet_faults : packet_fault list;
  node_faults : node_fault list;
  loss_profile : loss_step list;
      (** time-varying channel steps, sorted by [at]; [[]] keeps the
          trial's configured static loss model. *)
}

let empty = { packet_faults = []; node_faults = []; loss_profile = [] }

let is_empty t =
  t.packet_faults = [] && t.node_faults = [] && t.loss_profile = []

let packet ?root ?window ~entity ~direction ~occurrence action =
  { site = { entity; direction }; root; occurrence; window; action }

let drop_nth ~entity ~direction ~root n =
  packet ~root ~entity ~direction ~occurrence:(Nth n) Drop

let drop_every ~entity ~direction ~root =
  packet ~root ~entity ~direction ~occurrence:Every Drop

let crash ~entity ~at ~blackout = Crash { entity; at; blackout }
let clock_drift ~entity ~factor = Clock_drift { entity; factor }
let loss_step ~at ~loss = { at; loss }

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

let direction_to_string = function Up -> "up" | Down -> "down"

let direction_of_string = function
  | "up" -> Ok Up
  | "down" -> Ok Down
  | s -> Error (Printf.sprintf "plan: unknown direction %S" s)

let packet_fault_to_json f =
  let base =
    [
      ("entity", Json.Str f.site.entity);
      ("direction", Json.Str (direction_to_string f.site.direction));
    ]
  in
  let root = match f.root with None -> [] | Some r -> [ ("root", Json.Str r) ] in
  let occurrence =
    match f.occurrence with
    | Nth n -> [ ("occurrence", Json.Num (Float.of_int n)) ]
    | Every -> [ ("occurrence", Json.Str "every") ]
  in
  let window =
    match f.window with
    | None -> []
    | Some w -> [ ("after", Json.Num w.after); ("before", Json.Num w.before) ]
  in
  let action =
    match f.action with
    | Drop -> [ ("action", Json.Str "drop") ]
    | Corrupt -> [ ("action", Json.Str "corrupt") ]
    | Duplicate -> [ ("action", Json.Str "duplicate") ]
    | Delay d -> [ ("action", Json.Str "delay"); ("delay", Json.Num d) ]
  in
  Json.Obj (base @ root @ occurrence @ window @ action)

let node_fault_to_json = function
  | Crash { entity; at; blackout } ->
      Json.Obj
        [
          ("fault", Json.Str "crash");
          ("entity", Json.Str entity);
          ("at", Json.Num at);
          ("blackout", Json.Num blackout);
        ]
  | Clock_drift { entity; factor } ->
      Json.Obj
        [
          ("fault", Json.Str "clock-drift");
          ("entity", Json.Str entity);
          ("factor", Json.Num factor);
        ]

let loss_step_to_json (s : loss_step) =
  Json.Obj [ ("at", Json.Num s.at); ("loss", Json.Num s.loss) ]

let to_json t =
  Json.Obj
    ([
       ("packet", Json.Arr (List.map packet_fault_to_json t.packet_faults));
       ("node", Json.Arr (List.map node_fault_to_json t.node_faults));
     ]
    (* emitted only when set, so plans predating the profile field
       render byte-identically *)
    @
    match t.loss_profile with
    | [] -> []
    | steps -> [ ("loss_profile", Json.Arr (List.map loss_step_to_json steps)) ])

let ( let* ) = Result.bind

let str_field name json =
  match Option.bind (Json.member name json) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "plan: missing or bad %S" name)

let finite name v =
  if Float.is_finite v then Ok v
  else Error (Printf.sprintf "plan: %S must be a finite number" name)

let num_field name json =
  match Option.bind (Json.member name json) Json.to_float with
  | Some v -> finite name v
  | None -> Error (Printf.sprintf "plan: missing or bad %S" name)

(* an optional number: absent is [None], present must be finite *)
let opt_num_field name json =
  match Json.member name json with
  | None -> Ok None
  | Some _ -> Result.map Option.some (num_field name json)

(* [v] when [ok v], else the error [what] *)
let require ok what v = if ok v then Ok v else Error ("plan: " ^ what)

let packet_fault_of_json json =
  let* entity = str_field "entity" json in
  let* direction = Result.bind (str_field "direction" json) direction_of_string in
  let root = Option.bind (Json.member "root" json) Json.to_str in
  let* occurrence =
    match Json.member "occurrence" json with
    | Some (Json.Str "every") -> Ok Every
    | Some j -> (
        match Json.to_int j with
        | Some n when n >= 0 -> Ok (Nth n)
        | _ -> Error "plan: occurrence must be a non-negative int or \"every\"")
    | None -> Error "plan: missing \"occurrence\""
  in
  let* after = opt_num_field "after" json in
  let* before = opt_num_field "before" json in
  let window =
    match (after, before) with
    | None, None -> None
    | after, before ->
        Some
          {
            after = Option.value after ~default:0.0;
            before = Option.value before ~default:Float.infinity;
          }
  in
  let* action =
    match str_field "action" json with
    | Ok "drop" -> Ok Drop
    | Ok "corrupt" -> Ok Corrupt
    | Ok "duplicate" -> Ok Duplicate
    | Ok "delay" ->
        let* d = num_field "delay" json in
        let* d = require (fun d -> d >= 0.0) "\"delay\" must be >= 0" d in
        Ok (Delay d)
    | Ok s -> Error (Printf.sprintf "plan: unknown action %S" s)
    | Error _ as e -> e
  in
  Ok { site = { entity; direction }; root; occurrence; window; action }

let node_fault_of_json json =
  let* kind = str_field "fault" json in
  let* entity = str_field "entity" json in
  match kind with
  | "crash" ->
      let* at = num_field "at" json in
      let* at = require (fun at -> at >= 0.0) "crash \"at\" must be >= 0" at in
      let* blackout = num_field "blackout" json in
      let* blackout =
        require (fun b -> b > 0.0) "crash \"blackout\" must be > 0" blackout
      in
      Ok (Crash { entity; at; blackout })
  | "clock-drift" ->
      let* factor = num_field "factor" json in
      let* factor =
        require (fun f -> f > 0.0) "clock-drift \"factor\" must be > 0" factor
      in
      Ok (Clock_drift { entity; factor })
  | s -> Error (Printf.sprintf "plan: unknown node fault %S" s)

let list_field name of_json json =
  match Json.member name json with
  | None | Some (Json.Arr []) -> Ok []
  | Some (Json.Arr items) ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let* v = of_json item in
          Ok (v :: acc))
        items (Ok [])
  | Some _ -> Error (Printf.sprintf "plan: %S must be an array" name)

let loss_step_of_json json =
  let* at = num_field "at" json in
  let* loss = num_field "loss" json in
  if at < 0.0 then Error "plan: loss_profile step must have at >= 0"
  else if loss < 0.0 || loss > 1.0 then
    Error "plan: loss_profile step loss must be in [0, 1]"
  else Ok { at; loss }

let keys = [ "packet"; "node"; "loss_profile" ]

let of_json json =
  match json with
  | Json.Obj fields ->
      let* () =
        match
          List.find_opt (fun (k, _) -> not (List.mem k keys)) fields
        with
        | Some (k, _) ->
            Error
              (Printf.sprintf "plan: unknown key %S (expected %s)" k
                 (String.concat ", " keys))
        | None -> Ok ()
      in
      let* packet_faults = list_field "packet" packet_fault_of_json json in
      let* node_faults = list_field "node" node_fault_of_json json in
      let* loss_profile = list_field "loss_profile" loss_step_of_json json in
      Ok { packet_faults; node_faults; loss_profile }
  | _ -> Error "plan: expected a JSON object"

let check_entities t ~links ~automata =
  let lacks known entity = not (List.exists (String.equal entity) known) in
  match
    List.find_opt (fun f -> lacks links f.site.entity) t.packet_faults
  with
  | Some f ->
      Error
        (Printf.sprintf
           "plan: a packet fault names entity %S, which has no link (links: %s)"
           f.site.entity (String.concat ", " links))
  | None -> (
      match
        List.find_map
          (function
            | Crash { entity; _ } when lacks automata entity ->
                Some ("a crash", entity)
            | Clock_drift { entity; _ } when lacks automata entity ->
                Some ("a clock drift", entity)
            | _ -> None)
          t.node_faults
      with
      | Some (what, entity) ->
          Error
            (Printf.sprintf
               "plan: %s names entity %S, which the system lacks (entities: %s)"
               what entity (String.concat ", " automata))
      | None -> Ok ())

let to_string t = Json.to_string (to_json t)
let of_string s = Result.bind (Json.of_string s) of_json

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = in_channel_length ic in
          of_string (really_input_string ic n))

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_packet_fault ppf f =
  let act =
    match f.action with
    | Drop -> "drop"
    | Corrupt -> "corrupt"
    | Duplicate -> "duplicate"
    | Delay d -> Fmt.str "delay+%gs" d
  in
  let occ =
    match f.occurrence with Nth n -> Fmt.str "#%d" n | Every -> "every"
  in
  Fmt.pf ppf "%s %s of %s on %s %slink%a" act occ
    (Option.value f.root ~default:"any root")
    f.site.entity
    (match f.site.direction with Up -> "up" | Down -> "down")
    (Fmt.option (fun ppf w -> Fmt.pf ppf " in [%g,%g)" w.after w.before))
    f.window

let pp_node_fault ppf = function
  | Crash { entity; at; blackout } ->
      Fmt.pf ppf "crash %s at %gs for %gs" entity at blackout
  | Clock_drift { entity; factor } ->
      Fmt.pf ppf "clock-drift %s x%g" entity factor

let pp_loss_step ppf (s : loss_step) =
  Fmt.pf ppf "loss %g%% from %gs" (100.0 *. s.loss) s.at

let pp ppf t =
  if is_empty t then Fmt.string ppf "no faults"
  else
    let lines =
      List.map (fun f ppf () -> pp_packet_fault ppf f) t.packet_faults
      @ List.map (fun f ppf () -> pp_node_fault ppf f) t.node_faults
      @ List.map (fun s ppf () -> pp_loss_step ppf s) t.loss_profile
    in
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf line -> line ppf ()))
      lines
