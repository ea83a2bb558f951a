(** JSONL checkpointing for campaign results. *)

module Json = Pte_util.Json

module Log = (val Logs.src_log Log.src : Logs.LOG)

type header = {
  seed : int;
  cells : int;
  reps : int;
  digest : string;
  version : string;
      (** {!Version.string} of the library that wrote the file; [""] in
          files predating the stamp. Resume refuses a version mismatch:
          sequential-stopping state folded from a checkpoint written by
          a different engine is statistically invalid. *)
}

exception Mismatch of string

let make_header ~seed ~cells ~reps ~digest =
  { seed; cells; reps; digest; version = Version.string }

let pp_header ppf h =
  Format.fprintf ppf "seed %d, %d cells x %d reps, digest %s, version %s"
    h.seed h.cells h.reps h.digest
    (if h.version = "" then "<pre-stamp>" else h.version)

let header_to_json h =
  Json.Obj
    [
      ("type", Json.Str "campaign-header");
      ("seed", Json.Num (Float.of_int h.seed));
      ("cells", Json.Num (Float.of_int h.cells));
      ("reps", Json.Num (Float.of_int h.reps));
      ("digest", Json.Str h.digest);
      ("version", Json.Str h.version);
    ]

let header_of_json json =
  match Json.member "type" json with
  | Some (Json.Str "campaign-header") -> (
      let int name = Option.bind (Json.member name json) Json.to_int in
      let str name = Option.bind (Json.member name json) Json.to_str in
      match (int "seed", int "cells", int "reps", str "digest") with
      | Some seed, Some cells, Some reps, Some digest ->
          (* files written before the stamp carry no version field *)
          Some
            {
              seed;
              cells;
              reps;
              digest;
              version = Option.value (str "version") ~default:"";
            }
      | _ -> None)
  | _ -> None

(* The header must be the first line; a file whose first line is an
   ordinary outcome is a legacy (pre-header) checkpoint. *)
let read_header path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
              match Json.of_string line with
              | Ok json -> header_of_json json
              | Error _ -> None))

type writer = { channel : out_channel; lock : Mutex.t }

(* A kill mid-[record] leaves a torn final line with no newline; a
   resumed writer must not glue its first record onto that fragment. *)
let ends_with_newline path =
  match open_in_bin path with
  | exception Sys_error _ -> true
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          len = 0
          ||
          (seek_in ic (len - 1);
           input_char ic = '\n'))

let open_writer ?(append = false) ?header path =
  let fresh =
    (not append)
    || (not (Sys.file_exists path))
    || (match open_in_bin path with
       | exception Sys_error _ -> true
       | ic ->
           Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> in_channel_length ic = 0))
  in
  let heal = append && not (ends_with_newline path) in
  let flags =
    if append then [ Open_wronly; Open_creat; Open_append ]
    else [ Open_wronly; Open_creat; Open_trunc ]
  in
  let channel = open_out_gen flags 0o644 path in
  if heal then output_char channel '\n';
  (* the header goes first, and only on a file this writer starts;
     appending to a legacy headerless file cannot retrofit one *)
  (match header with
  | Some h when fresh ->
      output_string channel (Json.to_string (header_to_json h));
      output_char channel '\n';
      flush channel
  | _ -> ());
  { channel; lock = Mutex.create () }

let record writer outcome =
  let line = Json.to_string (Job.outcome_to_json outcome) in
  Mutex.lock writer.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock writer.lock)
    (fun () ->
      output_string writer.channel line;
      output_char writer.channel '\n';
      flush writer.channel)

let close writer = close_out writer.channel

let load path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let outcomes = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Json.of_string line with
               | Ok json when header_of_json json <> None -> ()
               | parsed -> (
                   match Result.bind parsed Job.outcome_of_json with
                   | Ok o -> outcomes := o :: !outcomes
                   | Error e ->
                       (* expected for the torn final line of a killed run *)
                       Log.debug (fun m ->
                           m "checkpoint %s: skipping line: %s" path e))
           done
         with End_of_file -> ());
        List.rev !outcomes)
  end
