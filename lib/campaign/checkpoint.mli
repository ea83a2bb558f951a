(** JSONL checkpoint files: one {!Job.outcome} object per line.

    Workers append their line (mutex-protected, flushed) as each job
    finishes, so a killed campaign loses at most the in-flight jobs.
    [load] tolerates a truncated final line — the tell-tale of a kill
    mid-write — and ignores it. *)

(** First line of a checkpoint file: which campaign produced it. [seed],
    [cells] and [reps] identify the grid; [digest] fingerprints the
    per-job seed sequence ({!Job.digest}); [version] pins the library
    stamp ({!Version.string}) — resuming a file written by a different
    campaign {e or a different engine version} is refused instead of
    silently poisoning the results (a sequential-stopping state resumed
    across versions is statistically invalid). *)
type header = {
  seed : int;
  cells : int;
  reps : int;
  digest : string;
  version : string;  (** [""] in files predating the stamp. *)
}

exception Mismatch of string
(** Raised by the runner when [resume] meets a checkpoint whose header
    disagrees with the current campaign. *)

val make_header :
  seed:int -> cells:int -> reps:int -> digest:string -> header
(** A header stamped with the current {!Version.string}. *)

val pp_header : Format.formatter -> header -> unit
val header_to_json : header -> Pte_util.Json.t
val header_of_json : Pte_util.Json.t -> header option

val read_header : string -> header option
(** Header of the file's first line; [None] for missing or legacy
    (pre-header) files. *)

type writer

val open_writer : ?append:bool -> ?header:header -> string -> writer
(** [append:false] (default) truncates; [append:true] continues a file
    being resumed. [header] is written as the first line of any file
    this writer starts (fresh, missing, or empty); appending to an
    existing legacy file leaves it headerless. *)

val record : writer -> Job.outcome -> unit
(** Thread-safe append of one line, flushed before returning. *)

val close : writer -> unit

val load : string -> Job.outcome list
(** All parseable outcomes, in file order. A missing file is an empty
    campaign. The header line and unparseable lines are skipped (the
    latter logged at debug level). *)
