(** Campaign job specs: one job = one cell of the experiment grid x one
    replicate index, with a deterministic per-job PRNG seed.

    Seeds are derived from the single master seed by [Pte_util.Rng.split]
    in job-id order at planning time, so a job's random stream depends
    only on [(master seed, job id)] — never on the worker count or the
    order in which the pool happens to schedule jobs. *)

type 'cell t = {
  id : int;  (** global job index: [cell * reps + rep]. *)
  cell : int;  (** index into the campaign's cell array. *)
  rep : int;  (** replicate index within the cell, [0 .. reps-1]. *)
  seed : int;  (** per-job seed, split off the master stream. *)
  payload : 'cell;
}

val plan : cells:'cell array -> reps:int -> seed:int -> 'cell t array
(** The full job table of a campaign, in job-id order.
    Raises [Invalid_argument] if [reps <= 0]. *)

val rng : 'cell t -> Pte_util.Rng.t
(** The job's private random stream (fresh on every call, so retries
    replay the identical stream). *)

val digest : 'cell t array -> string
(** Fingerprint of the plan's per-job seed sequence (hence of the master
    seed, cell count and reps) — what a checkpoint header records to
    refuse resuming a file produced by a different campaign. *)

(** Completed-job record — what workers hand back and what one JSONL
    checkpoint line stores. *)

type status =
  | Done
  | Failed of string  (** exception text after the last retry. *)

type outcome = {
  id : int;
  cell : int;
  rep : int;
  attempts : int;  (** 1 = first try succeeded. *)
  status : status;
  metrics : (string * float) list;  (** empty when [Failed]. *)
}

val outcome_ok : outcome -> bool

val outcome_to_json : outcome -> Pte_util.Json.t

val outcome_of_json : Pte_util.Json.t -> (outcome, string) result
(** Inverse of [outcome_to_json]; [Error] on shape mismatches. *)
