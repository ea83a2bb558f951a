(** Domain-based worker pool: order-preserving parallel [map] over an
    array, with workers pulling indices off a shared queue.

    The pool is oblivious to what a job is; crash isolation and retries
    live in {!Runner}, so the function passed here must not raise. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count], floored at 1. *)

val map : ?workers:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~workers f xs] applies [f] to every element, using up to
    [workers] domains (capped by [Array.length xs]; default
    {!default_workers}). Result order matches input order regardless of
    scheduling. [f] runs concurrently in several domains: it must be
    thread-safe and must not raise (an escaping exception tears down the
    whole pool). With more than one worker, [map] ends with a full major
    collection, so that the heaps the joined domains leave behind are
    adopted and swept before it returns. *)
