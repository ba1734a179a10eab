(** The process-wide pool of worker domains.

    Every parallel loop of the tool runs through {!run}: the simulator's
    work-group chunks and the compile service's batch workers. Workers
    are spawned on first demand and then reused for the life of the
    process, so a parallel launch no longer pays for spawning and
    joining domains. *)

(** [run n f] evaluates [f 0], ..., [f (n - 1)] on the calling domain
    and up to [n - 1] pooled workers, and returns the results in index
    order. [n <= 1] runs on the caller without touching the pool. Which
    domain runs which index is unspecified. When tasks raise, every task
    still runs to completion, then the exception of the lowest failing
    index is re-raised. A task may itself call [run]: the submitting
    domain always helps with its own job, so nested jobs cannot
    deadlock. *)
val run : int -> (int -> 'a) -> 'a array

(** Worker domains spawned so far (the pool never shrinks). *)
val size : unit -> int
