(** Supervised worker pool: OCaml 5 domains draining a {!Bqueue}.

    Each worker loops [Bqueue.pop]: [Some job] is handed to the job
    function, [None] (queue closed and drained) makes the worker exit.
    All workers share whatever state the job function closes over — for
    the server that is one {!Spp_engine.Engine.t}, which is the whole
    point: its LRU and disk store are mutex-protected, its counters are
    atomic, and all of it is shared across every request.

    Supervision: a job function that raises (or a [pool.job] fault from
    {!Spp_util.Fault}) kills its worker domain. A per-slot supervisor
    thread observes the death, invokes [on_crash] with the in-flight job
    (so the server can fail that job's reply mailbox instead of leaving
    its client hanging), and restarts the domain — up to [max_restarts]
    times per slot. Deaths and restarts are counted for the
    [spp_worker_deaths_total] / [spp_worker_restarts_total] metrics.

    If {e every} slot exhausts its budget the pool declares itself dead:
    it closes the queue (so new work is shed at admission) and fails each
    queued job via [on_crash] with {!Pool_dead} — degraded, but never a
    hang. *)

type t

(** Passed to [on_crash] for jobs the pool can no longer run because all
    worker slots exhausted their restart budgets. *)
exception Pool_dead

(** Default per-slot restart budget (16). *)
val default_max_restarts : int

(** [start ~workers f q] spawns [max 1 workers] supervised domains popping
    from [q]. Returns immediately.

    [on_crash job exn] runs on the supervisor thread for every job whose
    worker died mid-run (and for queued jobs of a dead pool, with
    {!Pool_dead}); exceptions it raises are swallowed. [max_restarts]
    bounds restarts per slot (default {!default_max_restarts}). *)
val start :
  ?max_restarts:int ->
  ?on_crash:('a -> exn -> unit) ->
  workers:int -> ('a -> unit) -> 'a Bqueue.t -> t

val size : t -> int

(** Worker-domain deaths observed so far. *)
val deaths : t -> int

(** Worker-domain restarts performed so far (deaths minus permanently
    retired slots). *)
val restarts : t -> int

(** [join t] blocks until every supervisor (and hence every worker) has
    exited — i.e. until the queue has been {!Bqueue.close}d and fully
    drained, or the pool died. *)
val join : t -> unit
