(** The `spp serve` daemon: a long-running network service over one
    shared {!Spp_engine.Engine.t}, behind the shared NDJSON {!Frontend}.

    Concurrency shape:

    {v
    Frontend connection threads (one per client)
       | solve: parse, admission-check,
       | try_push job  ----------------+
       | block on reply mailbox        |
       v                               v
    bounded Bqueue  <--pop--  worker pool (domains)
                                Engine.solve
    v}

    - The {!Frontend} owns the listener, the connection threads, the
      connection deadlines and the [health] / [metrics] / [shutdown] ops;
      this module is its [solve] handler.
    - [solve] requests are admitted to a bounded queue; when it is full
      the client gets an immediate [overloaded] error instead of
      unbounded latency (load shedding).
    - Worker domains share one engine, so the in-memory LRU, the disk
      store and the engine's counters accumulate across all clients —
      repeats are served from cache at memory speed.
    - Per-request deadlines ([budget_ms], or the server default) become
      {!Spp_util.Cancel} tokens inside the engine, so exact solvers are
      cancelled cooperatively and every request still returns a valid
      packing via the engine's fallback.
    - Propagated deadlines ([deadline_ms] on the wire) are pinned to the
      server's clock at receipt ({!Spp_util.Deadline}); a request whose
      remainder is already below [deadline_floor_ms] is fast-failed at
      admission with [wont_make_it] (plus a [retry_after_ms] hint), and
      one that ages out while queued is turned away at dispatch instead
      of burning a worker — both counted in
      [spp_deadline_rejects_total]{[stage]}. Otherwise the engine budget
      is capped by the remaining deadline, so a budget-expired solve
      comes back as the engine's anytime incumbent with [degraded: true]
      (counted in [spp_degraded_replies_total]) rather than late.
    - {!stop} (from a signal handler, a [shutdown] request, or a test)
      starts the front end's drain (see {!Frontend}); once every
      connection thread has written its in-flight reply, {!wait} closes
      the queue and the workers exit.
    - Robustness: worker domains are supervised (see {!Pool}) — a job
      whose worker dies still receives a structured [internal] reply, and
      deaths/restarts surface as [spp_worker_deaths_total] /
      [spp_worker_restarts_total]. [overloaded] replies carry a
      [retry_after_ms] hint.

    Observability: the server registers its instruments on the engine's
    {!Spp_obs.Metrics} registry — the front end's series under the [spp]
    prefix ([spp_requests_total]{[op]}, [spp_connections_total], bytes
    in/out, [spp_connections_reaped_total], [spp_request_ms] and the
    request/response size histograms), plus [spp_requests_shed_total],
    queue depth and in-flight gauges and [spp_queue_wait_ms] — so one
    registry feeds the [metrics] op and the scrape endpoint
    ({!Metrics_http}). A solve request is traced ({!Spp_obs.Trace}) when
    the client supplies a [trace_id], when [slow_ms] is set, or when the
    log level is [Debug]; its span tree covers queue wait, the engine's
    cache probe and race, and the reply write. Requests slower than
    [slow_ms] are logged at [warn] with the rendered trace attached. *)

type config = {
  frontend : Frontend.config;  (** listen address and connection limits *)
  workers : int;  (** worker domains sharing the engine *)
  queue_depth : int;  (** admission queue bound (load shedding above it) *)
  engine : Spp_engine.Engine.t;
  default_budget_ms : float option;
      (** applied to [solve] requests that carry no budget *)
  solve_workers : int option;
      (** domains racing portfolio members inside one solve (default:
          engine default; keep [workers * solve_workers] near the core
          count) *)
  slow_ms : float option;
      (** log requests slower than this at [warn] with their span tree;
          also forces every solve request to be traced *)
  retry_after_ms : int;
      (** backoff hint attached to [overloaded] replies (see
          {!Protocol.response}) *)
  max_worker_restarts : int option;
      (** per-slot worker restart budget ([None] =
          {!Pool.default_max_restarts}) *)
  deadline_floor_ms : float;
      (** fast-fail [solve] requests whose propagated [deadline_ms]
          remainder is below this with [wont_make_it] — checked at
          admission and again at dispatch after the queue wait *)
}

(** Default [retry_after_ms] (100). *)
val default_retry_after_ms : int

(** Default [deadline_floor_ms] (5). *)
val default_deadline_floor_ms : float

type t

(** [start cfg] binds the address, spawns the worker pool and the front
    end's acceptor thread, and returns immediately.
    @raise Unix.Unix_error if the address cannot be bound. *)
val start : config -> t

(** [stop t] initiates graceful shutdown. Async-signal-light (an atomic
    store), idempotent, returns immediately — pair with {!wait}. *)
val stop : t -> unit

(** [wait t] blocks until shutdown has fully drained: all connection
    threads joined, queue closed, worker domains exited, listener closed
    (and a Unix socket path unlinked). *)
val wait : t -> unit
