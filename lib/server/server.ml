module Engine = Spp_engine.Engine
module Lru = Spp_engine.Lru
module Io = Spp_core.Io
module Q = Spp_num.Rat
module Clock = Spp_util.Clock
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace
module Log = Spp_obs.Log
module Json = Spp_util.Json

type config = {
  frontend : Frontend.config;
  workers : int;
  queue_depth : int;
  engine : Engine.t;
  default_budget_ms : float option;
  solve_workers : int option;
  slow_ms : float option;
  retry_after_ms : int;
  max_worker_restarts : int option;
  deadline_floor_ms : float;
}

let default_retry_after_ms = 100
let default_deadline_floor_ms = 5.0

type job = {
  parsed : Io.parsed;
  budget_ms : float option;
  deadline : Spp_util.Deadline.t option;
  algos : string list option;
  reply : Protocol.response Bqueue.t;  (* capacity-1 mailbox *)
  trace : Trace.t option;
  wants_trace : bool;
      (* the client sent a trace_id — embed the span tree in the reply
         (a slow-log/debug trace alone stays server-side) *)
  queue_span : Trace.span option;
  enqueued_ms : float;
}

(* Handles registered once at [start]; every request touches these, so
   they must not go through the registry's name lookup on the hot path. *)
type instruments = {
  reg : Metrics.t;
  m_shed : Metrics.counter;
  m_inflight : Metrics.gauge;
  m_queue_wait_ms : Metrics.histogram;
  m_degraded : Metrics.counter;
  m_deadline_admission : Metrics.counter;
  m_deadline_dispatch : Metrics.counter;
}

type t = {
  cfg : config;
  fe : Frontend.t;
  queue : job Bqueue.t;
  pool : Pool.t;
  mx : instruments;
}

(* ------------------------------------------------------------------ *)
(* Request handling *)

let source_to_string = function
  | Engine.Computed -> "computed"
  | Engine.Memory_cache -> "cache.memory"
  | Engine.Disk_cache -> "cache.disk"

(* Runs on a worker domain; must never raise (the reply mailbox is the
   only failure channel the connection thread watches). *)
let process cfg mx (job : job) =
  (match (job.trace, job.queue_span) with
   | Some tr, Some s -> Trace.finish tr s
   | _ -> ());
  Metrics.observe mx.m_queue_wait_ms (Clock.elapsed_ms job.enqueued_ms);
  (* Queue wait was charged against the propagated deadline: re-check at
     dispatch, so a request that aged out while queued is turned away
     here instead of burning a worker on an answer nobody is waiting
     for. The engine budget is then capped by whatever remains. *)
  let wont_make_it =
    match job.deadline with
    | Some d when Spp_util.Deadline.expired ~floor_ms:cfg.deadline_floor_ms d ->
      Metrics.incr mx.m_deadline_dispatch;
      true
    | Some _ | None -> false
  in
  let resp =
    if wont_make_it then
      Protocol.Error
        { code = Protocol.Wont_make_it;
          message = "deadline expired while queued";
          retry_after_ms = Some cfg.retry_after_ms }
    else begin
      let budget_ms =
        match (job.budget_ms, job.deadline) with
        | b, None -> b
        | None, Some d -> Some (Spp_util.Deadline.remaining_ms d)
        | Some b, Some d -> Some (Float.min b (Spp_util.Deadline.remaining_ms d))
      in
      match
        Engine.solve ?budget_ms ?algos:job.algos ?workers:cfg.solve_workers
          ?trace:job.trace cfg.engine job.parsed
      with
      | r ->
        (* The reply-embedded tree is built here, after the engine spans
           closed but before reply.write and the root close — those belong
           to the requester's side of the timeline (the proxy's upstream
           span covers them). An open root simply has no "ms" field. *)
        let trace = if job.wants_trace then Option.map Trace.json job.trace else None in
        if r.Engine.degraded then Metrics.incr mx.m_degraded;
        Protocol.Solve_ok
          { winner = r.Engine.winner; source = source_to_string r.Engine.source;
            height = Q.to_string r.Engine.height; time_ms = r.Engine.time_ms;
            placement = Io.placement_to_string r.Engine.placement;
            degraded = r.Engine.degraded;
            lower_bound = Some (Q.to_string r.Engine.lower_bound);
            gap = Some (Q.to_string r.Engine.gap);
            trace_id = Option.map Trace.id job.trace; trace }
      | exception Invalid_argument msg ->
        Protocol.Error { code = Protocol.Bad_request; message = msg; retry_after_ms = None }
      | exception Spp_util.Fault.Injected point ->
        Protocol.Error
          { code = Protocol.Internal; message = "fault injected: " ^ point;
            retry_after_ms = None }
      | exception e ->
        Protocol.Error
          { code = Protocol.Internal; message = Printexc.to_string e; retry_after_ms = None }
    end
  in
  ignore (Bqueue.try_push job.reply resp)

let stop t = Frontend.stop t.fe

let algos_of reg =
  let outcomes = Metrics.labeled_counters reg "spp_algo_outcomes_total" in
  let wins = Metrics.labeled_counters reg "spp_algo_wins_total" in
  let algo_of labels = List.assoc_opt "algo" labels in
  let names =
    List.sort_uniq compare (List.filter_map (fun (ls, _) -> algo_of ls) (outcomes @ wins))
  in
  List.map
    (fun name ->
      let sum_where pred rows =
        List.fold_left (fun acc (ls, v) -> if pred ls then acc + v else acc) 0 rows
      in
      let mine ls = algo_of ls = Some name in
      let outcome o ls = mine ls && List.assoc_opt "outcome" ls = Some o in
      ( name,
        { Protocol.wins = sum_where mine wins;
          solved = sum_where (outcome "solved") outcomes;
          timeouts = sum_where (outcome "timeout") outcomes;
          invalid = sum_where (outcome "invalid") outcomes;
          failed = sum_where (outcome "failed") outcomes } ))
    names

let metrics t (m : Protocol.metrics_reply) =
  let s = Engine.cache_stats t.cfg.engine in
  { m with
    cache =
      { size = s.Lru.size; capacity = Engine.cache_capacity t.cfg.engine; hits = s.Lru.hits;
        misses = s.Lru.misses; evictions = s.Lru.evictions };
    store_dir = Engine.store_dir t.cfg.engine; workers = t.cfg.workers;
    queue_length = Bqueue.length t.queue; queue_capacity = Bqueue.capacity t.queue;
    algos = algos_of t.mx.reg }

let solve t ~instance ~budget_ms ~deadline_ms ~algos ~trace_id =
  (* Pin the propagated deadline to this host's clock at receipt:
     everything from here on — parse, queue wait, dispatch — is this
     hop's elapsed time and counts against it. *)
  let deadline = Spp_util.Deadline.of_request deadline_ms in
  let trace =
    if trace_id <> None || t.cfg.slow_ms <> None || Log.enabled Log.Debug then
      Some (Trace.create ?id:trace_id ~name:"request" ())
    else None
  in
  if
    match deadline with
    | Some d -> Spp_util.Deadline.expired ~floor_ms:t.cfg.deadline_floor_ms d
    | None -> false
  then begin
    (* Fast-fail at admission: below the floor the answer cannot
       arrive in time, so shedding now is strictly better than
       queueing — the caller learns immediately and capacity stays
       with requests that can still make it. *)
    Metrics.incr t.mx.m_deadline_admission;
    ( Protocol.Error
        { code = Protocol.Wont_make_it;
          message =
            Printf.sprintf "remaining deadline below floor (%.0f ms)"
              t.cfg.deadline_floor_ms;
          retry_after_ms = Some t.cfg.retry_after_ms },
      trace )
  end
  else (
    match Io.parse_string instance with
    | exception Failure msg ->
      ( Protocol.Error
          { code = Protocol.Bad_instance; message = msg; retry_after_ms = None },
        trace )
    | parsed ->
      let budget_ms =
        match budget_ms with Some _ -> budget_ms | None -> t.cfg.default_budget_ms
      in
      let reply = Bqueue.create ~capacity:1 in
      let queue_span =
        Option.map (fun tr -> Trace.span tr ~parent:(Trace.root tr) "queue.wait") trace
      in
      Metrics.gauge_add t.mx.m_inflight 1.0;
      let resp =
        if
          not
            (Bqueue.try_push t.queue
               { parsed; budget_ms; deadline; algos; reply; trace;
                 wants_trace = trace_id <> None;
                 queue_span; enqueued_ms = Clock.now_ms () })
        then begin
          Metrics.incr t.mx.m_shed;
          (match (trace, queue_span) with
           | Some tr, Some s ->
             Trace.finish ~fields:[ ("outcome", Json.String "shed") ] tr s
           | _ -> ());
          if Bqueue.is_closed t.queue then
            (* The pool died (every slot out of restart budget): shed
               with a non-retryable error, not a misleading "queue full". *)
            Protocol.Error
              { code = Protocol.Internal; message = "worker pool closed";
                retry_after_ms = None }
          else
            Protocol.Error
              { code = Protocol.Overloaded;
                message =
                  Printf.sprintf "admission queue full (depth %d)" (Bqueue.capacity t.queue);
                retry_after_ms = Some t.cfg.retry_after_ms }
        end
        else (
          match Bqueue.pop reply with
          | Some r -> r
          | None ->
            Protocol.Error
              { code = Protocol.Internal; message = "worker pool closed";
                retry_after_ms = None })
      in
      Metrics.gauge_add t.mx.m_inflight (-1.0);
      (resp, trace))

let instruments reg queue =
  Metrics.gauge_fn reg ~help:"Jobs waiting in the admission queue" "spp_queue_depth"
    (fun () -> float_of_int (Bqueue.length queue));
  { reg;
    m_shed =
      Metrics.counter reg ~help:"Solve requests refused because the queue was full"
        "spp_requests_shed_total";
    m_inflight =
      Metrics.gauge reg ~help:"Solve requests admitted and not yet answered"
        "spp_inflight_requests";
    m_queue_wait_ms =
      Metrics.histogram reg ~help:"Time jobs spent in the admission queue (ms)"
        "spp_queue_wait_ms";
    m_degraded =
      Metrics.counter reg ~help:"Solve replies answered with a degraded (anytime) packing"
        "spp_degraded_replies_total";
    m_deadline_admission =
      Metrics.counter reg ~help:"Requests fast-failed because the propagated deadline ran out"
        ~labels:[ ("stage", "admission") ] "spp_deadline_rejects_total";
    m_deadline_dispatch =
      Metrics.counter reg ~help:"Requests fast-failed because the propagated deadline ran out"
        ~labels:[ ("stage", "dispatch") ] "spp_deadline_rejects_total" }

let start cfg =
  Signals.ignore_sigpipe ();
  let reg = Engine.metrics cfg.engine in
  let fe =
    Frontend.create ~name:"server" ~prefix:"spp" ~ops:"spp_requests_total" ?slow_ms:cfg.slow_ms
      reg cfg.frontend
  in
  let queue = Bqueue.create ~capacity:cfg.queue_depth in
  let mx = instruments reg queue in
  (* A worker that dies mid-job must still answer that job's client: the
     supervisor fails the reply mailbox with a structured internal error. *)
  let on_crash (job : job) exn =
    let message =
      match exn with
      | Spp_util.Fault.Injected point -> "worker crashed: fault injected: " ^ point
      | Pool.Pool_dead -> "worker pool dead: restart budget exhausted"
      | e -> "worker crashed: " ^ Printexc.to_string e
    in
    ignore
      (Bqueue.try_push job.reply
         (Protocol.Error { code = Protocol.Internal; message; retry_after_ms = None }))
  in
  let pool =
    Pool.start ?max_restarts:cfg.max_worker_restarts ~on_crash ~workers:cfg.workers
      (process cfg mx) queue
  in
  Metrics.counter_fn reg ~help:"Worker domain deaths observed by the supervisor"
    "spp_worker_deaths_total" (fun () -> Pool.deaths pool);
  Metrics.counter_fn reg ~help:"Worker domain restarts performed by the supervisor"
    "spp_worker_restarts_total" (fun () -> Pool.restarts pool);
  let t = { cfg; fe; queue; pool; mx } in
  Frontend.serve fe
    { solve = solve t; cache_capacity = Engine.cache_capacity cfg.engine; metrics = metrics t };
  Log.info "server listening"
    [ ("address", Json.String (Framing.address_to_string cfg.frontend.address));
      ("workers", Json.Int cfg.workers); ("queue_depth", Json.Int cfg.queue_depth) ];
  t

let wait t =
  Frontend.wait t.fe;
  (* In-flight requests finished on the still-running worker pool before
     their connection threads exited; nothing can enqueue any more, so
     let the workers drain out and exit. *)
  Bqueue.close t.queue;
  Pool.join t.pool;
  Log.info "server drained" []
