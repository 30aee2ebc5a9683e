module Clock = Spp_util.Clock
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace
module Log = Spp_obs.Log
module Json = Spp_util.Json

type config = {
  address : Framing.address;
  max_request_bytes : int;
  idle_timeout_ms : float option;
  read_timeout_ms : float option;
}

let default address =
  { address; max_request_bytes = Framing.default_max_line; idle_timeout_ms = Some 30_000.0;
    read_timeout_ms = Some 10_000.0 }

type handler = {
  solve :
    instance:string -> budget_ms:float option -> deadline_ms:float option ->
    algos:string list option -> trace_id:string option ->
    Protocol.response * Trace.t option;
  cache_capacity : int;
  metrics : Protocol.metrics_reply -> Protocol.metrics_reply;
}

type conn = { fd : Unix.file_descr }

(* Registered once at [create]: every request touches these, so they must
   not go through the registry's name lookup on the hot path. *)
type instruments = {
  m_connections : Metrics.counter;
  m_bytes_in : Metrics.counter;
  m_bytes_out : Metrics.counter;
  m_request_ms : Metrics.histogram;
  m_request_bytes : Metrics.histogram;
  m_response_bytes : Metrics.histogram;
  m_reaped : Metrics.counter;
}

type t = {
  cfg : config;
  name : string;
  ops : string;
  slow_ms : float option;
  reg : Metrics.t;
  mx : instruments;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  lock : Mutex.t;  (* guards conns and threads *)
  mutable conns : conn list;
  mutable threads : Thread.t list;
  mutable acceptor : Thread.t option;
  started_ms : float;
}

let stop t = Atomic.set t.stopping true
let stopping t = Atomic.get t.stopping

(* ------------------------------------------------------------------ *)
(* Requests *)

let count_op t op =
  Metrics.incr
    (Metrics.counter t.reg ~help:"Requests received by op" ~labels:[ ("op", op) ] t.ops)

let histograms_of reg =
  List.filter_map
    (fun (s : Metrics.sample) ->
      match s.value with
      | Metrics.Histogram h when s.labels = [] ->
        Some
          ( s.name,
            { Protocol.count = h.Metrics.total; sum = h.Metrics.sum;
              p50 = Metrics.hist_quantile h 0.5; p90 = Metrics.hist_quantile h 0.9;
              p99 = Metrics.hist_quantile h 0.99; buckets = h.Metrics.buckets } )
      | _ -> None)
    (Metrics.snapshot reg)

let metrics t h =
  Protocol.Metrics_ok
    (h.metrics
       { Protocol.uptime_ms = Clock.elapsed_ms t.started_ms; counters = Metrics.counters t.reg;
         cache = { size = 0; capacity = 0; hits = 0; misses = 0; evictions = 0 };
         store_dir = None; workers = 0; queue_length = 0; queue_capacity = 0;
         histograms = histograms_of t.reg; algos = [] })

(* Returns the request's trace alongside the response so the connection
   thread can span the reply write and run the slow-log check after the
   bytes are actually on the wire. *)
let respond t h line =
  match Protocol.decode_request line with
  | Error msg ->
    count_op t "invalid";
    (Protocol.Error { code = Protocol.Parse; message = msg; retry_after_ms = None }, None)
  | Ok Protocol.Health ->
    count_op t "health";
    ( Protocol.Health_ok
        { uptime_s = Clock.elapsed_ms t.started_ms /. 1000.0;
          cache_capacity = h.cache_capacity },
      None )
  | Ok Protocol.Metrics ->
    count_op t "metrics";
    (metrics t h, None)
  | Ok Protocol.Shutdown ->
    (* Drains this daemon only: a proxy never propagates it upstream. *)
    count_op t "shutdown";
    Log.info "shutdown requested" [];
    stop t;
    (Protocol.Shutdown_ok, None)
  | Ok (Protocol.Solve { instance; budget_ms; deadline_ms; algos; trace_id }) ->
    count_op t "solve";
    if stopping t then
      ( Protocol.Error
          { code = Protocol.Shutting_down; message = t.name ^ " is draining";
            retry_after_ms = None },
        None )
    else h.solve ~instance ~budget_ms ~deadline_ms ~algos ~trace_id

(* ------------------------------------------------------------------ *)
(* Connections *)

let unregister t conn =
  Mutex.lock t.lock;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.lock

let finish_trace t tr =
  Trace.close tr;
  let total = Trace.total_ms tr in
  match t.slow_ms with
  | Some thr when total >= thr ->
    Log.warn "slow request"
      [ ("trace_id", Json.String (Trace.id tr)); ("ms", Json.Float total);
        ("trace", Trace.json tr) ]
  | _ ->
    if Log.enabled Log.Debug then
      Log.debug "request" [ ("trace_id", Json.String (Trace.id tr)); ("ms", Json.Float total) ]

let serve_conn t h conn =
  Metrics.incr t.mx.m_connections;
  let reader = Framing.reader ~max_line_bytes:t.cfg.max_request_bytes conn.fd in
  let send ?trace resp =
    let line = Protocol.encode_response resp in
    let span =
      Option.map (fun tr -> (tr, Trace.span tr ~parent:(Trace.root tr) "reply.write")) trace
    in
    let ok =
      try
        Framing.write_line conn.fd line;
        true
      with Unix.Unix_error _ | Sys_error _ -> false
    in
    Option.iter
      (fun (tr, s) ->
        Trace.finish ~fields:[ ("bytes", Json.Int (String.length line + 1)) ] tr s)
      span;
    Metrics.incr ~by:(String.length line + 1) t.mx.m_bytes_out;
    Metrics.observe t.mx.m_response_bytes (float_of_int (String.length line + 1));
    ok
  in
  let rec loop () =
    match
      Framing.read_line ?idle_timeout_ms:t.cfg.idle_timeout_ms
        ?read_timeout_ms:t.cfg.read_timeout_ms reader
    with
    | None -> ()
    | exception Framing.Timeout ->
      (* Idle too long or trickling a request too slowly: reap. *)
      Metrics.incr t.mx.m_reaped;
      Log.info "connection reaped" []
    | exception Framing.Line_too_long ->
      ignore
        (send
           (Protocol.Error
              { code = Protocol.Parse;
                message = Printf.sprintf "request exceeds %d bytes" t.cfg.max_request_bytes;
                retry_after_ms = None }))
    | exception (Unix.Unix_error _ | Sys_error _) -> ()
    | Some line when String.trim line = "" -> if not (stopping t) then loop ()
    | Some line ->
      Metrics.incr ~by:(String.length line + 1) t.mx.m_bytes_in;
      Metrics.observe t.mx.m_request_bytes (float_of_int (String.length line + 1));
      let t0 = Clock.now_ms () in
      let resp, trace = respond t h line in
      let written = send ?trace resp in
      Option.iter (finish_trace t) trace;
      Metrics.observe t.mx.m_request_ms (Clock.elapsed_ms t0);
      (* After a drain began, finish this (in-flight) reply but take no
         further requests from the connection. *)
      if written && not (stopping t) then loop ()
  in
  (try loop () with _ -> ());
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  unregister t conn

(* ------------------------------------------------------------------ *)
(* Accepting and draining *)

let accept_loop t h =
  let fd = t.listen_fd in
  Unix.set_nonblock fd;
  let rec loop () =
    if not (stopping t) then begin
      (match Unix.select [ fd ] [] [] 0.05 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | [], _, _ -> ()
       | _ :: _, _, _ -> (
         match Unix.accept ~cloexec:true fd with
         | exception
             Unix.Unix_error
               ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
           ()
         | cfd, _ ->
           if stopping t then (try Unix.close cfd with Unix.Unix_error _ -> ())
           else begin
             let conn = { fd = cfd } in
             Mutex.lock t.lock;
             t.conns <- conn :: t.conns;
             t.threads <- Thread.create (fun () -> serve_conn t h conn) () :: t.threads;
             Mutex.unlock t.lock
           end));
      loop ()
    end
  in
  loop ();
  (* New connections first: close the listener (and unlink the socket
     path so clients get a clean "no such server"). *)
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (match t.cfg.address with
   | Framing.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | Framing.Tcp _ -> ());
  (* Wake idle connection threads blocked in read: shutting down the
     receive side delivers EOF without touching replies still being
     written for in-flight requests. *)
  Mutex.lock t.lock;
  let conns = t.conns in
  Mutex.unlock t.lock;
  List.iter
    (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  Mutex.lock t.lock;
  let threads = t.threads in
  t.threads <- [];
  Mutex.unlock t.lock;
  List.iter Thread.join threads

let instruments reg prefix =
  let series suffix = prefix ^ suffix in
  { m_connections =
      Metrics.counter reg ~help:"Client connections accepted" (series "_connections_total");
    m_bytes_in = Metrics.counter reg ~help:"Request bytes read" (series "_bytes_read_total");
    m_bytes_out =
      Metrics.counter reg ~help:"Response bytes written" (series "_bytes_written_total");
    m_request_ms =
      Metrics.histogram reg ~help:"Wall-clock per request, receipt to reply (ms)"
        (series "_request_ms");
    m_request_bytes =
      Metrics.histogram reg ~help:"Request line sizes (bytes)"
        ~buckets:Metrics.default_size_buckets (series "_request_bytes");
    m_response_bytes =
      Metrics.histogram reg ~help:"Response line sizes (bytes)"
        ~buckets:Metrics.default_size_buckets (series "_response_bytes");
    m_reaped =
      Metrics.counter reg ~help:"Connections closed for idling or trickling past a deadline"
        (series "_connections_reaped_total") }

let create ~name ~prefix ~ops ?slow_ms reg cfg =
  let listen_fd = Framing.listen cfg.address in
  let t =
    { cfg; name; ops; slow_ms; reg; mx = instruments reg prefix; listen_fd;
      stopping = Atomic.make false; lock = Mutex.create (); conns = []; threads = [];
      acceptor = None; started_ms = Clock.now_ms () }
  in
  Metrics.gauge_fn reg ~help:"Seconds since the daemon started" (prefix ^ "_uptime_seconds")
    (fun () -> Clock.elapsed_ms t.started_ms /. 1000.0);
  t

let serve t h = t.acceptor <- Some (Thread.create (fun () -> accept_loop t h) ())
let wait t = match t.acceptor with Some th -> Thread.join th | None -> ()
