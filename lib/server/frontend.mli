(** The NDJSON connection front end shared by `spp serve` and
    `spp proxy`: everything between the listening socket and a daemon's
    [solve] handler.

    {v
    acceptor thread --accept--> connection threads (one per client)
                                  | Framing.read_line (idle/read deadlines,
                                  |   request-size cap)
                                  | decode; health / metrics / shutdown
                                  |   answered here, solve -> handler
                                  | write reply ("reply.write" span),
                                  v   close the trace, slow-log
    v}

    - Each connection thread handles its client's requests strictly in
      order (the protocol is synchronous per connection).
    - Hostile clients are bounded: a connection that starts no new
      request within [idle_timeout_ms], or trickles one past
      [read_timeout_ms] from its first byte, is reaped
      ([<prefix>_connections_reaped_total]); a line longer than
      [max_request_bytes] gets a structured [parse] error and the
      connection is closed.
    - {!stop} only flips a flag; the acceptor notices within ~50 ms and
      drains: the listener closes (a Unix socket path is unlinked), idle
      connections are woken by [SHUTDOWN_RECEIVE] and closed, in-flight
      requests finish and their replies are written, then every
      connection thread is joined. [solve] requests that arrive during
      the drain get [shutting_down].

    Series, registered on the caller's registry under the caller's
    names: [<prefix>_connections_total], [<prefix>_bytes_read_total],
    [<prefix>_bytes_written_total], [<prefix>_connections_reaped_total],
    [<prefix>_uptime_seconds], and the histograms [<prefix>_request_ms]
    (receipt to reply), [<prefix>_request_bytes] and
    [<prefix>_response_bytes]; requests by op land in the counter named
    [ops] with an [op] label ([solve], [health], [metrics], [shutdown],
    [invalid]). *)

type config = {
  address : Framing.address;
  max_request_bytes : int;  (** request-line size cap, see {!Framing} *)
  idle_timeout_ms : float option;
      (** reap a connection that starts no new request for this long
          ([None] = never) *)
  read_timeout_ms : float option;
      (** reap a connection whose request line takes longer than this to
          complete from its first byte — the slow-loris guard ([None] =
          never) *)
}

(** [default address]: 8 MiB request lines, 30 s idle timeout, 10 s read
    timeout — the `spp serve` command-line defaults. *)
val default : Framing.address -> config

(** What a daemon supplies. [solve] answers a [solve] request and returns
    the request's trace, if it recorded one; the front end spans the
    reply write under its root and closes it. [cache_capacity] is
    reported by [health]. [metrics] completes a [metrics] reply whose
    uptime, counters and histograms the front end has already filled
    from the registry. *)
type handler = {
  solve :
    instance:string -> budget_ms:float option -> deadline_ms:float option ->
    algos:string list option -> trace_id:string option ->
    Protocol.response * Spp_obs.Trace.t option;
  cache_capacity : int;
  metrics : Protocol.metrics_reply -> Protocol.metrics_reply;
}

type t

(** [create ~name ~prefix ~ops reg cfg] binds [cfg.address] and registers
    the series above; nothing is accepted until {!serve}. [name] ("server",
    "proxy") appears in the draining message. A traced request slower
    than [slow_ms] is logged at [warn] with its rendered span tree.
    @raise Unix.Unix_error if the address cannot be bound. *)
val create :
  name:string -> prefix:string -> ops:string -> ?slow_ms:float -> Spp_obs.Metrics.t ->
  config -> t

(** [serve t h] starts the acceptor thread; returns immediately. *)
val serve : t -> handler -> unit

(** [stop t] initiates the drain. An atomic store: idempotent and safe
    from a signal handler. *)
val stop : t -> unit

val stopping : t -> bool

(** [wait t] blocks until the drain is complete: listener closed, every
    connection thread joined. *)
val wait : t -> unit
