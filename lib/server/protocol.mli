(** The `spp serve` wire protocol: newline-delimited JSON.

    Every message is one JSON object on one line (JSON escaping guarantees
    the encoded form contains no ['\n'], so instance texts with embedded
    newlines travel safely). Requests carry an ["op"] field; responses
    carry ["ok"] — [true] with an op-specific payload, or [false] with an
    ["error"] code and human-readable ["message"].

    Requests:
    {v
    {"op":"solve","instance":"rect 0 1/2 1\n...","budget_ms":100,"algos":["dc","bb"],"trace_id":"beef"}
    {"op":"metrics"}
    {"op":"health"}
    {"op":"shutdown"}
    v}

    [budget_ms], [deadline_ms], [algos] and [trace_id] are optional; a
    supplied [trace_id] turns on span recording for that request and is
    echoed in the reply, so a caller can correlate its own ids with the
    server's slow-request log. Responses are documented on the
    constructors below; the full shapes (with examples) are specified in
    README.md. Encoding and decoding are exact inverses — round-tripping
    is property-tested on adversarial payloads. *)

type request =
  | Solve of {
      instance : string;  (** instance file text, {!Spp_core.Io} format *)
      budget_ms : float option;
      deadline_ms : float option;
          (** the caller's {e remaining} end-to-end budget, relative
              (never an absolute timestamp — the hops' clocks differ).
              Each hop subtracts the time the request spends inside it
              before forwarding; a server that cannot possibly answer in
              the remainder fast-fails with [Wont_make_it]. Distinct
              from [budget_ms], which caps solver compute alone: the
              effective engine budget is the minimum of the two. *)
      algos : string list option;
      trace_id : string option;  (** client-chosen id; enables tracing *)
    }
  | Metrics
  | Health
  | Shutdown

type error_code =
  | Parse  (** request line is not valid JSON / not a known request shape *)
  | Bad_request  (** well-formed but unservable (e.g. unknown algorithm) *)
  | Bad_instance  (** the inline instance text failed to parse *)
  | Overloaded  (** admission queue full — retry later *)
  | Wont_make_it
      (** the propagated [deadline_ms] has (nearly) run out — answering
          would arrive too late, so no worker was burned; carries a
          [retry_after_ms] hint like [Overloaded] *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Internal  (** unexpected server-side failure *)

type solve_reply = {
  winner : string;
  source : string;  (** ["computed"], ["cache.memory"] or ["cache.disk"] *)
  height : string;  (** exact rational, e.g. ["7/2"] *)
  time_ms : float;  (** engine wall clock for this solve *)
  placement : string;  (** {!Spp_core.Io.placement_to_string} text *)
  degraded : bool;
      (** the budget expired mid-race and this is the engine's best
          feasible incumbent, not the full portfolio's answer. Still a
          validated packing. Degraded replies are never cached — not by
          the engine, the disk store, or the proxy snoop. Omitted from
          the wire when [false]. *)
  lower_bound : string option;
      (** exact-rational instance lower bound (Section 2/3 bounds) —
          present on computed replies so a client can judge the answer *)
  gap : string option;
      (** exact-rational [height - lower_bound], always [>= 0] *)
  trace_id : string option;  (** present iff the request was traced *)
  trace : Spp_util.Json.t option;
      (** the responder's span tree for this request — the value of
          {!Spp_obs.Trace.to_json} — present only on traced requests.
          The proxy grafts a backend's tree under its own [upstream]
          span and replaces this field with the stitched trace, so the
          client sees one end-to-end tree. Stripped before replies are
          cached (a replay's trace would be a lie). *)
}

type cache_stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

(** One server-side histogram: observation count, sum, interpolated
    percentiles, and the cumulative finite buckets (the implicit [+Inf]
    bucket count equals [count]). *)
type hist_reply = {
  count : int;
  sum : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list;  (** (upper bound, cumulative count) *)
}

(** Per-algorithm race record, aggregated over the server's lifetime. *)
type algo_reply = { wins : int; solved : int; timeouts : int; invalid : int; failed : int }

type metrics_reply = {
  uptime_ms : float;
  counters : (string * int) list;  (** registry counters, sorted *)
  cache : cache_stats;  (** the shared in-memory LRU *)
  store_dir : string option;  (** disk cache directory, if enabled *)
  workers : int;
  queue_length : int;
  queue_capacity : int;
  histograms : (string * hist_reply) list;  (** e.g. [spp_solve_ms] *)
  algos : (string * algo_reply) list;  (** keyed by portfolio member *)
}

type health_reply = { uptime_s : float; cache_capacity : int }

type response =
  | Solve_ok of solve_reply
  | Metrics_ok of metrics_reply
  | Health_ok of health_reply
  | Shutdown_ok  (** acknowledged; the server begins draining *)
  | Error of { code : error_code; message : string; retry_after_ms : int option }
      (** [retry_after_ms] is a backoff hint, set on [Overloaded] replies:
          clients that retry should wait at least this long. Omitted from
          the wire when [None]. *)

val error_code_to_string : error_code -> string

(** [error_code_of_string s] — inverse of {!error_code_to_string}. *)
val error_code_of_string : string -> error_code option

(** [encode_request r] is one line of JSON (no trailing newline). *)
val encode_request : request -> string

(** [decode_request line] — never raises; junk bytes yield [Error]. *)
val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result
