(** The portfolio solver engine: one managed entry point over every
    algorithm in the repository.

    [solve] fingerprints the instance, serves repeats from an in-memory
    LRU (and optionally a disk {!Store}), and otherwise races the
    applicable {!Portfolio} members across OCaml domains under a shared
    wall-clock budget. Every raced result is checked with
    {!Spp_core.Validate} before it may win; the lowest valid packing is
    returned together with per-solver outcomes.

    The engine is an {e anytime} solver: before the race starts it seeds
    a shared incumbent with the guaranteed-fast greedy list schedule, and
    racers publish their validated packings to it as they finish. When
    the budget expires before any racer completes, [solve] answers with
    the incumbent instead of nothing; such a cut-short solve is marked
    [degraded] and is kept out of both caches (a repeat with a roomier
    budget should recompute). A race in which {e some} members timed out
    but one solved is a normal full-quality answer, not a degraded one.
    Every result also carries the
    paper's exact-rational [lower_bound] for the instance and the [gap]
    to it, so a caller can judge how far a degraded answer might be from
    optimal. If the incumbent seed itself is suppressed (the
    [engine.incumbent] fault point), the greedy scheduler still runs as
    an uncancellable fallback — [solve] always returns a valid packing.

    All activity is counted in one {!Spp_obs.Metrics} registry, with
    nothing retained per solve. Counters registered at {!create}:
    [solve.runs], [cache.hit], [cache.hit.memory], [cache.hit.disk],
    [cache.miss], [solver.solved], [solver.timeout], [solver.invalid],
    [solver.failed], [solver.incumbent], [solver.fallback],
    [solve.degraded], [incumbent.skipped], [store.write.failed]. Per-solve
    detail (winner, source, per-member outcomes and times) is in the
    returned {!result}.

    The registry also carries the instruments the scrape endpoint
    exposes: the
    [spp_solve_ms] latency histogram, [spp_algo_outcomes_total]{[algo],
    [outcome]} and [spp_algo_wins_total]{[algo]} labelled counters,
    [spp_cancel_polls_total], LRU occupancy/eviction metrics
    ([spp_cache_entries], [spp_cache_evictions_total]) and — when a disk
    store is attached — [spp_store_entries] and [spp_store_prunes_total].
    Passing [?trace] to {!solve} records a span tree of the request
    (cache probe, the race with one span per algorithm and its
    validation, the fallback) under the trace's root. *)

type status =
  | Solved  (** finished in budget and validated *)
  | Timed_out  (** hit the cancellation deadline *)
  | Invalid  (** finished but failed validation — reported, never returned *)
  | Failed of string  (** raised; the exception text *)
  | Skipped of string  (** not run; the reason (e.g. inapplicable) *)

type outcome = {
  solver : string;
  status : status;
  height : Spp_num.Rat.t option;  (** for [Solved] only *)
  time_ms : float;
}

type source = Computed | Memory_cache | Disk_cache

type result = {
  placement : Spp_geom.Placement.t;
  height : Spp_num.Rat.t;
  winner : string;  (** portfolio member that produced [placement] *)
  source : source;
  outcomes : outcome list;  (** per-member; empty on a cache hit *)
  time_ms : float;  (** wall clock for this [solve] call *)
  degraded : bool;
      (** the budget cut at least one racer short, so [placement] is the
          best answer known at expiry (possibly the anytime incumbent)
          rather than the full portfolio's. Never cached. *)
  lower_bound : Spp_num.Rat.t;
      (** the paper's instance lower bound — [max(AREA, F)] for
          precedence, [max(AREA, max (r+h))] for release instances *)
  gap : Spp_num.Rat.t;  (** [height - lower_bound]; always [>= 0] *)
}

type t

(** [create ()] builds an engine. [cache_capacity] bounds the in-memory
    LRU (default 128 instances). [store_dir] adds a disk cache shared
    across processes, bounded to [store_max_entries] files (default
    {!Store.default_max_entries}). [metrics] is the registry the engine
    counts into (default: a fresh one); [spp serve] passes none and
    registers its own series on {!metrics}. *)
val create :
  ?cache_capacity:int -> ?store_dir:string -> ?store_max_entries:int ->
  ?metrics:Spp_obs.Metrics.t -> unit -> t

(** The engine's registry: counters above plus anything callers register
    next to them. *)
val metrics : t -> Spp_obs.Metrics.t

(** Hit/miss/eviction counters and current size of the in-memory LRU —
    what the [spp serve] metrics endpoint reports. *)
val cache_stats : t -> Lru.stats

val cache_capacity : t -> int

(** The disk cache directory, if the engine was created with one. *)
val store_dir : t -> string option

(** [solve t parsed] races the portfolio (or the cache) as described
    above. [budget_ms]: wall-clock budget shared by all racers (default:
    unlimited). [algos]: explicit member list instead of
    {!Portfolio.defaults} — inapplicable ones are reported as [Skipped].
    [workers]: domains racing at once (default
    {!Spp_util.Parallel.available_workers}). [trace]: record this solve
    as spans under the trace's root.
    @raise Invalid_argument on an unknown name in [algos]. *)
val solve :
  ?budget_ms:float -> ?algos:string list -> ?workers:int ->
  ?trace:Spp_obs.Trace.t ->
  t -> Spp_core.Io.parsed -> result

val pp_status : Format.formatter -> status -> unit
