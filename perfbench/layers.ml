(* The traced run: per-layer metrics for one workload.

   It is separate from the timed runs and sends the same seeded inputs.
   Daemon workloads replay their stream against fresh daemons for the
   timed window and read the daemons' own series (Prometheus scrape,
   parsed with Spp_obs.Promtext) once before and once after it. Layers
   that run inside a daemon are then timed by replaying the same request
   lines through the calls the server makes, in this process, once
   without spans and once with a span around every call (one
   Spp_obs.Trace per request). In-process workloads do the same replay
   directly. Layers a workload does not exercise report 0. *)

open Run_ctx
module Q = Spp_num.Rat
module Io = Spp_core.Io
module Engine = Spp_engine.Engine
module Protocol = Spp_server.Protocol
module Json = Spp_server.Json
module Metrics = Spp_obs.Metrics
module Trace = Spp_obs.Trace
module P = Spp_obs.Promtext
module W = Workloads
module D = Daemon

let members = [ "dc"; "f"; "pff"; "wave"; "bb"; "order"; "aptas"; "shelf"; "ls" ]

(* Every per-layer metric, in output order, with its unit. *)
let catalogue =
  [ ("server.request_ms_p50", "ms"); ("server.queue_wait_ms_p99", "ms");
    ("server.cpu_ms_per_req", "ms"); ("server.minor_words_per_req", "words");
    ("server.bytes_out_per_req", "bytes"); ("server.heap_words_end", "words");
    ("server.shed_share", "share"); ("protocol.decode_request_us", "us");
    ("protocol.encode_response_us", "us"); ("io.parse_us", "us");
    ("io.placement_encode_us", "us"); ("fingerprint.us", "us"); ("lower_bounds.us", "us");
    ("engine.hit_us", "us"); ("engine.hit_share", "share");
    ("engine.retained_words_per_solve", "words"); ("race.wall_ms", "ms");
    ("race.wait_after_best_ms", "ms"); ("race.seq_over_wall", "ratio");
    ("race.winner_time_share", "share"); ("race.gap_zero_share", "share") ]
  @ List.map (fun m -> ("race.member_ms." ^ m, "ms")) members
  @ [ ("parallel.map_overhead_ms", "ms"); ("validate.us_per_solve", "us");
      ("normal_bb.nodes", "count"); ("normal_bb.pruned", "count");
      ("normal_bb.dominated", "count"); ("normal_bb.ms", "ms"); ("order_search.nodes", "count");
      ("order_search.ms", "ms"); ("aptas.ms", "ms"); ("grouping.round_ms", "ms");
      ("grouping.group_ms", "ms"); ("config_colgen.ms", "ms"); ("config_colgen.rounds", "count");
      ("config_colgen.columns", "count"); ("simplex.pivots", "count");
      ("proxy.request_ms_p50", "ms"); ("proxy.upstream_ms_p50", "ms");
      ("proxy.cache_hit_share", "share"); ("proxy.coalesced_share", "share");
      ("proxy.cpu_ms_per_req", "ms"); ("proxy.minor_words_per_req", "words");
      ("ring.route_us", "us"); ("sim.repacks", "count"); ("sim.cells_migrated", "count");
      ("sim.frag_mean", "share"); ("sim.max_pending", "count"); ("sim.repack_share", "share");
      ("sim.minor_words_per_arrival", "words"); ("sim.check_ms", "ms");
      ("trace.overhead_share", "share") ]

type acc = (string, float) Hashtbl.t

let set (acc : acc) k v =
  if not (List.mem_assoc k catalogue) then invalid_arg ("unknown layer metric " ^ k);
  if Float.is_finite v then Hashtbl.replace acc k v

let to_metrics (acc : acc) =
  List.map
    (fun (k, u) -> Measure.metric k u (Option.value (Hashtbl.find_opt acc k) ~default:0.0))
    catalogue

let time_ms f =
  let t0 = Measure.now_ms () in
  let v = f () in
  (v, Measure.now_ms () -. t0)

let mean_of = function [] -> 0.0 | xs -> Spp_util.Stats.mean xs

(* ---- spans ---- *)

let num k j = Option.bind (Json.member k j) Json.get_float |> Option.value ~default:0.0

(* The root span of a finished trace, as the JSON tree [Trace.to_json]
   renders: each span has [name], [start_ms], [ms] and its [spans]. *)
let trace_root tr =
  match Json.of_string (Trace.to_json tr) with
  | Ok j -> Option.value (Json.member "root" j) ~default:j
  | Error e -> failwith e

let children j = match Json.member "spans" j with Some (Json.List l) -> l | _ -> []

(* (name, self ms) of every span of [tr]: its duration minus the union
   of its children's intervals, clipped to it. *)
let self_times tr =
  let rec go acc j =
    let t0 = num "start_ms" j in
    let t1 = t0 +. num "ms" j in
    let covered, _ =
      List.map (fun c -> (Float.max t0 (num "start_ms" c), Float.min t1 (num "start_ms" c +. num "ms" c)))
        (children j)
      |> List.sort compare
      |> List.fold_left
           (fun (acc, upto) (a, b) ->
             let a = Float.max a upto in
             if b > a then (acc +. (b -. a), b) else (acc, upto))
           (0.0, neg_infinity)
    in
    let name = match Json.member "name" j with Some (Json.String n) -> n | _ -> "" in
    List.fold_left go ((name, t1 -. t0 -. covered) :: acc) (children j)
  in
  go [] (trace_root tr)

(* Median self time in ms of the spans named [name] over [selfs], one
   list per request. *)
let median_self_ms selfs name =
  match List.concat_map (List.filter_map (fun (n, v) -> if n = name then Some v else None)) selfs with
  | [] -> 0.0
  | xs -> Spp_util.Stats.median xs

(* One request's trace: a root span [request], whose id is the request's
   index in the replay. *)
let request_trace i = Trace.create ~id:(string_of_int i) ~name:"request" ()

(* One JSON line per request, in replay order. *)
let write_traces cfg workload traces =
  let oc =
    open_out
      (Filename.concat (Filename.concat (Filename.dirname cfg.dir) "traces")
         (Printf.sprintf "%s-seed%d.jsonl" workload cfg.seed))
  in
  Array.iter (fun tr -> output_string oc (Trace.to_json tr); output_char oc '\n') traces;
  close_out oc

(* ---- the request pipeline, replayed in process ---- *)

(* The calls a daemon makes for one solve line, in order: decode, parse,
   engine, encode the placement, encode the reply. [Engine.solve] takes
   the fingerprint and the lower bound itself, so [engine.solve] covers
   both. With [trace], each call is a span under the request's root. *)
let pipeline ?trace engine line =
  let call name f =
    match trace with None -> f () | Some tr -> Trace.with_span tr ~parent:(Trace.root tr) name (fun _ -> f ())
  in
  match call "protocol.decode_request" (fun () -> Protocol.decode_request line) with
  | Ok (Protocol.Solve { instance; _ }) ->
    let parsed = call "io.parse" (fun () -> Io.parse_string instance) in
    let r = call "engine.solve" (fun () -> Engine.solve engine parsed) in
    let placement = call "io.placement_encode" (fun () -> Io.placement_to_string r.Engine.placement) in
    let reply =
      call "protocol.encode_response" (fun () ->
          Protocol.encode_response
            (Protocol.Solve_ok
               { winner = r.Engine.winner; source = "computed"; height = Q.to_string r.Engine.height;
                 time_ms = r.Engine.time_ms; placement; degraded = r.Engine.degraded;
                 lower_bound = Some (Q.to_string r.Engine.lower_bound);
                 gap = Some (Q.to_string r.Engine.gap); trace_id = None; trace = None }))
    in
    ignore (Sys.opaque_identity reply);
    (parsed, r)
  | _ -> failwith "benchmark request line is not a solve"

type replay = {
  traces : Trace.t array;  (** the traced pass, one per request *)
  ops : int;
  untraced_ms : float;  (** mean of the untraced passes before and after the traced one *)
  traced_ms : float;
  untraced_lat : float list;  (** per-op latency of the first untraced pass *)
  hits : (int, unit) Hashtbl.t;  (** requests the engine answered from its cache *)
  answers : (Io.parsed * Engine.result) array;  (** traced pass *)
}

(* One untraced pass over the first [ops] lines (or, with [budget_ms],
   over as many as fit): (ops, wall ms, per-op latencies). *)
let untraced_pass e ?budget_ms ~ops lines =
  let deadline = Measure.now_ms () +. Option.value budget_ms ~default:infinity in
  let lat = ref [] in
  let t0 = Measure.now_ms () in
  let rec go i =
    if i < ops && (i = 0 || Measure.now_ms () < deadline) then begin
      let a = Measure.now_ms () in
      ignore (Sys.opaque_identity (pipeline e lines.(i)));
      lat := (Measure.now_ms () -. a) :: !lat;
      go (i + 1)
    end
    else i
  in
  let n = go 0 in
  (n, Measure.now_ms () -. t0, !lat)

(* The first untraced pass runs for [budget_ms]; the traced pass, then a
   second untraced pass, replay exactly the same ops. Each pass gets its
   own engine from [engine], so a miss stays a miss in all three. *)
let replay ~engine ~budget_ms lines =
  let ops, first_ms, lat = untraced_pass (engine ()) ~budget_ms ~ops:(Array.length lines) lines in
  let e = engine () in
  let hits = Hashtbl.create 64 in
  let t1 = Measure.now_ms () in
  let rows =
    Array.init ops (fun i ->
        let tr = request_trace i in
        let ((_, r) as a) = pipeline ~trace:tr e lines.(i) in
        Trace.close tr;
        if r.Engine.source <> Engine.Computed then Hashtbl.replace hits i ();
        (tr, a))
  in
  let traced_ms = Measure.now_ms () -. t1 in
  let traces = Array.map fst rows and answers = Array.map snd rows in
  let _, second_ms, _ = untraced_pass (engine ()) ~ops lines in
  { traces; ops; untraced_ms = (first_ms +. second_ms) /. 2.0; traced_ms; untraced_lat = lat; hits;
    answers }

let pipeline_layers =
  [ ("protocol.decode_request", "protocol.decode_request_us"); ("io.parse", "io.parse_us");
    ("io.placement_encode", "io.placement_encode_us");
    ("protocol.encode_response", "protocol.encode_response_us") ]

(* [Fingerprint.parsed] and the exact lower bound, which [Engine.solve]
   runs before its cache probe, timed in a pass of their own over at
   most 200 of the replayed instances: (fingerprint ms, lower bound ms),
   medians. *)
let front_costs acc (answers : (Io.parsed * Engine.result) array) =
  let sample = Array.to_list (Array.sub answers 0 (min 200 (Array.length answers))) in
  let median f = Spp_util.Stats.median (List.map (fun (p, _) -> snd (time_ms (fun () -> f p))) sample) in
  if sample = [] then (0.0, 0.0)
  else begin
    let fp = median (fun p -> ignore (Sys.opaque_identity (Spp_engine.Fingerprint.parsed p))) in
    let lb = median (fun p -> ignore (Sys.opaque_identity (Check.lower_bound p))) in
    set acc "fingerprint.us" (1000.0 *. fp);
    set acc "lower_bounds.us" (1000.0 *. lb);
    (fp, lb)
  end

(* Per-layer medians from the spans, the overhead of recording them,
   and the self-time table printed next to the untraced median op
   latency the layers should account for. [engine.hit_us] is the
   engine's self time on a cache hit, fingerprint and lower bound
   included. *)
let replay_metrics acc r =
  let selfs = Array.to_list (Array.map self_times r.traces) in
  List.iter
    (fun (span, metric) -> set acc metric (1000.0 *. median_self_ms selfs span))
    pipeline_layers;
  let hit_selfs = List.filteri (fun i _ -> Hashtbl.mem r.hits i) selfs in
  if hit_selfs <> [] then set acc "engine.hit_us" (1000.0 *. median_self_ms hit_selfs "engine.solve");
  set acc "trace.overhead_share" ((r.traced_ms -. r.untraced_ms) /. r.untraced_ms);
  let fp, lb = front_costs acc r.answers in
  let table =
    List.map
      (fun name -> (name, median_self_ms selfs name))
      [ "request"; "protocol.decode_request"; "io.parse"; "engine.solve"; "io.placement_encode";
        "protocol.encode_response" ]
  in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 table in
  Printf.sprintf "self time per request, median over %d traced ops (us): %s; sum %.1f us \
                  (engine.solve includes fingerprint %.1f and lower bound %.1f, timed apart); \
                  untraced median op latency %.1f us"
    r.ops
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s %.1f" n (1000.0 *. v)) table))
    (1000.0 *. sum) (1000.0 *. fp) (1000.0 *. lb)
    (1000.0 *. Spp_util.Stats.median r.untraced_lat)

(* Validate the traced answers: the first answer for each key (the
   stream's instance index) once, and every later one must repeat it. *)
let replay_failures r ~key =
  let first = Hashtbl.create 64 in
  let failed = ref 0 in
  Array.iteri
    (fun i (parsed, (res : Engine.result)) ->
      let ok =
        match Hashtbl.find_opt first (key i) with
        | Some (h, p) -> Q.equal h res.Engine.height && (p == res.Engine.placement || p = res.Engine.placement)
        | None ->
          Hashtbl.add first (key i) (res.Engine.height, res.Engine.placement);
          W.engine_answer_ok { Inputs.text = ""; parsed } res
      in
      if not ok then incr failed)
    r.answers;
  !failed

(* ---- daemon series ---- *)

let hist_delta before after name =
  match (P.histogram before name, P.histogram after name) with
  | Some b, Some a when List.length b.Metrics.buckets = List.length a.Metrics.buckets ->
    Some
      { Metrics.buckets = List.map2 (fun (ub, cb) (_, ca) -> (ub, ca - cb)) b.buckets a.buckets;
        total = a.total - b.total; sum = a.sum -. b.sum }
  | None, Some a -> Some a
  | _ -> None

let merge_hist a b =
  match (a, b) with
  | Some a, Some b when List.length a.Metrics.buckets = List.length b.Metrics.buckets ->
    Some
      { Metrics.buckets = List.map2 (fun (ub, x) (_, y) -> (ub, x + y)) a.buckets b.buckets;
        total = a.total + b.total; sum = a.sum +. b.sum }
  | Some a, None | None, Some a -> Some a
  | _ -> None

let quantile h q = match h with Some h when h.Metrics.total > 0 -> Metrics.hist_quantile h q | _ -> 0.0

let delta (before, after) name = P.sum after name -. P.sum before name
let delta_l (before, after) ~labels name =
  Option.value (P.value ~labels after name) ~default:0.0
  -. Option.value (P.value ~labels before name) ~default:0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The runtime sampler publishes once a second: let it catch up before
   each scrape so the CPU and allocation deltas cover the window. *)
let settle cfg = Thread.delay (if cfg.quick then 0.05 else 1.1)

(* [server.*] from one or more backends' (before, after) scrapes. *)
let server_series acc scrapes =
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 scrapes in
  let reqs = sum (fun s -> delta_l s ~labels:[ ("op", "solve") ] "spp_requests_total") in
  let hist name =
    List.fold_left (fun h (b, a) -> merge_hist h (hist_delta b a name)) None scrapes
  in
  set acc "server.request_ms_p50" (quantile (hist "spp_request_ms") 0.5);
  set acc "server.queue_wait_ms_p99" (quantile (hist "spp_queue_wait_ms") 0.99);
  set acc "server.cpu_ms_per_req" (ratio (1000.0 *. sum (fun s -> delta s "spp_process_cpu_seconds")) reqs);
  set acc "server.minor_words_per_req" (ratio (sum (fun s -> delta s "spp_gc_minor_words_total")) reqs);
  set acc "server.bytes_out_per_req" (ratio (sum (fun s -> delta s "spp_bytes_written_total")) reqs);
  set acc "server.heap_words_end" (sum (fun (_, a) -> P.sum a "spp_gc_heap_words"));
  set acc "server.shed_share" (ratio (sum (fun s -> delta s "spp_requests_shed_total")) reqs);
  set acc "engine.hit_share" (ratio (sum (fun s -> delta s "cache_hit")) (sum (fun s -> delta s "solve_runs")))

let proxy_series acc s =
  let reqs = delta_l s ~labels:[ ("op", "solve") ] "spp_proxy_ops_total" in
  let b, a = s in
  set acc "proxy.request_ms_p50" (quantile (hist_delta b a "spp_proxy_request_ms") 0.5);
  set acc "proxy.upstream_ms_p50" (quantile (hist_delta b a "spp_proxy_upstream_ms") 0.5);
  set acc "proxy.cache_hit_share" (ratio (delta s "spp_proxy_cache_hits_total") reqs);
  set acc "proxy.coalesced_share" (ratio (delta s "spp_proxy_coalesced_total") reqs);
  set acc "proxy.cpu_ms_per_req" (ratio (1000.0 *. delta s "spp_process_cpu_seconds") reqs);
  set acc "proxy.minor_words_per_req" (ratio (delta s "spp_gc_minor_words_total") reqs)

(* ---- probes shared by several workloads ---- *)

(* Domain spawn and join for one two-worker map of trivial tasks. *)
let parallel_overhead acc =
  let runs = List.init 200 (fun _ -> snd (time_ms (fun () -> Spp_util.Parallel.map ~workers:2 Fun.id [ 1; 2 ]))) in
  set acc "parallel.map_overhead_ms" (Spp_util.Stats.median runs)

(* Median cost of validating one answer, over at most 200 of them. *)
let validate_cost acc (answers : (Io.parsed * Engine.result) array) =
  let ts =
    Array.to_list (Array.sub answers 0 (min 200 (Array.length answers)))
    |> List.map (fun (p, r) -> snd (time_ms (fun () -> Check.violations p r.Engine.placement)))
  in
  if ts <> [] then set acc "validate.us_per_solve" (1000.0 *. Spp_util.Stats.median ts)

(* Live words the engine retains per cache-hit solve: an engine whose
   LRU is already full answers [n] hits; live words after a compaction,
   before and after, with the engine reachable across both. *)
let retained_words acc (items : Inputs.item array) =
  let e = Engine.create ~cache_capacity:(Array.length items) () in
  Array.iter (fun (it : Inputs.item) -> ignore (Engine.solve e it.Inputs.parsed)) items;
  let live () = Gc.compact (); (Gc.stat ()).Gc.live_words in
  let before = live () in
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Engine.solve e items.(i mod Array.length items).Inputs.parsed))
  done;
  let after = live () in
  ignore (Sys.opaque_identity e);
  set acc "engine.retained_words_per_solve" (float_of_int (after - before) /. float_of_int n)

(* Members alone on [items]: mean time of each, plus the exact-solver
   Profile counts. *)
let members_alone acc (items : Inputs.item array) =
  let per = Hashtbl.create 16 in
  Array.iter
    (fun (it : Inputs.item) ->
      List.iter
        (fun (name, ms, prof) -> Hashtbl.add per name (ms, prof))
        (W.members_alone it.Inputs.parsed))
    items;
  List.iter
    (fun m ->
      match Hashtbl.find_all per m with
      | [] -> ()
      | runs -> set acc ("race.member_ms." ^ m) (mean_of (List.map fst runs)))
    members;
  let counts m f = mean_of (List.map (fun (_, p) -> float_of_int (f p)) (Hashtbl.find_all per m)) in
  if Hashtbl.mem per "bb" then begin
    set acc "normal_bb.nodes" (counts "bb" (fun p -> p.Spp_obs.Profile.bb_nodes));
    set acc "normal_bb.pruned" (counts "bb" (fun p -> p.Spp_obs.Profile.bb_pruned));
    set acc "normal_bb.dominated" (counts "bb" (fun p -> p.Spp_obs.Profile.bb_dominated));
    set acc "normal_bb.ms" (mean_of (List.map fst (Hashtbl.find_all per "bb")))
  end;
  if Hashtbl.mem per "order" then begin
    set acc "order_search.nodes" (counts "order" (fun p -> p.Spp_obs.Profile.bb_nodes));
    set acc "order_search.ms" (mean_of (List.map fst (Hashtbl.find_all per "order")))
  end;
  if Hashtbl.mem per "aptas" then begin
    set acc "aptas.ms" (mean_of (List.map fst (Hashtbl.find_all per "aptas")));
    set acc "simplex.pivots" (counts "aptas" (fun p -> p.Spp_obs.Profile.pivots))
  end;
  per

(* The APTAS phases at the portfolio's epsilon = 1: release rounding
   and width grouping as [Aptas.solve] runs them, then the
   configuration LP by column generation. *)
let aptas_phases acc (insts : Spp_core.Instance.Release.t list) =
  let eps' = Q.of_ints 1 3 in
  let rows =
    List.map
      (fun (inst : Spp_core.Instance.Release.t) ->
        let p_r, round_ms = time_ms (fun () -> Spp_core.Grouping.round_releases ~epsilon_r:eps' inst) in
        let p_rw, group_ms =
          time_ms (fun () ->
              Spp_core.Grouping.group_widths ~groups_per_class:(3 * inst.Spp_core.Instance.Release.k) p_r)
        in
        let (_, prof), cg_ms =
          time_ms (fun () -> W.profiled (fun () -> Spp_core.Config_colgen.solve p_rw))
        in
        (round_ms, group_ms, cg_ms, prof))
      insts
  in
  if rows <> [] then begin
    let m f = mean_of (List.map f rows) in
    set acc "grouping.round_ms" (m (fun (a, _, _, _) -> a));
    set acc "grouping.group_ms" (m (fun (_, b, _, _) -> b));
    set acc "config_colgen.ms" (m (fun (_, _, c, _) -> c));
    set acc "config_colgen.rounds" (m (fun (_, _, _, p) -> float_of_int p.Spp_obs.Profile.colgen_rounds));
    set acc "config_colgen.columns" (m (fun (_, _, _, p) -> float_of_int p.Spp_obs.Profile.colgen_columns))
  end

(* ---- race analysis from the engine's own span tree ---- *)

let rec find_spans name (j : Json.t) =
  let here =
    match Json.member "name" j with Some (Json.String n) when n = name -> [ j ] | _ -> []
  in
  here @ List.concat_map (find_spans name) (children j)

(* One traced miss: wall time, the wait after the first member that
   reached the returned height finished, and the winner's share of all
   member time. *)
let race_one engine parsed =
  let tr = Trace.create ~name:"perfbench" () in
  let r = Engine.solve ~trace:tr engine parsed in
  let root = trace_root tr in
  let race_end =
    match find_spans "race" root with r :: _ -> num "start_ms" r +. num "ms" r | [] -> nan
  in
  let best_end =
    List.fold_left
      (fun acc (o : Engine.outcome) ->
        match o.Engine.height with
        | Some h when Q.equal h r.Engine.height -> (
          match find_spans ("algo:" ^ o.Engine.solver) root with
          | s :: _ -> Float.min acc (num "start_ms" s +. num "ms" s)
          | [] -> acc)
        | _ -> acc)
      infinity r.Engine.outcomes
  in
  let raced =
    List.filter (fun (o : Engine.outcome) -> match o.Engine.status with Engine.Skipped _ -> false | _ -> true)
      r.Engine.outcomes
  in
  let all = List.fold_left (fun a (o : Engine.outcome) -> a +. o.Engine.time_ms) 0.0 raced in
  let win =
    List.fold_left
      (fun a (o : Engine.outcome) -> if o.Engine.solver = r.Engine.winner then a +. o.Engine.time_ms else a)
      0.0 raced
  in
  (r, race_end -. best_end, ratio win all)

let race_metrics acc (items : Inputs.item array) per_member =
  let engine = Engine.create () in
  let rows = Array.to_list (Array.map (fun (it : Inputs.item) -> race_one engine it.Inputs.parsed) items) in
  let walls = List.map (fun (r, _, _) -> r.Engine.time_ms) rows in
  set acc "race.wall_ms" (mean_of walls);
  set acc "race.wait_after_best_ms" (mean_of (List.map (fun (_, w, _) -> w) rows));
  set acc "race.winner_time_share" (mean_of (List.map (fun (_, _, s) -> s) rows));
  set acc "race.gap_zero_share"
    (mean_of (List.map (fun (r, _, _) -> if Q.is_zero r.Engine.gap then 1.0 else 0.0) rows));
  let seq = Hashtbl.fold (fun _ (ms, _) a -> a +. ms) per_member 0.0 in
  set acc "race.seq_over_wall" (ratio seq (List.fold_left ( +. ) 0.0 walls));
  List.length (List.filteri (fun i (r, _, _) -> not (W.engine_answer_ok items.(i) r)) rows)

(* ---- the four workloads ---- *)

let outcome ~attempted ~failed ~gate ~notes acc =
  { correct = failed = 0; attempted; failed; metrics = to_metrics acc; notes; gate }

let replay_budget_ms cfg = cfg.seconds *. 1000.0 /. 3.0

(* A daemon workload: the timed window against fresh daemons with
   scrapes around it, then the in-process replay of the same lines. *)
let daemon cfg workload ~stream ~cluster ~series ~probe =
  let acc = Hashtbl.create 64 in
  let st, c, warm = W.daemon_setup ~stream ~cluster () in
  settle cfg;
  let before = List.map (fun d -> (d, D.scrape d)) c.W.all in
  let run =
    Loadgen.drive ~address:c.W.front.D.address ~lines:st.Inputs.lines ~order:st.Inputs.order ~conns:2
      ~seconds:cfg.seconds
  in
  settle cfg;
  let after = List.map (fun d -> (d, D.scrape d)) c.W.all in
  W.shutdown_cluster c;
  let warm_failed, failed, _ = W.check_daemon_run st warm run in
  series acc (List.map2 (fun (d, b) (_, a) -> (d, (b, a))) before after);
  let lines = Array.map (fun i -> st.Inputs.lines.(i)) st.Inputs.order in
  let warm_items = Array.map (fun i -> st.Inputs.items.(i)) st.Inputs.warm in
  let engine () =
    let e = Engine.create () in
    Array.iter (fun (it : Inputs.item) -> ignore (Engine.solve e it.Inputs.parsed)) warm_items;
    e
  in
  let r = replay ~engine ~budget_ms:(replay_budget_ms cfg) lines in
  let table = replay_metrics acc r in
  write_traces cfg workload r.traces;
  validate_cost acc r.answers;
  parallel_overhead acc;
  probe acc st r;
  outcome ~attempted:(Array.length run.Loadgen.ops)
    ~failed:(warm_failed + failed + replay_failures r ~key:(fun i -> st.Inputs.order.(i)))
    ~gate:(W.stream_gate st ~stream)
    ~notes:[ table ] acc

let serve_hot cfg =
  daemon cfg "serve_hot" ~stream:(W.serve_hot_stream cfg) ~cluster:(W.serve_cluster cfg)
    ~series:(fun acc s -> server_series acc (List.map snd s))
    ~probe:(fun acc st _ ->
      ignore (members_alone acc st.Inputs.items);
      retained_words acc st.Inputs.items)

let proxy_mix cfg =
  daemon cfg "proxy_mix" ~stream:(W.proxy_mix_stream cfg) ~cluster:(W.proxy_cluster cfg)
    ~series:(fun acc s ->
      match s with
      | (_, proxy) :: backends ->
        proxy_series acc proxy;
        server_series acc (List.map snd backends)
      | [] -> ())
    ~probe:(fun acc st r ->
      let fresh =
        Array.of_list
          (List.filteri (fun i _ -> i < 200 && not (Hashtbl.mem r.hits i))
             (Array.to_list (Array.map (fun (p, _) -> { Inputs.text = ""; parsed = p }) r.answers)))
      in
      ignore (members_alone acc fresh);
      retained_words acc (Array.map (fun i -> st.Inputs.items.(i)) st.Inputs.warm);
      let ring = Spp_cluster.Ring.create [ "unix:backend1.sock"; "unix:backend2.sock" ] in
      let keys =
        Array.map (fun (it : Inputs.item) -> Spp_engine.Fingerprint.parsed it.Inputs.parsed) st.Inputs.items
      in
      let n = 20_000 in
      let (), ms =
        time_ms (fun () ->
            for i = 0 to n - 1 do
              ignore (Sys.opaque_identity (Spp_cluster.Ring.route ring keys.(i mod Array.length keys)))
            done)
      in
      set acc "ring.route_us" (1000.0 *. ms /. float_of_int n))

let cold_race cfg =
  let acc = Hashtbl.create 64 in
  let items = W.cold_race_items cfg () in
  let lines = Array.map (fun (it : Inputs.item) -> Inputs.solve_line it.Inputs.text) items in
  let r = replay ~engine:(fun () -> Engine.create ()) ~budget_ms:(replay_budget_ms cfg) lines in
  let table = replay_metrics acc r in
  write_traces cfg "cold_race" r.traces;
  validate_cost acc r.answers;
  parallel_overhead acc;
  (* Race analysis on a sample of up to 40 instances per kind. *)
  let sample = Array.sub items 0 (min (Array.length items) (min r.ops 160)) in
  let per = members_alone acc sample in
  let race_failed = race_metrics acc sample per in
  aptas_phases acc
    (List.filter_map
       (fun (it : Inputs.item) -> match it.Inputs.parsed with Io.Release i -> Some i | Io.Prec _ -> None)
       (Array.to_list sample));
  outcome ~attempted:r.ops ~failed:(replay_failures r ~key:Fun.id + race_failed)
    ~gate:
      (Gate.diff
         (("stream_digest", W.cold_race_digest items) :: W.member_counts items 4)
         (("stream_digest", W.cold_race_digest (W.cold_race_items cfg ())) :: W.member_counts items 4))
    ~notes:[ table ] acc

let sim_stream cfg =
  let acc = Hashtbl.create 64 in
  let traces = W.sim_pool cfg () in
  let p = Array.length traces in
  (* Untraced pass for the budget; a traced pass, then a second untraced
     pass, over the same replays. *)
  let deadline = Measure.now_ms () +. replay_budget_ms cfg in
  let (ops, lat), untraced_ms =
    time_ms (fun () ->
        let rec go i lat =
          if i = 0 || Measure.now_ms () < deadline then begin
            let _, ms = time_ms (fun () -> W.sim_run traces.(i mod p)) in
            go (i + 1) (ms :: lat)
          end
          else (i, lat)
        in
        go 0 [])
  in
  let rows, traced_ms =
    time_ms (fun () ->
        Array.init ops (fun i ->
            let tr = request_trace i in
            let r = Trace.with_span tr ~parent:(Trace.root tr) "sim.run" (fun _ -> W.sim_run traces.(i mod p)) in
            Trace.close tr;
            (tr, r)))
  in
  let spans = Array.map fst rows and reports = Array.map snd rows in
  let (), second_ms =
    time_ms (fun () -> for i = 0 to ops - 1 do ignore (W.sim_run traces.(i mod p)) done)
  in
  let untraced_ms = (untraced_ms +. second_ms) /. 2.0 in
  set acc "trace.overhead_share" ((traced_ms -. untraced_ms) /. untraced_ms);
  let first = Array.init (min p ops) (fun j -> reports.(j)) in
  let checks = Array.mapi (fun j r -> time_ms (fun () -> Spp_sim.Sim.check traces.(j) r)) first in
  let failed =
    Array.fold_left (fun a (v, _) -> if v = [] then a else a + 1) 0 checks
    + Array.fold_left
        (fun a (i, r) -> if W.sim_summary r = W.sim_summary first.(i mod p) then a else a + 1)
        0
        (Array.mapi (fun i r -> (i, r)) reports)
  in
  let m f = mean_of (Array.to_list (Array.map f first)) in
  set acc "sim.repacks" (m (fun r -> float_of_int (List.length r.Spp_sim.Sim.repacks)));
  set acc "sim.cells_migrated" (m (fun r -> float_of_int r.Spp_sim.Sim.cells_migrated));
  set acc "sim.frag_mean" (m (fun r -> Q.to_float r.Spp_sim.Sim.frag_mean));
  set acc "sim.max_pending" (m (fun r -> float_of_int r.Spp_sim.Sim.max_pending));
  set acc "sim.check_ms" (mean_of (Array.to_list (Array.map snd checks)));
  let with_, without, words =
    Array.fold_left
      (fun (w, wo, words) inst ->
        let m0 = Gc.minor_words () in
        let _, a = time_ms (fun () -> W.sim_run inst) in
        let alloc = Gc.minor_words () -. m0 in
        let _, b = time_ms (fun () -> W.sim_run ~repack:false inst) in
        (w +. a, wo +. b, words +. (alloc /. float_of_int (Spp_core.Instance.Release.size inst))))
      (0.0, 0.0, 0.0) (Array.sub traces 0 (min p 8))
  in
  set acc "sim.repack_share" (ratio (with_ -. without) with_);
  set acc "sim.minor_words_per_arrival" (words /. float_of_int (min p 8));
  parallel_overhead acc;
  write_traces cfg "sim_stream" spans;
  let selfs = Array.to_list (Array.map self_times spans) in
  let note =
    Printf.sprintf "self time per replay, median over %d traced replays (ms): request %.3f, \
                    sim.run %.3f; untraced median replay %.3f ms"
      ops (median_self_ms selfs "request") (median_self_ms selfs "sim.run")
      (Spp_util.Stats.median lat)
  in
  outcome ~attempted:ops ~failed
    ~gate:(Gate.diff (W.sim_record traces) (W.sim_record (W.sim_pool cfg ())))
    ~notes:[ note ] acc

let run workload cfg =
  match workload with
  | "serve_hot" -> serve_hot cfg
  | "proxy_mix" -> proxy_mix cfg
  | "cold_race" -> cold_race cfg
  | "sim_stream" -> sim_stream cfg
  | w -> invalid_arg ("unknown workload " ^ w)
