(* The four workloads, timed with tracing off. Each returns the eight
   end-to-end metrics and what the determinism gate found. The traced
   run lives in [Layers]. *)

open Run_ctx
module Q = Spp_num.Rat
module Io = Spp_core.Io
module Engine = Spp_engine.Engine
module Portfolio = Spp_engine.Portfolio
module Profile = Spp_obs.Profile
module D = Daemon

(* height_ratio is the mean over this many leading ops of the stream,
   so it is the same number at a given seed whatever a run's length. *)
let ratio_prefix = 200

let setups cfg = if cfg.quick then 1 else 3

(* An in-process set-up takes about 0.1 s, so more repetitions are
   cheap and steady its median. *)
let in_process_setups cfg = if cfg.quick then 1 else 9

let fmt_float = Printf.sprintf "%.17g"

(* Exact Profile counts of [f] on this domain. *)
let profiled f =
  Profile.reset ();
  let v = f () in
  (v, Profile.read ())

let profile_fields prefix (p : Profile.snapshot) =
  [ (prefix ^ ".pivots", string_of_int p.pivots);
    (prefix ^ ".bb_nodes", string_of_int p.bb_nodes);
    (prefix ^ ".bb_pruned", string_of_int p.bb_pruned);
    (prefix ^ ".bb_dominated", string_of_int p.bb_dominated);
    (prefix ^ ".colgen_columns", string_of_int p.colgen_columns);
    (prefix ^ ".colgen_rounds", string_of_int p.colgen_rounds) ]

(* Each applicable portfolio member run alone on [parsed]: its name,
   wall time and exact Profile counts. *)
let members_alone parsed =
  List.map
    (fun (spec : Portfolio.spec) ->
      let t0 = Measure.now_ms () in
      let _, prof = profiled (fun () -> spec.Portfolio.run ~cancel:Spp_util.Cancel.never parsed) in
      (spec.Portfolio.name, Measure.now_ms () -. t0, prof))
    (Portfolio.defaults parsed)

(* The determinism gate's Profile counts: every member alone on each of
   the first [k] instances. Each call runs the members again. *)
let member_counts (items : Inputs.item array) k =
  List.concat
    (List.init (min k (Array.length items)) (fun i ->
         List.concat_map
           (fun (name, _, prof) -> profile_fields (Printf.sprintf "profile.%d.%s" i name) prof)
           (members_alone items.(i).Inputs.parsed)))

(* ---- daemon workloads ---- *)

type cluster = { front : D.t; all : D.t list }

let serve_cluster cfg () =
  let s = D.serve ~spp:cfg.spp ~dir:cfg.dir "serve" in
  D.wait_ready s;
  { front = s; all = [ s ] }

let proxy_cluster cfg () =
  let b1 = D.serve ~spp:cfg.spp ~dir:cfg.dir "backend1" in
  let b2 = D.serve ~spp:cfg.spp ~dir:cfg.dir "backend2" in
  D.wait_ready b1;
  D.wait_ready b2;
  let p = D.proxy ~spp:cfg.spp ~dir:cfg.dir "proxy" [ b1; b2 ] in
  D.wait_ready p;
  { front = p; all = [ p; b1; b2 ] }

let shutdown_cluster c = List.iter D.shutdown c.all

(* Set-up for a daemon workload: generate the stream, start fresh
   daemons, answer every warm instance once. *)
let daemon_setup ~stream ~cluster () =
  let st = stream () in
  let c = cluster () in
  let warm =
    Loadgen.sequential ~address:c.front.D.address
      (Array.map (fun i -> st.Inputs.lines.(i)) st.Inputs.warm)
  in
  (st, c, warm)

(* Stream lengths scale with the window at a fixed rate well above what
   the program reaches today; a run that exhausts its stream stops early
   and still reports ops over elapsed time. The floor keeps the
   height-ratio and digest prefixes inside every stream. *)
let stream_ops cfg ~per_s ~ops_quick =
  if cfg.quick then ops_quick else max 1000 (int_of_float (cfg.seconds *. per_s))

(* Check the warm answers, then every timed op against them. *)
let check_daemon_run (st : Inputs.stream) warm (run : Loadgen.run) =
  let lbs = Array.map (fun (it : Inputs.item) -> Check.lower_bound it.Inputs.parsed) st.items in
  let first = Hashtbl.create 64 in
  let warm_failed, _ =
    Check.daemon_ops ~items:st.items ~lbs ~first
      (Array.mapi (fun k r -> (st.Inputs.warm.(k), r)) warm)
  in
  let ops = Array.map (fun (o : Loadgen.op) -> (st.Inputs.order.(o.pos), o.reply)) run.ops in
  let failed, ratios = Check.daemon_ops ~items:st.items ~lbs ~first ops in
  let prefix =
    Array.of_list
      (List.filteri (fun k _ -> (run.ops.(k)).Loadgen.pos < ratio_prefix) (Array.to_list ratios))
  in
  (warm_failed, failed, E2e.finite_mean prefix)

(* The daemon run's height ratio computed again in this process: every
   instance of the prefix solved once by a fresh engine, averaged over
   the same ops in the same order. *)
let engine_ratio (st : Inputs.stream) (run : Loadgen.run) =
  let e = Engine.create () in
  let memo = Hashtbl.create 64 in
  let ratio i =
    match Hashtbl.find_opt memo i with
    | Some v -> v
    | None ->
      let r = Engine.solve e st.Inputs.items.(i).Inputs.parsed in
      let v = Check.ratio r.Engine.height r.Engine.lower_bound in
      Hashtbl.add memo i v;
      v
  in
  Array.to_list run.Loadgen.ops
  |> List.filter_map (fun (o : Loadgen.op) ->
         if o.pos < ratio_prefix then Some (ratio st.Inputs.order.(o.pos)) else None)
  |> Array.of_list |> E2e.finite_mean

let serve_hot_stream cfg () =
  Inputs.serve_hot ~quick:cfg.quick ~seed:cfg.seed
    ~ops:(stream_ops cfg ~per_s:4000.0 ~ops_quick:400) ()

let proxy_mix_stream cfg () =
  Inputs.proxy_mix ~quick:cfg.quick ~seed:cfg.seed
    ~ops:(stream_ops cfg ~per_s:1500.0 ~ops_quick:400) ()

(* Profile counts of the members on the first two distinct instances. *)
let stream_counts (st : Inputs.stream) = member_counts st.Inputs.items 2

(* The gate of a daemon workload's traced run: the stream drawn a second
   time and the members run a second time. *)
let stream_gate (st : Inputs.stream) ~stream =
  Gate.diff
    (("stream_digest", st.Inputs.digest) :: stream_counts st)
    (("stream_digest", (stream ()).Inputs.digest) :: stream_counts st)

let daemon_workload cfg ~tail_pct ~stream ~cluster =
  let (st, c, warm), setups_s =
    E2e.repeat_setup ~times:(setups cfg)
      ~setup:(daemon_setup ~stream ~cluster)
      ~teardown:(fun (_, c, _) -> shutdown_cluster c)
  in
  let cpu () = List.fold_left (fun acc d -> acc +. D.cpu_ms d) 0.0 c.all in
  let cpu0 = cpu () in
  let run =
    Loadgen.drive ~address:c.front.D.address ~lines:st.Inputs.lines ~order:st.Inputs.order
      ~conns:2 ~seconds:cfg.seconds
  in
  let cpu_ms = cpu () -. cpu0 in
  let rss = List.fold_left (fun acc d -> acc +. D.rss_peak_mb d) 0.0 c.all in
  shutdown_cluster c;
  let warm_failed, failed, height_ratio = check_daemon_run st warm run in
  let w =
    { E2e.tail_pct; subwindows = 5; setups_s;
      latencies_ms = Array.map (fun (o : Loadgen.op) -> o.latency_ms) run.ops;
      ends_ms = Array.map (fun (o : Loadgen.op) -> o.end_ms) run.ops;
      elapsed_ms = run.elapsed_ms; failed = failed + warm_failed; height_ratio; cpu_ms;
      rss_peak_mb = rss }
  in
  let metrics, note = E2e.metrics w in
  { correct = warm_failed = 0 && failed = 0;
    attempted = Array.length run.ops;
    failed = w.failed;
    metrics;
    notes = [ note ];
    gate =
      Gate.diff
        ([ ("stream_digest", st.Inputs.digest); ("height_ratio", fmt_float height_ratio) ]
         @ stream_counts st)
        ([ ("stream_digest", (stream ()).Inputs.digest);
           ("height_ratio", fmt_float (engine_ratio st run)) ]
         @ stream_counts st) }

let serve_hot cfg =
  daemon_workload cfg ~tail_pct:99.0 ~stream:(serve_hot_stream cfg) ~cluster:(serve_cluster cfg)

let proxy_mix cfg =
  daemon_workload cfg ~tail_pct:99.0 ~stream:(proxy_mix_stream cfg) ~cluster:(proxy_cluster cfg)

(* ---- in-process workloads ---- *)

let cold_race_items cfg () =
  Inputs.cold_race ~quick:cfg.quick ~seed:cfg.seed
    ~ops:(stream_ops cfg ~per_s:250.0 ~ops_quick:24) ()

(* One closed loop on this thread until the window ends or the stream
   runs out: (latencies, completion times relative to the start,
   results, elapsed ms). *)
let timed_loop ~seconds ~len f =
  let start = Measure.now_ms () in
  let deadline = start +. (seconds *. 1000.0) in
  let lat = ref [] and ends = ref [] and res = ref [] in
  let rec go i =
    if i < len && Measure.now_ms () < deadline then begin
      let t0 = Measure.now_ms () in
      let r = f i in
      let t1 = Measure.now_ms () in
      lat := (t1 -. t0) :: !lat;
      ends := (t1 -. start) :: !ends;
      res := r :: !res;
      go (i + 1)
    end
  in
  go 0;
  let elapsed = Measure.now_ms () -. start in
  let arr l = Array.of_list (List.rev !l) in
  (arr lat, arr ends, arr res, elapsed)

let cold_race_digest items =
  Inputs.items_digest (Array.map (fun (it : Inputs.item) -> it.Inputs.text) items)

let engine_answer_ok (it : Inputs.item) (r : Engine.result) =
  let lb = Check.lower_bound it.Inputs.parsed in
  (not r.Engine.degraded)
  && Q.equal r.Engine.lower_bound lb
  && Q.equal r.Engine.gap (Q.sub r.Engine.height lb)
  && Check.placement_ok it.Inputs.parsed ~lb ~height:r.Engine.height r.Engine.placement

let cold_race_ratio_prefix = 400

(* p90, not p95: above p90 the latencies come from a few heavy
   instances, so p95 moved by a quarter between seeds on the same host
   while p90 held. At the slowest rate measured on a contended two-core
   host (about 55 solves/s) each of five slices of a 15 s window still
   holds more than ten samples beyond p90. *)
let cold_race_tail_pct = 90.0

let cold_race cfg =
  let (items, engine), setups_s =
    E2e.repeat_setup ~times:(in_process_setups cfg)
      ~setup:(fun () -> (cold_race_items cfg (), Engine.create ()))
      ~teardown:ignore
  in
  let cpu0 = Measure.self_cpu_ms () in
  let lat, ends, results, elapsed =
    timed_loop ~seconds:cfg.seconds ~len:(Array.length items) (fun i ->
        Engine.solve engine items.(i).Inputs.parsed)
  in
  let cpu_ms = Measure.self_cpu_ms () -. cpu0 in
  let failed = ref 0 in
  Array.iteri (fun i r -> if not (engine_answer_ok items.(i) r) then incr failed) results;
  (* Finish the ratio prefix untimed if the window ended first. *)
  let k = min cold_race_ratio_prefix (Array.length items) in
  let ratio_of (r : Engine.result) = Check.ratio r.Engine.height r.Engine.lower_bound in
  let height_ratio =
    Spp_util.Stats.mean
      (List.init k (fun i ->
           ratio_of
             (if i < Array.length results then results.(i)
              else Engine.solve engine items.(i).Inputs.parsed)))
  in
  (* The gate's second ratio: the same prefix on a fresh engine. *)
  let again = Engine.create () in
  let height_ratio' =
    Spp_util.Stats.mean (List.init k (fun i -> ratio_of (Engine.solve again items.(i).Inputs.parsed)))
  in
  let w =
    { E2e.tail_pct = cold_race_tail_pct; subwindows = 5; setups_s; latencies_ms = lat; ends_ms = ends;
      elapsed_ms = elapsed;
      failed = !failed; height_ratio; cpu_ms; rss_peak_mb = Measure.rss_peak_mb "self" }
  in
  let metrics, note = E2e.metrics w in
  { correct = !failed = 0;
    attempted = Array.length lat;
    failed = !failed;
    metrics;
    notes = [ note ];
    gate =
      Gate.diff
        ([ ("stream_digest", cold_race_digest items); ("height_ratio", fmt_float height_ratio) ]
         @ member_counts items 4)
        ([ ("stream_digest", cold_race_digest (cold_race_items cfg ()));
           ("height_ratio", fmt_float height_ratio') ]
         @ member_counts items 4) }

(* ---- sim_stream ---- *)

let sim_traces cfg = if cfg.quick then 5 else 50

let sim_packer = Spp_sim.Online.Buffered 4
let sim_threshold = Q.of_ints 1 4

let sim_run ?(repack = true) inst =
  Spp_sim.Sim.run
    ?repack_threshold:(if repack then Some sim_threshold else None)
    ~packer:sim_packer inst

(* What a replay of the same trace must reproduce exactly. *)
let sim_summary (r : Spp_sim.Sim.report) =
  ( Q.to_string r.makespan, List.length r.repacks, r.moves, r.cells_migrated,
    Q.to_string r.frag_mean, r.max_pending, List.length r.segments )

let sim_ratio inst (r : Spp_sim.Sim.report) =
  Check.ratio r.Spp_sim.Sim.makespan (Spp_core.Lower_bounds.release inst)

let sim_pool cfg () = Inputs.sim_stream ~quick:cfg.quick ~seed:cfg.seed ~traces:(sim_traces cfg) ()

(* The trace pool's digest and the Profile counts of a replay of its
   first trace. Each call replays it again. *)
let sim_record traces =
  let _, prof = profiled (fun () -> sim_run traces.(0)) in
  ("stream_digest", Inputs.items_digest (Array.map Io.release_to_string traces))
  :: profile_fields "profile.sim" prof

let sim_stream cfg =
  let traces, setups_s =
    E2e.repeat_setup ~times:(in_process_setups cfg) ~setup:(sim_pool cfg) ~teardown:ignore
  in
  let p = Array.length traces in
  let first = Array.make p None in
  let cpu0 = Measure.self_cpu_ms () in
  let lat, ends, summaries, elapsed =
    timed_loop ~seconds:cfg.seconds ~len:max_int (fun i ->
        let r = sim_run traces.(i mod p) in
        if Option.is_none first.(i mod p) then first.(i mod p) <- Some r;
        sim_summary r)
  in
  let cpu_ms = Measure.self_cpu_ms () -. cpu0 in
  (* Every trace replayed at least once, then checked by the oracle. *)
  let reports =
    Array.mapi (fun j f -> match f with Some r -> r | None -> sim_run traces.(j)) first
  in
  let sound = Array.mapi (fun j r -> Spp_sim.Sim.check traces.(j) r = []) reports in
  let failed = ref 0 in
  Array.iteri
    (fun i s ->
      let j = i mod p in
      if not (sound.(j) && s = sim_summary reports.(j)) then incr failed)
    summaries;
  let height_ratio = Spp_util.Stats.mean (Array.to_list (Array.mapi (fun j r -> sim_ratio traces.(j) r) reports)) in
  (* The gate's second ratio: every trace replayed once more. *)
  let height_ratio' =
    Spp_util.Stats.mean (Array.to_list (Array.map (fun inst -> sim_ratio inst (sim_run inst)) traces))
  in
  let w =
    { E2e.tail_pct = 90.0; subwindows = 1; setups_s; latencies_ms = lat; ends_ms = ends;
      elapsed_ms = elapsed;
      failed = !failed; height_ratio; cpu_ms; rss_peak_mb = Measure.rss_peak_mb "self" }
  in
  let metrics, note = E2e.metrics w in
  { correct = !failed = 0 && Array.for_all Fun.id sound;
    attempted = Array.length lat;
    failed = !failed;
    metrics;
    notes = [ note ];
    gate =
      Gate.diff
        (("height_ratio", fmt_float height_ratio) :: sim_record traces)
        (("height_ratio", fmt_float height_ratio')
         :: sim_record (sim_pool cfg ())) }
