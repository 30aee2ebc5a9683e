(* spp — command-line front end.

   Subcommands:
     gen       generate an instance (random/adversarial/pipeline) to stdout
     pack      pack a precedence instance with a chosen algorithm
     solve     portfolio engine: race algorithms under a budget, with caching
     batch     run the engine over every *.spp file in a directory
     aptas     run the release-time APTAS
     bounds    print the lower bounds of an instance
     exact     exact/reference solutions for small instances
     simulate  pack and execute on the simulated FPGA, print a Gantt chart
     sim       event-driven online arrival simulation with live repacking
     serve     long-running engine daemon on a Unix/TCP socket
     proxy     cluster front tier: consistent-hash route over spp serve backends
     client    one request against a running spp serve
     loadgen   closed-loop load generator with latency percentiles
     trace     solve one instance locally and print its span tree
     top       live dashboard over one or more /metrics endpoints
     fuzz      property-based differential fuzzer with shrinking *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Prng = Spp_util.Prng
module Table = Spp_util.Table
module I = Spp_core.Instance
module Io = Spp_core.Io
module Validate = Spp_core.Validate
module Engine = Spp_engine.Engine
module Framing = Spp_server.Framing
module Protocol = Spp_server.Protocol
module Server = Spp_server.Server
module Frontend = Spp_server.Frontend
module Client = Spp_server.Client
module Signals = Spp_server.Signals
module Metrics_http = Spp_server.Metrics_http
module Json = Spp_util.Json
module Proxy = Spp_cluster.Proxy
module Clock = Spp_util.Clock
module Stats = Spp_util.Stats
module Log = Spp_obs.Log
module Trace = Spp_obs.Trace
module Metrics = Spp_obs.Metrics
module Promtext = Spp_obs.Promtext
open Cmdliner

(* Distinct failure exit codes (sysexits.h): a malformed instance file is
   EX_DATAERR, a missing/unreadable one EX_NOINPUT. Tested in test_io.ml. *)
let exit_parse_error = 65
let exit_io_error = 66

let read_instance path =
  try Io.read_file path with
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    Printf.eprintf "hint: %s is not a valid instance file; see the format in README.md or generate one with 'spp gen'\n" path;
    exit exit_parse_error
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit exit_io_error

let require_prec path =
  match read_instance path with
  | Io.Prec inst -> inst
  | Io.Release _ ->
    Printf.eprintf "error: %s is a release-time instance; this command needs a precedence one\n"
      path;
    exit 1

let require_release path =
  match read_instance path with
  | Io.Release inst -> inst
  | Io.Prec _ ->
    Printf.eprintf "error: %s is a precedence instance; this command needs a release-time one\n"
      path;
    exit 1

let rat_arg =
  let parse s = try Ok (Q.of_string s) with _ -> Error (`Msg (Printf.sprintf "bad rational %S" s)) in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (Q.to_string v))

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let kind =
    Arg.(
      required
      & opt (some (enum
                     [ ("random-prec", `Random_prec); ("random-uniform", `Random_uniform);
                       ("random-release", `Random_release); ("fig1", `Fig1); ("fig2", `Fig2);
                       ("jpeg", `Jpeg); ("packet", `Packet) ])) None
      & info [ "kind" ] ~doc:"Workload kind.")
  in
  let n = Arg.(value & opt int 20 & info [ "size" ] ~doc:"Number of rectangles (random kinds).") in
  let k = Arg.(value & opt int 8 & info [ "cols" ] ~doc:"FPGA columns / width granularity.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let param =
    Arg.(value & opt int 4 & info [ "param" ] ~doc:"Family parameter: fig1/fig2 k, jpeg blocks, packet flows.")
  in
  let run kind n k seed param =
    let rng = Prng.create seed in
    let out =
      match kind with
      | `Random_prec ->
        Io.prec_to_string
          (Spp_workloads.Generators.random_prec rng ~n ~k ~h_den:4 ~shape:`Series_parallel)
      | `Random_uniform ->
        Io.prec_to_string (Spp_workloads.Generators.random_uniform_prec rng ~n ~k ~shape:`Layered)
      | `Random_release ->
        Io.release_to_string
          (Spp_workloads.Generators.random_release rng ~n ~k ~h_den:4 ~r_den:2 ~load:1.3)
      | `Fig1 -> Io.prec_to_string (Spp_workloads.Adversarial.fig1 ~k:param ~eps_den:1000)
      | `Fig2 -> Io.prec_to_string (Spp_workloads.Adversarial.fig2 ~k:param ~eps_den:1000)
      | `Jpeg -> Io.prec_to_string (Spp_workloads.Generators.jpeg_pipeline ~blocks:param ~k)
      | `Packet -> Io.prec_to_string (Spp_workloads.Generators.packet_pipeline ~flows:param ~k)
    in
    print_string out
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate an instance to stdout")
    Term.(const run $ kind $ n $ k $ seed $ param)

(* ------------------------------------------------------------------ *)
(* pack *)

let alg_enum =
  [ ("dc", `Dc); ("f", `F); ("pff", `Pff); ("wave", `Wave); ("ls", `Ls); ("nfdh", `Nfdh);
    ("ffdh", `Ffdh); ("bfdh", `Bfdh); ("bl", `Bl) ]

let pack_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let alg =
    Arg.(value & opt (enum alg_enum) `Dc
         & info [ "alg" ] ~doc:"Algorithm: dc, f (uniform next-fit), pff, wave, ls, nfdh, ffdh, bfdh, bl.")
  in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"Print an ASCII picture of the packing.") in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~doc:"Also write the packing as an SVG file.")
  in
  let run file alg render_flag svg_path =
    let inst = require_prec file in
    let p =
      match alg with
      | `Dc -> fst (Spp_core.Dc.pack inst)
      | `F -> fst (Spp_core.Uniform.next_fit_shelf inst)
      | `Pff -> fst (Spp_core.Uniform.prec_first_fit inst)
      | `Wave -> fst (Spp_core.Uniform.wave_ffd inst)
      | `Ls -> Spp_core.List_schedule.prec inst
      | `Nfdh -> Spp_pack.Level.nfdh inst.rects
      | `Ffdh -> Spp_pack.Level.ffdh inst.rects
      | `Bfdh -> Spp_pack.Level.bfdh inst.rects
      | `Bl -> Spp_pack.Bottom_left.pack inst.rects
    in
    (match alg with
     | `Nfdh | `Ffdh | `Bfdh | `Bl ->
       (* Unconstrained baselines ignore the DAG; say so rather than lie. *)
       if Spp_dag.Dag.num_edges inst.dag > 0 then
         Printf.eprintf "note: %d precedence edges ignored by this baseline\n"
           (Spp_dag.Dag.num_edges inst.dag)
     | _ ->
       (match Validate.check_prec inst p with
        | [] -> ()
        | v :: _ ->
          Printf.eprintf "BUG: invalid packing: %s\n" (Format.asprintf "%a" Validate.pp_violation v);
          exit 3));
    print_string (Io.placement_to_string p);
    if render_flag then print_endline (Spp_geom.Render.render p);
    Option.iter (fun path -> Spp_geom.Svg.save path p) svg_path
  in
  Cmd.v (Cmd.info "pack" ~doc:"Pack a precedence instance")
    Term.(const run $ file $ alg $ render $ svg)

(* ------------------------------------------------------------------ *)
(* solve / batch — the portfolio engine *)

let default_cache_dir () =
  match Sys.getenv_opt "SPP_CACHE_DIR" with
  | Some d when d <> "" -> Some d
  | Some _ -> None
  | None -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Some (Filename.concat d "spp")
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Some (Filename.concat (Filename.concat h ".cache") "spp")
      | _ -> None))

let budget_arg =
  Arg.(value & opt (some float) None
       & info [ "budget-ms" ] ~doc:"Wall-clock budget in milliseconds shared by all racers.")

let algos_arg =
  Arg.(value & opt (some (list string)) None
       & info [ "algos" ]
           ~doc:"Comma-separated portfolio members (default: all applicable). Known: dc, f, pff, \
                 wave, bb, order, aptas, shelf, ls.")

let workers_arg =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~doc:"Domains racing at once (default: up to 8, one per core).")

let stats_json_arg =
  Arg.(value & opt (some string) None
       & info [ "stats-json" ]
           ~doc:"Write JSON lines to this file ('-' for stderr): one per solve run by this \
                 command (winner, source, height, ms, per-member outcomes), then one per \
                 engine counter.")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ]
           ~doc:"Disk cache directory (default: \\$SPP_CACHE_DIR, else \\$XDG_CACHE_HOME/spp, \
                 else ~/.cache/spp).")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the disk cache for this run.")

let cache_max_arg =
  Arg.(value & opt (some int) None
       & info [ "cache-max" ]
           ~doc:(Printf.sprintf
                   "Disk cache entry cap; oldest entries are pruned above it (default %d)."
                   Spp_engine.Store.default_max_entries))

let make_engine ~cache_dir ~no_cache ~cache_max =
  (match cache_max with
   | Some n when n < 1 ->
     Printf.eprintf "error: --cache-max must be >= 1\n";
     exit 1
   | _ -> ());
  let store_dir = if no_cache then None else (match cache_dir with Some d -> Some d | None -> default_cache_dir ()) in
  Engine.create ?store_dir ?store_max_entries:cache_max ()

let source_name = function
  | Engine.Computed -> "computed"
  | Engine.Memory_cache -> "cache.memory"
  | Engine.Disk_cache -> "cache.disk"

let result_json ?file (r : Engine.result) =
  let outcome (o : Engine.outcome) =
    Json.Obj
      ([ ("solver", Json.String o.Engine.solver);
         ("status", Json.String (Format.asprintf "%a" Engine.pp_status o.Engine.status));
         ("ms", Json.Float o.Engine.time_ms) ]
       @ match o.Engine.height with
         | Some h -> [ ("height", Json.String (Q.to_string h)) ]
         | None -> [])
  in
  Json.Obj
    ((match file with Some f -> [ ("file", Json.String f) ] | None -> [])
     @ [ ("winner", Json.String r.Engine.winner);
         ("source", Json.String (source_name r.Engine.source));
         ("height", Json.String (Q.to_string r.Engine.height));
         ("ms", Json.Float r.Engine.time_ms); ("degraded", Json.Bool r.Engine.degraded);
         ("outcomes", Json.List (List.map outcome r.Engine.outcomes)) ])

(* --stats-json: the given per-solve objects, then every counter in the
   engine's registry, one JSON object per line. *)
let write_stats engine solves = function
  | None -> ()
  | Some path ->
    let counter (k, v) = Json.Obj [ ("counter", Json.String k); ("value", Json.Int v) ] in
    let out =
      String.concat ""
        (List.map
           (fun j -> Json.to_string j ^ "\n")
           (solves @ List.map counter (Metrics.counters (Engine.metrics engine))))
    in
    if path = "-" then prerr_string out
    else Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc out)

let run_engine_solve engine ?budget_ms ?algos ?workers parsed =
  try Engine.solve ?budget_ms ?algos ?workers engine parsed with
  | Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let print_result (res : Engine.result) =
  Printf.printf "# winner %s\n" res.Engine.winner;
  Printf.printf "# source %s\n" (source_name res.Engine.source);
  List.iter
    (fun (o : Engine.outcome) ->
      Printf.printf "# solver %-6s %-9s%s  %.2fms\n" o.Engine.solver
        (Format.asprintf "%a" Engine.pp_status o.Engine.status)
        (match o.Engine.height with Some h -> "  height " ^ Q.to_string h | None -> "")
        o.Engine.time_ms)
    res.Engine.outcomes;
  print_string (Io.placement_to_string res.Engine.placement)

let solve_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~doc:"Solve the instance N times (exercises the instance cache).")
  in
  let run file budget_ms algos workers stats_json cache_dir no_cache cache_max repeat =
    let parsed = read_instance file in
    let engine = make_engine ~cache_dir ~no_cache ~cache_max in
    let results =
      List.init (max 1 repeat) (fun _ -> run_engine_solve engine ?budget_ms ?algos ?workers parsed)
    in
    print_result (List.nth results (List.length results - 1));
    write_stats engine (List.map result_json results) stats_json
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve with the portfolio engine (auto algorithm choice, budget, cache)")
    Term.(const run $ file $ budget_arg $ algos_arg $ workers_arg $ stats_json_arg
          $ cache_dir_arg $ no_cache_arg $ cache_max_arg $ repeat)

let batch_cmd =
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ]
             ~doc:"Solve up to N files concurrently. The engine (and both caches) is shared \
                   across jobs; per-solve racing narrows so jobs * racers stays near the core \
                   count unless $(b,--workers) is given.")
  in
  let run dir budget_ms algos workers stats_json cache_dir no_cache cache_max jobs =
    if jobs < 1 then begin
      Printf.eprintf "error: --jobs must be >= 1\n";
      exit 1
    end;
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".spp")
      |> List.sort compare
    in
    if files = [] then begin
      Printf.eprintf "error: no *.spp files in %s\n" dir;
      exit exit_io_error
    end;
    let engine = make_engine ~cache_dir ~no_cache ~cache_max in
    let solve_workers =
      match workers with
      | Some _ -> workers
      | None ->
        if jobs > 1 then Some (max 1 (Spp_util.Parallel.available_workers () / jobs)) else None
    in
    let t0 = Clock.now_ms () in
    let results =
      Spp_util.Parallel.map ~workers:jobs
        (fun f ->
          let path = Filename.concat dir f in
          match Io.read_file path with
          | exception (Failure msg | Sys_error msg) -> (f, Error msg)
          | parsed -> (
            let variant, n =
              match parsed with
              | Io.Prec inst -> ("prec", I.Prec.size inst)
              | Io.Release inst -> ("release", I.Release.size inst)
            in
            match Engine.solve ?budget_ms ?algos ?workers:solve_workers engine parsed with
            | res -> (f, Ok (variant, n, res))
            | exception Invalid_argument msg -> (f, Error msg)))
        files
    in
    let wall_ms = Clock.elapsed_ms t0 in
    let t = Table.create ~columns:[ "file"; "variant"; "n"; "winner"; "height"; "ms"; "source" ] in
    let failures = ref 0 and hits = ref 0 and wins = Hashtbl.create 8 in
    List.iter
      (fun (f, r) ->
        match r with
        | Error msg ->
          incr failures;
          Printf.eprintf "error: %s\n" msg;
          Table.add_row t [ f; "-"; "-"; "error"; "-"; "-"; "-" ]
        | Ok (variant, n, res) ->
          (match res.Engine.source with
           | Engine.Computed ->
             Hashtbl.replace wins res.Engine.winner
               (1 + Option.value ~default:0 (Hashtbl.find_opt wins res.Engine.winner))
           | Engine.Memory_cache | Engine.Disk_cache -> incr hits);
          Table.add_row t
            [ f; variant; string_of_int n; res.Engine.winner;
              Q.to_string res.Engine.height; Printf.sprintf "%.1f" res.Engine.time_ms;
              source_name res.Engine.source ])
      results;
    let win_counts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) wins []
      |> List.sort (fun (a, x) (b, y) -> match compare y x with 0 -> compare a b | c -> c)
      |> List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v)
      |> String.concat " "
    in
    Table.add_row t
      [ "(total)"; "-"; string_of_int (List.length files);
        (if win_counts = "" then "-" else win_counts); "-";
        Printf.sprintf "%.1f" wall_ms;
        Printf.sprintf "%d cache hit%s" !hits (if !hits = 1 then "" else "s") ];
    Table.print t;
    write_stats engine
      (List.filter_map
         (fun (f, r) ->
           match r with Ok (_, _, res) -> Some (result_json ~file:f res) | Error _ -> None)
         results)
      stats_json;
    if !failures > 0 then exit exit_parse_error
  in
  Cmd.v
    (Cmd.info "batch" ~doc:"Run the portfolio engine over every *.spp file in a directory")
    Term.(const run $ dir $ budget_arg $ algos_arg $ workers_arg $ stats_json_arg
          $ cache_dir_arg $ no_cache_arg $ cache_max_arg $ jobs)

(* ------------------------------------------------------------------ *)
(* aptas *)

let aptas_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let eps = Arg.(value & opt rat_arg Q.one & info [ "eps" ] ~doc:"Accuracy parameter (rational).") in
  let solver =
    Arg.(value & opt (enum [ ("enumerate", `Enumerate); ("colgen", `Column_generation) ]) `Enumerate
         & info [ "solver" ] ~doc:"Configuration LP solver: enumerate or colgen.")
  in
  let run file eps solver =
    let inst = require_release file in
    let res = Spp_core.Aptas.solve ~solver ~epsilon:eps inst in
    (match Validate.check_release inst res.Spp_core.Aptas.placement with
     | [] -> ()
     | v :: _ ->
       Printf.eprintf "BUG: invalid packing: %s\n" (Format.asprintf "%a" Validate.pp_violation v);
       exit 3);
    Printf.printf "height       %s\n" (Q.to_string res.Spp_core.Aptas.height);
    Printf.printf "fractional   %s\n" (Q.to_string res.Spp_core.Aptas.fractional_height);
    Printf.printf "lower bound  %s\n" (Q.to_string res.Spp_core.Aptas.lower_bound);
    Printf.printf "ratio        %.4f\n"
      (Q.to_float res.Spp_core.Aptas.height /. Q.to_float res.Spp_core.Aptas.lower_bound);
    Printf.printf "occurrences  %d (cap %d)\n" res.Spp_core.Aptas.occurrences
      res.Spp_core.Aptas.max_occurrences;
    Printf.printf "configs      %d, widths %d, phases %d (R=%d, W=%d)\n"
      res.Spp_core.Aptas.num_configs res.Spp_core.Aptas.num_widths res.Spp_core.Aptas.num_phases
      res.Spp_core.Aptas.r_param res.Spp_core.Aptas.w_param;
    print_string (Io.placement_to_string res.Spp_core.Aptas.placement)
  in
  Cmd.v (Cmd.info "aptas" ~doc:"Run the release-time APTAS (Algorithm 2)")
    Term.(const run $ file $ eps $ solver)

(* ------------------------------------------------------------------ *)
(* bounds *)

let bounds_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    match read_instance file with
    | Io.Prec inst ->
      Printf.printf "n              %d\n" (I.Prec.size inst);
      Printf.printf "edges          %d\n" (Spp_dag.Dag.num_edges inst.dag);
      Printf.printf "AREA(S)        %s\n" (Q.to_string (Spp_core.Lower_bounds.area inst));
      Printf.printf "F(S)           %s\n" (Q.to_string (Spp_core.Lower_bounds.critical_path inst));
      Printf.printf "LB = max       %s\n" (Q.to_string (Spp_core.Lower_bounds.prec inst));
      Printf.printf "DC bound       %.4f  (log2(n+1)*F + 2*AREA)\n" (Spp_core.Dc.theorem_2_3_bound inst)
    | Io.Release inst ->
      Printf.printf "n              %d\n" (I.Release.size inst);
      Printf.printf "K              %d\n" inst.k;
      Printf.printf "max release    %s\n" (Q.to_string (I.Release.max_release inst));
      Printf.printf "LB             %s\n" (Q.to_string (Spp_core.Lower_bounds.release inst))
  in
  Cmd.v (Cmd.info "bounds" ~doc:"Print instance lower bounds") Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* exact *)

let exact_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let workers =
    Arg.(value & opt int 1
         & info [ "workers" ] ~doc:"Worker domains for the normal-position branch and bound.")
  in
  let run file workers =
    match read_instance file with
    | Io.Prec inst ->
      (match Spp_core.Uniform.uniform_height inst with
       | Some _ when I.Prec.size inst <= 20 ->
         Printf.printf "exact height (uniform DP)  %s\n"
           (Q.to_string (Spp_exact.Prec_binpack.min_height inst))
       | _ -> ());
      if I.Prec.size inst <= 10 then begin
        let out = Spp_exact.Order_search.best_prec inst in
        Printf.printf "best bottom-left height    %s  (%d nodes searched)\n"
          (Q.to_string out.Spp_exact.Order_search.height) out.Spp_exact.Order_search.nodes_expanded
      end;
      if I.Prec.size inst <= 9 then begin
        let out = Spp_exact.Normal_bb.solve ~workers inst in
        Printf.printf "exact optimum (normal B&B) %s  (%d nodes searched)\n"
          (Q.to_string out.Spp_exact.Normal_bb.height) out.Spp_exact.Normal_bb.nodes_expanded
      end;
      if I.Prec.size inst > 10 then
        Printf.printf "instance too large for the exact reference solvers (n > 10)\n"
    | Io.Release inst ->
      if I.Release.size inst <= 10 then begin
        let out = Spp_exact.Order_search.best_release inst in
        Printf.printf "best bottom-left height    %s  (%d nodes searched)\n"
          (Q.to_string out.Spp_exact.Order_search.height) out.Spp_exact.Order_search.nodes_expanded
      end
      else Printf.printf "instance too large for the exact reference solvers (n > 10)\n"
  in
  Cmd.v (Cmd.info "exact" ~doc:"Exact / reference solutions for small instances")
    Term.(const run $ file $ workers)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let columns = Arg.(value & opt int 8 & info [ "columns" ] ~doc:"Device columns K.") in
  let delay =
    Arg.(value & opt rat_arg Q.zero & info [ "reconfig-delay" ] ~doc:"Per-column reconfiguration delay.")
  in
  let run file columns delay =
    let inst = require_prec file in
    let p, _ = Spp_core.Dc.pack inst in
    let dev = Spp_fpga.Device.make ~columns ~reconfig_delay:delay () in
    match Spp_fpga.Schedule.of_placement ~device:dev p with
    | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | sched ->
      let rep = Spp_fpga.Sim.run ~dag:inst.dag sched in
      Printf.printf "makespan        %s\n" (Q.to_string rep.Spp_fpga.Sim.makespan);
      Printf.printf "utilisation     %.3f\n" rep.Spp_fpga.Sim.utilisation;
      Printf.printf "reconfigs       %d\n" rep.Spp_fpga.Sim.reconfigurations;
      (match rep.Spp_fpga.Sim.violations with
       | [] -> Printf.printf "violations      none\n"
       | vs ->
         Printf.printf "violations      %d\n" (List.length vs);
         List.iter (fun v -> Printf.printf "  %s\n" (Format.asprintf "%a" Spp_fpga.Sim.pp_violation v)) vs);
      print_endline (Spp_fpga.Sim.gantt sched)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Pack with DC and execute on the simulated FPGA")
    Term.(const run $ file $ columns $ delay)

(* ------------------------------------------------------------------ *)
(* online *)

let online_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let policy =
    Arg.(value & opt (enum [ ("earliest", `Earliest); ("leftmost", `Leftmost) ]) `Earliest
         & info [ "policy" ] ~doc:"Column-allocation policy: earliest or leftmost.")
  in
  let run file policy =
    let inst = require_release file in
    let dev = Spp_fpga.Device.make ~columns:inst.I.Release.k () in
    let arrivals = Spp_fpga.Online.arrivals_of_release inst in
    let sched = Spp_fpga.Online.schedule dev policy arrivals in
    let release id = I.Release.release inst id in
    let rep = Spp_fpga.Sim.run ~release sched in
    (match rep.Spp_fpga.Sim.violations with
     | [] -> ()
     | v :: _ ->
       Printf.eprintf "BUG: invalid schedule: %s\n" (Format.asprintf "%a" Spp_fpga.Sim.pp_violation v);
       exit 3);
    Printf.printf "makespan     %s\n" (Q.to_string rep.Spp_fpga.Sim.makespan);
    Printf.printf "utilisation  %.3f\n" rep.Spp_fpga.Sim.utilisation;
    print_endline (Spp_fpga.Sim.gantt sched)
  in
  Cmd.v (Cmd.info "online" ~doc:"Schedule a release-time instance online (FPGA OS view)")
    Term.(const run $ file $ policy)

(* ------------------------------------------------------------------ *)
(* sim — the event-driven online simulator over lib/sim *)

let sim_cmd =
  let module Sim = Spp_sim.Sim in
  let module Arrivals = Spp_sim.Arrivals in
  let module Online = Spp_sim.Online in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Replay a release-time .spp instance as the arrival trace.")
  in
  let arrival =
    Arg.(value & opt (some string) None
         & info [ "arrival" ] ~docv:"SPEC"
             ~doc:"Generate the trace instead: poisson:RATE or burst:LEN:GAP.")
  in
  let n = Arg.(value & opt int 40 & info [ "size" ] ~doc:"Tasks in a generated trace.") in
  let k = Arg.(value & opt int 8 & info [ "cols" ] ~doc:"Strip columns for a generated trace.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Trace seed (generated traces).") in
  let packer =
    Arg.(value & opt string "first-fit"
         & info [ "packer" ] ~doc:"Online policy: first-fit or buffered[:K].")
  in
  let repack_threshold =
    Arg.(value & opt (some rat_arg) None
         & info [ "repack-threshold" ] ~docv:"Q"
             ~doc:"Repack whenever fragmentation is positive and at or above this rational \
                   (e.g. 1/4). Off by default.")
  in
  let migration_cost =
    Arg.(value & opt rat_arg Q.one
         & info [ "migration-cost" ] ~docv:"Q" ~doc:"Cost per migrated column cell (rational).")
  in
  let eps =
    Arg.(value & opt rat_arg Q.one
         & info [ "eps" ] ~doc:"Accuracy of the offline APTAS baseline (rational).")
  in
  let no_offline =
    Arg.(value & flag
         & info [ "no-offline" ]
             ~doc:"Skip the offline APTAS baseline (for traces too large to solve offline).")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ]
             ~doc:"Write the run report as one JSON object to this file ('-' for stdout). \
                   Contains no wall-clock fields: identical seeds give identical bytes.")
  in
  let run trace_file arrival n size_k seed packer repack_threshold migration_cost eps no_offline
      stats_json =
    let packer =
      match Online.parse packer with
      | Ok p -> p
      | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    let inst, source =
      match (trace_file, arrival) with
      | Some file, None -> (require_release file, "trace:" ^ Filename.basename file)
      | None, Some spec_s -> (
        match Arrivals.parse_spec spec_s with
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
        | Ok spec -> (Arrivals.trace ~n ~k:size_k ~seed spec, Arrivals.spec_to_string spec))
      | None, None | Some _, Some _ ->
        Printf.eprintf "error: pass exactly one of --trace FILE or --arrival SPEC\n";
        exit 1
    in
    let r = Sim.run ?repack_threshold ~migration_cost ~packer inst in
    let violations = Sim.check inst r in
    (match violations with
     | [] -> ()
     | v :: _ ->
       Printf.eprintf "BUG: unsound simulation: %s\n" (Format.asprintf "%a" Sim.pp_violation v));
    let lb = Spp_core.Lower_bounds.release inst in
    let offline =
      if no_offline then None else Some (Spp_core.Aptas.solve ~epsilon:eps inst)
    in
    let ratio_vs q = Q.to_float r.Sim.makespan /. Q.to_float q in
    Printf.printf "trace          %s (%d tasks, %d widened, K=%d)\n" source r.Sim.tasks
      r.Sim.widened r.Sim.k;
    Printf.printf "packer         %s%s\n" (Online.to_string packer)
      (match repack_threshold with
       | None -> ""
       | Some th -> Printf.sprintf ", repack at %s" (Q.to_string th));
    Printf.printf "makespan       %s\n" (Q.to_string r.Sim.makespan);
    Printf.printf "lower bound    %s  (ratio %.4f)\n" (Q.to_string lb) (ratio_vs lb);
    (match offline with
     | None -> ()
     | Some res ->
       Printf.printf "offline aptas  %s  (competitive ratio %.4f, certified LB %s)\n"
         (Q.to_string res.Spp_core.Aptas.height)
         (ratio_vs res.Spp_core.Aptas.height)
         (Q.to_string res.Spp_core.Aptas.lower_bound));
    Printf.printf "total wait     %s  (max pending %d)\n" (Q.to_string r.Sim.total_wait)
      r.Sim.max_pending;
    Printf.printf "repacks        %d (%d tasks moved, %d cells migrated, cost %s)\n"
      (List.length r.Sim.repacks) r.Sim.moves r.Sim.cells_migrated
      (Q.to_string r.Sim.migration_cost);
    Printf.printf "fragmentation  peak %s, time-weighted mean %s\n" (Q.to_string r.Sim.frag_peak)
      (Q.to_string r.Sim.frag_mean);
    Printf.printf "segments       %d\n" (List.length r.Sim.segments);
    (match stats_json with
     | None -> ()
     | Some path ->
       let q v = Json.String (Q.to_string v) in
       let obj =
         Json.Obj
           [ ("source", Json.String source);
             ("packer", Json.String (Online.to_string packer));
             ("repack_threshold",
              match repack_threshold with None -> Json.Null | Some th -> q th);
             ("k", Json.Int r.Sim.k); ("tasks", Json.Int r.Sim.tasks);
             ("widened", Json.Int r.Sim.widened); ("makespan", q r.Sim.makespan);
             ("lower_bound", q lb);
             ("offline_height",
              match offline with None -> Json.Null | Some res -> q res.Spp_core.Aptas.height);
             ("competitive_ratio",
              match offline with
              | None -> Json.Null
              | Some res -> Json.Float (ratio_vs res.Spp_core.Aptas.height));
             ("total_wait", q r.Sim.total_wait); ("max_pending", Json.Int r.Sim.max_pending);
             ("placements", Json.Int r.Sim.placements);
             ("repacks",
              Json.List
                (List.map
                   (fun (e : Sim.repack_event) ->
                     Json.Obj
                       [ ("at", q e.Sim.at); ("frag_before", q e.Sim.frag_before);
                         ("frag_after", q e.Sim.frag_after); ("moved", Json.Int e.Sim.moved);
                         ("cells", Json.Int e.Sim.cells) ])
                   r.Sim.repacks));
             ("moves", Json.Int r.Sim.moves);
             ("cells_migrated", Json.Int r.Sim.cells_migrated);
             ("migration_cost", q r.Sim.migration_cost); ("frag_peak", q r.Sim.frag_peak);
             ("frag_mean", q r.Sim.frag_mean);
             ("segments", Json.Int (List.length r.Sim.segments));
             ("violations", Json.Int (List.length violations)) ]
       in
       let line = Json.to_string obj ^ "\n" in
       if path = "-" then print_string line
       else Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc line));
    if violations <> [] then exit 3
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Event-driven online simulation: arrivals against a live strip, with optional \
             min-disruption repacking and an offline APTAS baseline")
    Term.(const run $ trace_file $ arrival $ n $ k $ seed $ packer $ repack_threshold
          $ migration_cost $ eps $ no_offline $ stats_json)

(* ------------------------------------------------------------------ *)
(* verify *)

let verify_cmd =
  let inst_file = Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE") in
  let placement_file = Arg.(required & pos 1 (some string) None & info [] ~docv:"PLACEMENT") in
  let run inst_file placement_file =
    let parsed = read_instance inst_file in
    let rects =
      match parsed with Io.Prec inst -> inst.I.Prec.rects | Io.Release inst -> I.Release.rects inst
    in
    let placement =
      try Io.read_placement_file ~rects placement_file with
      | Failure msg | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    let violations =
      match parsed with
      | Io.Prec inst -> Validate.check_prec inst placement
      | Io.Release inst -> Validate.check_release inst placement
    in
    match violations with
    | [] ->
      Printf.printf "VALID  height %s\n" (Q.to_string (Placement.height placement))
    | vs ->
      Printf.printf "INVALID  %d violation(s)\n" (List.length vs);
      List.iter (fun v -> Printf.printf "  %s\n" (Format.asprintf "%a" Validate.pp_violation v)) vs;
      exit 4
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a placement file against an instance (exit 0 iff valid)")
    Term.(const run $ inst_file $ placement_file)

(* ------------------------------------------------------------------ *)
(* serve / client / loadgen — the network serving layer *)

(* More sysexits: a transient refusal (queue full) is EX_TEMPFAIL so shell
   loops can retry; a draining server is EX_UNAVAILABLE; a server-side
   crash is EX_SOFTWARE; a connection that broke mid-exchange is EX_IOERR;
   an undecodable reply is EX_PROTOCOL. *)
let exit_temp_fail = 75
let exit_unavailable = 69
let exit_software = 70
let exit_transport = 74
let exit_protocol = 76

(* Typed client transport errors map to distinct exit codes, so scripts can
   tell "server never reachable" from "reply timed out" from "garbage on
   the wire" without parsing stderr. *)
let exit_code_of_client_error = function
  | Client.Connect_failed -> exit_unavailable
  | Client.Timed_out -> exit_temp_fail
  | Client.Connection_closed | Client.Io -> exit_transport
  | Client.Bad_reply -> exit_protocol

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"TCP port.")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with $(b,--port)).")

let resolve_address socket port host =
  match (socket, port) with
  | Some path, None -> Framing.Unix_sock path
  | None, Some p -> Framing.Tcp (host, p)
  | Some _, Some _ ->
    Printf.eprintf "error: pass --socket or --port, not both\n";
    exit 64
  | None, None ->
    Printf.eprintf "error: pass --socket PATH or --port PORT\n";
    exit 64

(* Flags and start-up shared by [spp serve] and [spp proxy]. *)
type daemon_opts = {
  metrics_port : int option;
  log_file : string option;
  faults : string option;
  fault_seed : int option;
}

(* [fault_example] is the daemon's own spec example and point list. *)
let daemon_opts_term ~fault_example =
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ]
             ~doc:"Serve Prometheus text-format metrics over HTTP on this TCP port \
                   (GET /metrics; port 0 picks a free one).")
  in
  let log_file =
    Arg.(value & opt (some string) None
         & info [ "log-file" ] ~doc:"Append JSON log lines to this file instead of stderr.")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:("Arm deterministic fault injection, e.g. " ^ fault_example
                   ^ " Also read from $(b,SPP_FAULTS) (this flag wins)."))
  in
  let fault_seed =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ]
             ~doc:"PRNG seed for fault probabilities (also $(b,SPP_FAULT_SEED); default 0).")
  in
  Term.(const (fun metrics_port log_file faults fault_seed ->
            { metrics_port; log_file; faults; fault_seed })
        $ metrics_port $ log_file $ faults $ fault_seed)

(* Arm Spp_util.Fault from --faults / SPP_FAULTS (flag wins). Exits with
   EX_USAGE on a malformed spec: silently injecting nothing would make a
   chaos run vacuously green. *)
let arm_faults ~name opts =
  let spec = match opts.faults with Some s -> Some s | None -> Sys.getenv_opt "SPP_FAULTS" in
  match spec with
  | None -> ()
  | Some spec -> (
    let seed =
      match opts.fault_seed with
      | Some s -> Some s
      | None -> Option.bind (Sys.getenv_opt "SPP_FAULT_SEED") int_of_string_opt
    in
    match Spp_util.Fault.configure ?seed spec with
    | Ok () ->
      if Spp_util.Fault.active () then
        Printf.eprintf "spp %s: fault injection armed: %s\n%!" name
          (Spp_util.Fault.describe ())
    | Error msg ->
      Printf.eprintf "error: --faults: %s\n" msg;
      exit 64)

(* Run one daemon to completion: arm faults, route the log, [start] it
   (usage errors exit 64, listen errors 66), put the scrape endpoint and
   runtime sampler beside it, print [banner], then block until a signal
   has drained it and tear the sidecars down. Returns the stopped
   daemon. *)
let run_daemon ~name ~address opts ~start ~registry ~stop ~wait ~banner =
  arm_faults ~name opts;
  Log.init_from_env ();
  Option.iter
    (fun path ->
      try Log.set_file path with
      | Sys_error msg ->
        Printf.eprintf "error: cannot open log file: %s\n" msg;
        exit exit_io_error)
    opts.log_file;
  let d =
    try start () with
    | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 64
    | Unix.Unix_error (e, _, arg) ->
      Printf.eprintf "error: cannot listen on %s: %s%s\n" (Framing.address_to_string address)
        (Unix.error_message e) (if arg = "" then "" else " (" ^ arg ^ ")");
      exit exit_io_error
  in
  let scrape =
    Option.map
      (fun p ->
        try Metrics_http.start ~port:p (registry d) with
        | Unix.Unix_error (e, _, _) ->
          Printf.eprintf "error: cannot bind metrics port %d: %s\n" p (Unix.error_message e);
          stop d;
          wait d;
          exit exit_io_error)
      opts.metrics_port
  in
  (* GC / CPU gauges only matter where a scraper can see them. *)
  let sampler = Option.map (fun _ -> Spp_obs.Runtime.start (registry d)) scrape in
  banner ();
  Option.iter
    (fun s ->
      Printf.eprintf "spp %s: metrics on http://127.0.0.1:%d/metrics\n%!" name
        (Metrics_http.port s))
    scrape;
  Signals.on_termination (fun () -> stop d);
  wait d;
  Option.iter Spp_obs.Runtime.stop sampler;
  Option.iter Metrics_http.stop scrape;
  Printf.eprintf "spp %s: drained, exiting\n%!" name;
  d

let serve_cmd =
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ]
             ~doc:"Worker domains sharing the engine (default: one per core, up to 8).")
  in
  let queue_depth =
    Arg.(value & opt int 64
         & info [ "queue-depth" ]
             ~doc:"Admission queue bound; solve requests beyond it get an immediate \
                   $(i,overloaded) error.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ]
             ~doc:"Log requests slower than this many milliseconds at warn level, with their \
                   span tree attached. Forces every solve request to be traced.")
  in
  let idle_timeout_ms =
    Arg.(value & opt float 30_000.0
         & info [ "idle-timeout-ms" ]
             ~doc:"Reap connections idle (no new request) for this many milliseconds; 0 \
                   disables the timeout.")
  in
  let read_timeout_ms =
    Arg.(value & opt float 10_000.0
         & info [ "read-timeout-ms" ]
             ~doc:"Reap connections whose request line takes longer than this to arrive after \
                   its first byte (slow-loris guard); 0 disables the timeout.")
  in
  let retry_after_ms =
    Arg.(value & opt int Server.default_retry_after_ms
         & info [ "retry-after-ms" ]
             ~doc:"Backoff hint (milliseconds) attached to $(i,overloaded) replies.")
  in
  let max_worker_restarts =
    Arg.(value & opt (some int) None
         & info [ "max-worker-restarts" ]
             ~doc:"Restart budget per worker slot before the slot is retired (default 16).")
  in
  let deadline_floor_ms =
    Arg.(value & opt float Server.default_deadline_floor_ms
         & info [ "deadline-floor-ms" ]
             ~doc:"Fast-fail solve requests whose propagated deadline_ms remainder is below \
                   this with $(i,wont_make_it) instead of burning a worker; checked at \
                   admission and again after the queue wait.")
  in
  let run socket port host workers queue_depth budget_ms cache_dir no_cache cache_max stats_json
      slow_ms idle_timeout_ms read_timeout_ms retry_after_ms max_worker_restarts
      deadline_floor_ms opts =
    let address = resolve_address socket port host in
    (match workers with
     | Some w when w < 1 ->
       Printf.eprintf "error: --workers must be >= 1\n";
       exit 1
     | _ -> ());
    if queue_depth < 1 then begin
      Printf.eprintf "error: --queue-depth must be >= 1\n";
      exit 1
    end;
    (match slow_ms with
     | Some s when s < 0.0 ->
       Printf.eprintf "error: --slow-ms must be >= 0\n";
       exit 1
     | _ -> ());
    if retry_after_ms < 0 then begin
      Printf.eprintf "error: --retry-after-ms must be >= 0\n";
      exit 1
    end;
    (match max_worker_restarts with
     | Some r when r < 0 ->
       Printf.eprintf "error: --max-worker-restarts must be >= 0\n";
       exit 1
     | _ -> ());
    if deadline_floor_ms < 0.0 then begin
      Printf.eprintf "error: --deadline-floor-ms must be >= 0\n";
      exit 1
    end;
    let available = Spp_util.Parallel.available_workers () in
    let workers = match workers with Some w -> w | None -> max 1 available in
    let start () =
      let engine = make_engine ~cache_dir ~no_cache ~cache_max in
      let cfg =
        { Server.frontend =
            { (Frontend.default address) with
              idle_timeout_ms = (if idle_timeout_ms > 0.0 then Some idle_timeout_ms else None);
              read_timeout_ms = (if read_timeout_ms > 0.0 then Some read_timeout_ms else None) };
          workers; queue_depth; engine; default_budget_ms = budget_ms;
          (* Each worker races portfolio members on its own domains; narrow the
             per-solve width so workers * racers stays near the core count. *)
          solve_workers = Some (max 1 (available / workers)); slow_ms; retry_after_ms;
          max_worker_restarts; deadline_floor_ms }
      in
      (Server.start cfg, engine)
    in
    let _, engine =
      run_daemon ~name:"serve" ~address opts ~start
        ~registry:(fun (_, engine) -> Engine.metrics engine)
        ~stop:(fun (srv, _) -> Server.stop srv)
        ~wait:(fun (srv, _) -> Server.wait srv)
        ~banner:(fun () ->
          Printf.eprintf "spp serve: listening on %s (%d worker%s, queue depth %d)\n%!"
            (Framing.address_to_string address) workers (if workers = 1 then "" else "s")
            queue_depth)
    in
    write_stats engine [] stats_json
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the portfolio engine as a daemon on a Unix or TCP socket (see README.md for \
             the wire protocol)")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ workers $ queue_depth $ budget_arg
          $ cache_dir_arg $ no_cache_arg $ cache_max_arg $ stats_json_arg $ slow_ms
          $ idle_timeout_ms $ read_timeout_ms $ retry_after_ms $ max_worker_restarts
          $ deadline_floor_ms
          $ daemon_opts_term
              ~fault_example:
                "$(b,store.read=0.5,pool.job=once,engine.solve=delay200@0.1). Points: \
                 store.read, store.write, framing.read, framing.write, pool.job, \
                 engine.solve, engine.incumbent.")

let exit_code_of_error = function
  | Protocol.Parse | Protocol.Bad_request | Protocol.Bad_instance -> exit_parse_error
  (* wont_make_it is as transient as overloaded: retry with a fresh
     deadline and the request is perfectly servable. *)
  | Protocol.Overloaded | Protocol.Wont_make_it -> exit_temp_fail
  | Protocol.Shutting_down -> exit_unavailable
  | Protocol.Internal -> exit_software

let print_metrics (m : Protocol.metrics_reply) =
  Printf.printf "uptime_ms       %.0f\n" m.Protocol.uptime_ms;
  Printf.printf "workers         %d\n" m.Protocol.workers;
  Printf.printf "queue           %d/%d\n" m.Protocol.queue_length m.Protocol.queue_capacity;
  let c = m.Protocol.cache in
  Printf.printf "lru             size %d/%d, hits %d, misses %d, evictions %d\n"
    c.Protocol.size c.Protocol.capacity c.Protocol.hits c.Protocol.misses c.Protocol.evictions;
  (match m.Protocol.store_dir with
   | Some d -> Printf.printf "store           %s\n" d
   | None -> Printf.printf "store           disabled\n");
  List.iter
    (fun (name, (a : Protocol.algo_reply)) ->
      Printf.printf "algo %-18s wins %-5d solved %-5d timeout %-5d invalid %-3d failed %d\n"
        name a.Protocol.wins a.Protocol.solved a.Protocol.timeouts a.Protocol.invalid
        a.Protocol.failed)
    m.Protocol.algos;
  List.iter
    (fun (name, (h : Protocol.hist_reply)) ->
      Printf.printf "hist %-22s count %-7d p50 %-9.2f p90 %-9.2f p99 %.2f\n" name
        h.Protocol.count h.Protocol.p50 h.Protocol.p90 h.Protocol.p99)
    m.Protocol.histograms;
  List.iter (fun (k, v) -> Printf.printf "counter %-32s %d\n" k v) m.Protocol.counters

let client_cmd =
  let op =
    Arg.(required
         & pos 0
             (some (enum
                      [ ("solve", `Solve); ("metrics", `Metrics); ("health", `Health);
                        ("shutdown", `Shutdown) ]))
             None
         & info [] ~docv:"OP" ~doc:"One of solve, metrics, health, shutdown.")
  in
  let file =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"FILE" ~doc:"Instance file (required for solve).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the raw JSON response line instead of the human form.")
  in
  let trace_id =
    Arg.(value & opt (some string) None
         & info [ "trace-id" ]
             ~doc:"Attach this trace id to a solve request (turns on server-side tracing; the \
                   id is echoed in the reply and in the server's slow-request log).")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ]
             ~doc:"Extra attempts after a transport failure or an $(i,overloaded) reply \
                   (exponential backoff with jitter, honoring the server's retry_after_ms \
                   hint). Only idempotent ops retry; shutdown never does.")
  in
  let timeout_ms =
    Arg.(value & opt (some float) None
         & info [ "timeout-ms" ]
             ~doc:"Bound the connect and each reply wait by this many milliseconds.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~doc:"End-to-end budget propagated with the solve: every hop (proxy, server \
                   queue, engine) subtracts its elapsed time, and a hop that cannot answer \
                   in the remainder fast-fails with $(i,wont_make_it). A budget-expired \
                   solve returns the engine's best packing marked degraded.")
  in
  let run op file socket port host budget_ms algos json trace_id retries timeout_ms
      deadline_ms =
    let address = resolve_address socket port host in
    let req =
      match op with
      | `Metrics -> Protocol.Metrics
      | `Health -> Protocol.Health
      | `Shutdown -> Protocol.Shutdown
      | `Solve -> (
        match file with
        | None ->
          Printf.eprintf "error: solve needs an instance FILE\n";
          exit 64
        | Some path ->
          let instance =
            try In_channel.with_open_text path In_channel.input_all with
            | Sys_error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit exit_io_error
          in
          Protocol.Solve { instance; budget_ms; deadline_ms; algos; trace_id })
    in
    if retries < 0 then begin
      Printf.eprintf "error: --retries must be >= 0\n";
      exit 64
    end;
    let resp =
      try Client.call ~retries ?timeout_ms address req with
      | Client.Error { kind; attempts; message } ->
        Printf.eprintf "error: %s%s\n" message
          (if attempts > 1 then Printf.sprintf " (after %d attempts)" attempts else "");
        exit (exit_code_of_client_error kind)
    in
    (* Render a reply-embedded span tree (as stitched by the proxy) in
       the same indented style as [spp trace]. Lines are '#'-prefixed like
       the other reply headers, so the output still round-trips through
       the instance parser. *)
    let print_reply_trace j =
      let rec go indent (i : Trace.imported) =
        Printf.printf "# %s%s %s%s\n" indent i.Trace.i_name
          (match i.Trace.i_dur_ms with Some d -> Printf.sprintf "%.2f ms" d | None -> "open")
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf "  %s=%s" k (Json.to_string v))
                i.Trace.i_fields));
        List.iter (go (indent ^ "  ")) i.Trace.i_children
      in
      Option.iter (go "") (Trace.imported_of_json j)
    in
    match resp with
    | Protocol.Error { code; message; _ } ->
      if json then print_endline (Protocol.encode_response resp);
      Printf.eprintf "error (%s): %s\n" (Protocol.error_code_to_string code) message;
      exit (exit_code_of_error code)
    | _ when json -> print_endline (Protocol.encode_response resp)
    | Protocol.Health_ok h ->
      print_endline "ok";
      Printf.printf "uptime_s        %.1f\n" h.Protocol.uptime_s;
      Printf.printf "cache_capacity  %d\n" h.Protocol.cache_capacity
    | Protocol.Shutdown_ok -> print_endline "draining"
    | Protocol.Metrics_ok m -> print_metrics m
    | Protocol.Solve_ok r ->
      Printf.printf "# winner %s\n" r.Protocol.winner;
      Printf.printf "# source %s\n" r.Protocol.source;
      Printf.printf "# ms %.2f\n" r.Protocol.time_ms;
      if r.Protocol.degraded then print_endline "# degraded true";
      (match (r.Protocol.lower_bound, r.Protocol.gap) with
       | Some lb, Some gap -> Printf.printf "# lower_bound %s gap %s\n" lb gap
       | _ -> ());
      (match r.Protocol.trace_id with
       | Some id -> Printf.printf "# trace %s\n" id
       | None -> ());
      Option.iter print_reply_trace r.Protocol.trace;
      print_string r.Protocol.placement
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send one request to a running spp serve")
    Term.(const run $ op $ file $ socket_arg $ port_arg $ host_arg $ budget_arg $ algos_arg
          $ json $ trace_id $ retries $ timeout_ms $ deadline_ms)

let loadgen_cmd =
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let connections =
    Arg.(value & opt int 8
         & info [ "connections" ] ~doc:"Concurrent client connections (closed loop).")
  in
  let requests =
    Arg.(value & opt int 20 & info [ "requests" ] ~doc:"Solve requests per connection.")
  in
  let stats_json =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ]
             ~doc:"Write the run summary (counts, throughput, latency percentiles) as one JSON \
                   object to this file ('-' for stdout).")
  in
  let distinct =
    Arg.(value & opt (some int) None
         & info [ "distinct" ] ~docv:"N"
             ~doc:"Cycle only the first N corpus files (sorted) — a duplicate-heavy workload \
                   for exercising caches and request coalescing.")
  in
  let arrival =
    Arg.(value & opt (some string) None
         & info [ "arrival" ] ~docv:"SPEC"
             ~doc:"Open-loop pacing: draw inter-request gaps from this arrival process \
                   (poisson:RATE or burst:LEN:GAP, rate per second) instead of sending \
                   back-to-back.")
  in
  let arrival_seed =
    Arg.(value & opt int 1
         & info [ "arrival-seed" ] ~doc:"Seed for the pacing stream (per-connection offset).")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~doc:"Propagate this end-to-end budget with every solve; budget-expired \
                   replies count as $(i,degraded), $(i,wont_make_it) fast-fails as shed.")
  in
  let run dir connections requests socket port host budget_ms algos stats_json distinct arrival
      arrival_seed deadline_ms =
    let address = resolve_address socket port host in
    if connections < 1 || requests < 1 then begin
      Printf.eprintf "error: --connections and --requests must be >= 1\n";
      exit 1
    end;
    (match distinct with
     | Some n when n < 1 ->
       Printf.eprintf "error: --distinct must be >= 1\n";
       exit 1
     | _ -> ());
    let arrival_spec =
      match arrival with
      | None -> None
      | Some s -> (
        match Spp_sim.Arrivals.parse_spec s with
        | Ok spec -> Some spec
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1)
    in
    (* Pre-read and pre-parse the corpus: each reply's placement text is
       re-bound to the instance's rects and re-validated, so "ok" below
       means "valid packing", not just "200". *)
    let instances =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".spp")
      |> List.sort compare
      |> List.filter_map (fun f ->
             let path = Filename.concat dir f in
             let text = try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None in
             Option.bind text (fun text ->
                 match Io.parse_string text with
                 | exception Failure msg ->
                   Printf.eprintf "warning: skipping %s: %s\n" f msg;
                   None
                 | parsed -> Some (f, text, parsed)))
    in
    let instances =
      match distinct with
      | Some n -> List.filteri (fun i _ -> i < n) instances
      | None -> instances
    in
    if instances = [] then begin
      Printf.eprintf "error: no parsable *.spp files in %s\n" dir;
      exit exit_io_error
    end;
    let instances = Array.of_list instances in
    let check parsed placement_text =
      let rects =
        match parsed with
        | Io.Prec inst -> inst.I.Prec.rects
        | Io.Release inst -> I.Release.rects inst
      in
      match Io.parse_placement ~rects placement_text with
      | exception Failure _ -> false
      | p -> (
        match parsed with
        | Io.Prec inst -> Validate.check_prec inst p = []
        | Io.Release inst -> Validate.check_release inst p = [])
    in
    (* Outcome classes: ok = valid packing, full answer; degraded = valid
       packing the responder marked budget-cut (an anytime answer, not a
       failure); invalid = decoded but wrong packing; shed = overloaded
       or wont_make_it reply (the service chose not to serve in time);
       failed = any other structured server error (the server answered —
       impaired, not broken); transport = no protocol-valid reply at all
       (reset, hang, garbage). Only invalid and transport make the run
       exit nonzero: under fault injection or tight deadlines the other
       classes are expected degradations. *)
    let ok = Atomic.make 0 and failed = Atomic.make 0 and invalid = Atomic.make 0 in
    let shed = Atomic.make 0 and transport = Atomic.make 0 and degraded = Atomic.make 0 in
    let latencies = Array.make connections [] in
    let worker ci () =
      (* Open-loop shaping: each connection draws its own deterministic gap
         stream, so offered load is set by the arrival process, not by how
         fast the server answers. *)
      let next_gap_ms =
        Option.map
          (fun spec -> Spp_sim.Arrivals.pacing (Prng.create (arrival_seed + ci)) spec)
          arrival_spec
      in
      match Client.connect address with
      | c ->
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            for r = 0 to requests - 1 do
              let _, text, parsed =
                instances.((ci + (r * connections)) mod Array.length instances)
              in
              (match next_gap_ms with
               | Some gap -> Thread.delay (gap () /. 1000.)
               | None -> ());
              let t0 = Clock.now_ms () in
              (match
                 Client.request c
                   (Protocol.Solve
                      { instance = text; budget_ms; deadline_ms; algos; trace_id = None })
               with
               | Protocol.Solve_ok reply ->
                 latencies.(ci) <- Clock.elapsed_ms t0 :: latencies.(ci);
                 if not (check parsed reply.Protocol.placement) then Atomic.incr invalid
                 else if reply.Protocol.degraded then Atomic.incr degraded
                 else Atomic.incr ok
               | Protocol.Error { code = Protocol.Overloaded | Protocol.Wont_make_it; _ } ->
                 Atomic.incr shed
               | Protocol.Error _ -> Atomic.incr failed
               | _ -> Atomic.incr transport
               | exception Client.Error _ -> Atomic.incr transport)
            done)
      | exception Client.Error _ -> ignore (Atomic.fetch_and_add transport requests)
    in
    let t0 = Clock.now_ms () in
    let threads = List.init connections (fun ci -> Thread.create (worker ci) ()) in
    List.iter Thread.join threads;
    let wall_ms = Clock.elapsed_ms t0 in
    let lats = Array.to_list latencies |> List.concat in
    let total =
      Atomic.get ok + Atomic.get degraded + Atomic.get invalid + Atomic.get shed
      + Atomic.get failed + Atomic.get transport
    in
    let throughput = float_of_int total /. (wall_ms /. 1000.) in
    (* Percentiles by rank interpolation over the sorted sample, computed in
       one pass — not repeated ad-hoc quantile calls. *)
    let percentiles =
      match lats with
      | [] -> None
      | _ -> (
        match Stats.percentiles [ 50.0; 90.0; 95.0; 99.0 ] lats with
        | [ p50; p90; p95; p99 ] -> Some (p50, p90, p95, p99)
        | _ -> None)
    in
    Printf.printf "connections     %d\n" connections;
    Printf.printf
      "requests        %d (%d ok, %d degraded, %d invalid, %d shed, %d failed, %d transport)\n"
      total (Atomic.get ok) (Atomic.get degraded) (Atomic.get invalid) (Atomic.get shed)
      (Atomic.get failed) (Atomic.get transport);
    Printf.printf "wall clock      %.1f ms\n" wall_ms;
    Printf.printf "throughput      %.1f req/s\n" throughput;
    Option.iter
      (fun (p50, p90, p95, p99) ->
        Printf.printf "latency p50     %.2f ms\n" p50;
        Printf.printf "latency p90     %.2f ms\n" p90;
        Printf.printf "latency p95     %.2f ms\n" p95;
        Printf.printf "latency p99     %.2f ms\n" p99)
      percentiles;
    (match Client.with_connection address (fun c -> Client.request c Protocol.Metrics) with
     | Protocol.Metrics_ok m ->
       let c = m.Protocol.cache in
       Printf.printf "server lru      hits %d, misses %d, size %d/%d\n" c.Protocol.hits
         c.Protocol.misses c.Protocol.size c.Protocol.capacity
     | _ -> ()
     | exception _ -> ());
    (match stats_json with
     | None -> ()
     | Some path ->
       let latency_obj =
         match (percentiles, lats) with
         | Some (p50, p90, p95, p99), _ :: _ ->
           let lo, hi = Stats.min_max lats in
           Json.Obj
             [ ("mean", Json.Float (Stats.mean lats)); ("min", Json.Float lo);
               ("max", Json.Float hi); ("p50", Json.Float p50); ("p90", Json.Float p90);
               ("p95", Json.Float p95); ("p99", Json.Float p99) ]
         | _ -> Json.Null
       in
       let obj =
         Json.Obj
           [ ("connections", Json.Int connections);
             ("requests_per_connection", Json.Int requests); ("requests", Json.Int total);
             ("ok", Json.Int (Atomic.get ok));
             ("degraded", Json.Int (Atomic.get degraded));
             ("invalid", Json.Int (Atomic.get invalid));
             ("shed", Json.Int (Atomic.get shed)); ("failed", Json.Int (Atomic.get failed));
             ("transport", Json.Int (Atomic.get transport)); ("wall_ms", Json.Float wall_ms);
             ("throughput_rps", Json.Float throughput); ("latency_ms", latency_obj) ]
       in
       let line = Json.to_string obj ^ "\n" in
       if path = "-" then print_string line
       else Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc line));
    if Atomic.get transport > 0 || Atomic.get invalid > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Closed-loop load generator against a running spp serve: N connections cycling \
             the *.spp files in DIR, validating every reply")
    Term.(const run $ dir $ connections $ requests $ socket_arg $ port_arg $ host_arg
          $ budget_arg $ algos_arg $ stats_json $ distinct $ arrival $ arrival_seed
          $ deadline_ms)

(* ------------------------------------------------------------------ *)
(* proxy *)

(* Backend address forms: unix:PATH, tcp:HOST:PORT, HOST:PORT, or a bare
   socket path (anything containing '/'). *)
let parse_backend s =
  let bad () =
    Error
      (`Msg
        (Printf.sprintf
           "bad backend %S (want unix:PATH, tcp:HOST:PORT, HOST:PORT, or a socket path)" s))
  in
  let drop n = String.sub s n (String.length s - n) in
  let host_port str =
    match String.rindex_opt str ':' with
    | None -> bad ()
    | Some i -> (
      let host = String.sub str 0 i in
      let port = String.sub str (i + 1) (String.length str - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" && p > 0 && p < 65536 -> Ok (Framing.Tcp (host, p))
      | _ -> bad ())
  in
  if s = "" then bad ()
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then Ok (Framing.Unix_sock (drop 5))
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then host_port (drop 4)
  else if String.contains s '/' then Ok (Framing.Unix_sock s)
  else host_port s

let proxy_cmd =
  let backend_conv =
    Arg.conv
      (parse_backend, fun fmt a -> Format.pp_print_string fmt (Framing.address_to_string a))
  in
  let backends =
    Arg.(non_empty & opt_all backend_conv []
         & info [ "backend" ] ~docv:"ADDR"
             ~doc:"A running $(b,spp serve) backend: $(b,unix:PATH), $(b,tcp:HOST:PORT), \
                   $(b,HOST:PORT), or a socket path. Repeat once per backend.")
  in
  let replicas =
    Arg.(value & opt int Spp_cluster.Ring.default_replicas
         & info [ "replicas" ]
             ~doc:"Virtual nodes per backend on the consistent-hash ring.")
  in
  let cache_cap =
    Arg.(value & opt int 512
         & info [ "cache-cap" ]
             ~doc:"Entries in the proxy's warm cache of snooped solve replies; 0 disables it.")
  in
  let pool_size =
    Arg.(value & opt int Spp_cluster.Upstream.default_pool_size
         & info [ "pool-size" ] ~doc:"Idle upstream connections kept per backend.")
  in
  let upstream_timeout_ms =
    Arg.(value & opt float 5_000.0
         & info [ "upstream-timeout-ms" ]
             ~doc:"Deadline on upstream connects and reply waits; 0 disables it.")
  in
  let failover =
    Arg.(value & opt int 2
         & info [ "failover" ]
             ~doc:"Ring successors tried after the routed backend fails a solve.")
  in
  let probe_ms =
    Arg.(value & opt float 1_000.0
         & info [ "probe-ms" ]
             ~doc:"Base health-probe interval (milliseconds); actual intervals are jittered.")
  in
  let fail_after =
    Arg.(value & opt int 3
         & info [ "fail-after" ]
             ~doc:"Consecutive failures before a backend is evicted from the ring.")
  in
  let revive_after =
    Arg.(value & opt int 2
         & info [ "revive-after" ]
             ~doc:"Consecutive probe successes before an evicted backend is readmitted.")
  in
  let hedge_ms =
    let parse s =
      match String.lowercase_ascii s with
      | "off" -> Ok Proxy.Hedge_off
      | "auto" -> Ok Proxy.Hedge_auto
      | _ -> (
        match float_of_string_opt s with
        | Some ms when ms > 0.0 -> Ok (Proxy.Hedge_fixed ms)
        | _ -> Error (`Msg (Printf.sprintf "bad hedge delay %S (want off, auto, or MS > 0)" s)))
    in
    let print fmt = function
      | Proxy.Hedge_off -> Format.pp_print_string fmt "off"
      | Proxy.Hedge_auto -> Format.pp_print_string fmt "auto"
      | Proxy.Hedge_fixed ms -> Format.fprintf fmt "%g" ms
    in
    Arg.(value & opt (conv (parse, print)) Proxy.Hedge_auto
         & info [ "hedge-ms" ] ~docv:"off|auto|MS"
             ~doc:"Re-issue a still-pending solve to the next ring successor after this many \
                   milliseconds and let the first reply win. $(b,auto) (the default) derives \
                   the delay from the observed upstream p99; $(b,off) disables hedging.")
  in
  let breaker_window =
    Arg.(value & opt int Spp_cluster.Breaker.default_window
         & info [ "breaker-window" ]
             ~doc:"Rolling per-backend outcomes the circuit breaker remembers.")
  in
  let breaker_threshold =
    Arg.(value & opt int Spp_cluster.Breaker.default_threshold
         & info [ "breaker-threshold" ]
             ~doc:"Transport failures within the window that open a backend's breaker.")
  in
  let breaker_cooldown_ms =
    Arg.(value & opt float Spp_cluster.Breaker.default_cooldown_ms
         & info [ "breaker-cooldown-ms" ]
             ~doc:"How long an open breaker waits before trying one half-open probe request.")
  in
  let run socket port host backends replicas cache_cap pool_size upstream_timeout_ms failover
      probe_ms fail_after revive_after hedge breaker_window breaker_threshold
      breaker_cooldown_ms opts =
    let address = resolve_address socket port host in
    let registry = Spp_obs.Metrics.create () in
    let cfg =
      { (Proxy.default_config ~address ~backends ()) with
        Proxy.replicas; cache_capacity = cache_cap; pool_size;
        upstream_timeout_ms =
          (if upstream_timeout_ms > 0.0 then Some upstream_timeout_ms else None);
        failover; probe_interval_ms = probe_ms; fail_after; revive_after; registry; hedge;
        breaker_window; breaker_threshold; breaker_cooldown_ms;
        (* Per-process jitter seed: a fleet of proxies must not probe in
           lockstep. *)
        seed = Unix.getpid () lxor int_of_float (Clock.now_ms ()) }
    in
    ignore
      (run_daemon ~name:"proxy" ~address opts
         ~start:(fun () -> Proxy.start cfg)
         ~registry:(fun _ -> registry) ~stop:Proxy.stop ~wait:Proxy.wait
         ~banner:(fun () ->
           Printf.eprintf "spp proxy: listening on %s over %d backend%s\n%!"
             (Framing.address_to_string address) (List.length backends)
             (if List.length backends = 1 then "" else "s");
           List.iter
             (fun b -> Printf.eprintf "spp proxy:   backend %s\n%!" (Framing.address_to_string b))
             backends))
  in
  Cmd.v
    (Cmd.info "proxy"
       ~doc:"Cluster front tier over spp serve backends: consistent-hash routing by instance \
             fingerprint, request coalescing, a warm reply cache, and liveness-based ring \
             membership")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ backends $ replicas $ cache_cap
          $ pool_size $ upstream_timeout_ms $ failover $ probe_ms $ fail_after $ revive_after
          $ hedge_ms $ breaker_window $ breaker_threshold $ breaker_cooldown_ms
          $ daemon_opts_term
              ~fault_example:
                "$(b,proxy.upstream=0.2,proxy.health=once,proxy.hedge=once).")

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the trace as one JSON line instead of the tree.")
  in
  let run file budget_ms algos workers json =
    let parsed = read_instance file in
    (* A fresh engine with no disk cache: the point is to watch the race,
       not to replay a cached answer. *)
    let engine = Engine.create () in
    let tr = Trace.create ~name:"solve" () in
    let res =
      try Engine.solve ?budget_ms ?algos ?workers ~trace:tr engine parsed with
      | Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    Trace.close
      ~fields:
        [ ("winner", Json.String res.Engine.winner);
          ("height", Json.String (Q.to_string res.Engine.height)) ]
      tr;
    if json then print_endline (Trace.to_json tr)
    else begin
      Printf.printf "winner %s  height %s  %.2f ms\n\n" res.Engine.winner
        (Q.to_string res.Engine.height) res.Engine.time_ms;
      print_string (Trace.render tr)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Solve one instance locally with tracing on and print the span tree (queue-free \
             view of what spp serve records per request)")
    Term.(const run $ file $ budget_arg $ algos_arg $ workers_arg $ json)

(* ------------------------------------------------------------------ *)
(* top *)

(* Previous tick's cumulative counters for one endpoint; rates are
   deltas over the poll interval, so the first tick shows none. *)
type top_prev = { p_at_ms : float; p_requests : float; p_minor : float; p_major : float }

(* One endpoint's digested scrape. Options are metrics the endpoint did
   not expose (a proxy has no solver profile; a dead endpoint has
   nothing but [ts_error]). *)
type top_stat = {
  ts_endpoint : string;
  ts_up : bool;
  ts_error : string option;
  ts_uptime_s : float option;
  ts_requests : float;
  ts_rate : float option;  (* requests/s since the previous tick *)
  ts_p50 : float option;
  ts_p95 : float option;
  ts_p99 : float option;  (* request latency percentiles, ms *)
  ts_hit_ratio : float option;  (* cache hits / (hits + misses) *)
  ts_algos : (string * float) list;  (* portfolio win counts by algo *)
  ts_pivots : float;
  ts_bb_count : int;  (* B&B searches recorded *)
  ts_bb_sum : float;  (* nodes expanded across them *)
  ts_bb_pruned : float;
  ts_colgen_cols : float;
  ts_colgen_rounds : float;
  ts_heap_words : float option;
  ts_minor_rate : float option;  (* minor GCs/s *)
  ts_major_rate : float option;
  ts_cpu : float option;  (* busy cores over the sampler interval *)
  ts_degraded : float;  (* anytime (budget-cut) replies served *)
  ts_deadline_rejects : float;  (* wont_make_it fast-fails, all stages *)
  ts_hedges : float;  (* hedged re-issues fired (proxy only) *)
  ts_hedge_wins : float;  (* solves where the hedge answered first *)
  ts_breakers : (string * float) list;  (* breaker state by backend: 0/1/2 *)
}

let top_down endpoint msg =
  { ts_endpoint = endpoint; ts_up = false; ts_error = Some msg; ts_uptime_s = None;
    ts_requests = 0.0; ts_rate = None; ts_p50 = None; ts_p95 = None; ts_p99 = None;
    ts_hit_ratio = None; ts_algos = []; ts_pivots = 0.0; ts_bb_count = 0; ts_bb_sum = 0.0;
    ts_bb_pruned = 0.0; ts_colgen_cols = 0.0; ts_colgen_rounds = 0.0; ts_heap_words = None;
    ts_minor_rate = None; ts_major_rate = None; ts_cpu = None; ts_degraded = 0.0;
    ts_deadline_rejects = 0.0; ts_hedges = 0.0; ts_hedge_wins = 0.0; ts_breakers = [] }

(* Digest one scrape. Server and proxy expose different families for the
   same idea (spp_requests_total vs spp_proxy_ops_total, ...); prefer the
   server's name and fall back, so one dashboard reads both tiers. *)
let top_poll prevs (host, port) =
  let endpoint = Printf.sprintf "%s:%d" host port in
  match Metrics_http.fetch ~host ~port () with
  | Error msg -> top_down endpoint msg
  | Ok body ->
    let s = Promtext.parse body in
    let now = Clock.now_ms () in
    let first_sum a b =
      let v = Promtext.sum s a in
      if v > 0.0 then v else Promtext.sum s b
    in
    let requests = first_sum "spp_requests_total" "spp_proxy_ops_total" in
    let minor = Promtext.sum s "spp_gc_minor_collections_total" in
    let major = Promtext.sum s "spp_gc_major_collections_total" in
    let rate prev cur dt = if dt <= 0.0 then None else Some (max 0.0 ((cur -. prev) /. dt)) in
    let req_rate, minor_rate, major_rate =
      match Hashtbl.find_opt prevs endpoint with
      | None -> (None, None, None)
      | Some p ->
        let dt = (now -. p.p_at_ms) /. 1000.0 in
        (rate p.p_requests requests dt, rate p.p_minor minor dt, rate p.p_major major dt)
    in
    Hashtbl.replace prevs endpoint
      { p_at_ms = now; p_requests = requests; p_minor = minor; p_major = major };
    let latency =
      match Promtext.histogram s "spp_request_ms" with
      | Some h -> Some h
      | None -> Promtext.histogram s "spp_proxy_request_ms"
    in
    let q p = Option.map (fun h -> Metrics.hist_quantile h p) latency in
    let hits = first_sum "cache_hit" "spp_proxy_cache_hits_total" in
    let misses = first_sum "cache_miss" "spp_proxy_cache_misses_total" in
    let bb_count, bb_sum =
      match Promtext.histogram s "spp_bb_nodes" with
      | Some h -> (h.Metrics.total, h.Metrics.sum)
      | None -> (0, 0.0)
    in
    { ts_endpoint = endpoint; ts_up = true; ts_error = None;
      ts_uptime_s =
        (match Promtext.value s "spp_uptime_seconds" with
         | Some _ as v -> v
         | None -> Promtext.value s "spp_proxy_uptime_seconds");
      ts_requests = requests; ts_rate = req_rate; ts_p50 = q 0.5; ts_p95 = q 0.95;
      ts_p99 = q 0.99;
      ts_hit_ratio =
        (if hits +. misses > 0.0 then Some (hits /. (hits +. misses)) else None);
      ts_algos = Promtext.label_values s ~name:"spp_algo_wins_total" ~label:"algo";
      ts_pivots = Promtext.sum s "spp_pivots_total"; ts_bb_count = bb_count;
      ts_bb_sum = bb_sum; ts_bb_pruned = Promtext.sum s "spp_bb_pruned_total";
      ts_colgen_cols = Promtext.sum s "spp_colgen_columns_total";
      ts_colgen_rounds = Promtext.sum s "spp_colgen_rounds_total";
      ts_heap_words = Promtext.value s "spp_gc_heap_words";
      ts_minor_rate = minor_rate; ts_major_rate = major_rate;
      ts_cpu = Promtext.value s "spp_cpu_utilization";
      ts_degraded = Promtext.sum s "spp_degraded_replies_total";
      ts_deadline_rejects = Promtext.sum s "spp_deadline_rejects_total";
      ts_hedges = Promtext.sum s "spp_hedges_total";
      ts_hedge_wins = Promtext.sum s "spp_hedge_wins_total";
      ts_breakers = Promtext.label_values s ~name:"spp_breaker_state" ~label:"backend" }

let top_json_of_stat st =
  let opt name v = Option.map (fun f -> (name, Json.Float f)) v in
  let payload =
    match st.ts_error with
    | Some e -> [ Some ("error", Json.String e) ]
    | None ->
      [ opt "uptime_s" st.ts_uptime_s;
        Some ("requests_total", Json.Float st.ts_requests);
        opt "request_rate" st.ts_rate;
        opt "p50_ms" st.ts_p50;
        opt "p95_ms" st.ts_p95;
        opt "p99_ms" st.ts_p99;
        opt "cache_hit_ratio" st.ts_hit_ratio;
        Some
          ("algo_wins", Json.Obj (List.map (fun (a, v) -> (a, Json.Float v)) st.ts_algos));
        Some
          ( "profile",
            Json.Obj
              [ ("pivots", Json.Float st.ts_pivots);
                ("bb_searches", Json.Int st.ts_bb_count);
                ("bb_nodes", Json.Float st.ts_bb_sum);
                ("bb_pruned", Json.Float st.ts_bb_pruned);
                ("colgen_columns", Json.Float st.ts_colgen_cols);
                ("colgen_rounds", Json.Float st.ts_colgen_rounds) ] );
        opt "gc_heap_words" st.ts_heap_words;
        opt "gc_minor_per_s" st.ts_minor_rate;
        opt "gc_major_per_s" st.ts_major_rate;
        opt "cpu_utilization" st.ts_cpu;
        Some ("degraded_total", Json.Float st.ts_degraded);
        Some ("deadline_rejects_total", Json.Float st.ts_deadline_rejects);
        Some ("hedges_total", Json.Float st.ts_hedges);
        Some ("hedge_wins_total", Json.Float st.ts_hedge_wins);
        Some
          ( "breakers",
            Json.Obj (List.map (fun (b, v) -> (b, Json.Float v)) st.ts_breakers) ) ]
  in
  Json.Obj
    (("endpoint", Json.String st.ts_endpoint)
     :: ("up", Json.Bool st.ts_up)
     :: List.filter_map Fun.id payload)

let top_render stats =
  let buf = Buffer.create 1024 in
  let opt fmt = function None -> "-" | Some v -> Printf.sprintf fmt v in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %-4s %9s %9s %8s %8s %8s %8s %6s %6s\n" "ENDPOINT" "UP" "UPTIME"
       "REQS" "REQ/S" "P50ms" "P95ms" "P99ms" "HIT%" "CPU");
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf "%-22s %-4s %9s %9.0f %8s %8s %8s %8s %6s %6s\n" st.ts_endpoint
           (if st.ts_up then "up" else "DOWN")
           (opt "%.0fs" st.ts_uptime_s)
           st.ts_requests (opt "%.1f" st.ts_rate) (opt "%.2f" st.ts_p50)
           (opt "%.2f" st.ts_p95) (opt "%.2f" st.ts_p99)
           (opt "%.1f" (Option.map (fun r -> 100.0 *. r) st.ts_hit_ratio))
           (opt "%.2f" st.ts_cpu));
      match st.ts_error with
      | Some e -> Buffer.add_string buf (Printf.sprintf "  %s\n" e)
      | None ->
        let wins = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 st.ts_algos in
        if wins > 0.0 then
          Buffer.add_string buf
            (Printf.sprintf "  wins: %s\n"
               (String.concat ", "
                  (List.map
                     (fun (a, v) ->
                       Printf.sprintf "%s %.0f (%.0f%%)" a v (100.0 *. v /. wins))
                     st.ts_algos)));
        if st.ts_pivots > 0.0 || st.ts_bb_count > 0 || st.ts_colgen_cols > 0.0 then
          Buffer.add_string buf
            (Printf.sprintf
               "  profile: pivots %.0f, bb %.0f nodes / %d searches (%.0f pruned), colgen \
                %.0f cols / %.0f rounds\n"
               st.ts_pivots st.ts_bb_sum st.ts_bb_count st.ts_bb_pruned st.ts_colgen_cols
               st.ts_colgen_rounds);
        if
          st.ts_hedges > 0.0 || st.ts_degraded > 0.0 || st.ts_deadline_rejects > 0.0
          || List.exists (fun (_, v) -> v > 0.0) st.ts_breakers
        then
          Buffer.add_string buf
            (Printf.sprintf "  resilience: hedges %.0f (%.0f wins), degraded %.0f, \
                             deadline rejects %.0f%s\n"
               st.ts_hedges st.ts_hedge_wins st.ts_degraded st.ts_deadline_rejects
               (match
                  List.filter_map
                    (fun (b, v) ->
                      if v > 0.0 then
                        Some
                          (Printf.sprintf "%s %s" b
                             (if v >= 2.0 then "OPEN" else "half-open"))
                      else None)
                    st.ts_breakers
                with
                | [] -> ""
                | tripped -> ", breakers: " ^ String.concat ", " tripped));
        (match st.ts_heap_words with
         | None -> ()
         | Some w ->
           Buffer.add_string buf
             (Printf.sprintf "  gc: heap %.1f MW, minor %s/s, major %s/s\n" (w /. 1e6)
                (opt "%.1f" st.ts_minor_rate) (opt "%.2f" st.ts_major_rate))))
    stats;
  Buffer.contents buf

let top_cmd =
  let endpoints_pos =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"ENDPOINT"
             ~doc:"Metrics endpoint to poll: HOST:PORT, or a bare port on loopback — the \
                   value given to --metrics-port of a running spp serve or spp proxy.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between polls.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Poll every endpoint once, print, and exit (no screen \
                                 clearing); exits non-zero if every endpoint is down.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable output: one JSON object per poll on stdout (use with \
                   --once for a single snapshot).")
  in
  let parse_endpoint s =
    match String.rindex_opt s ':' with
    | None -> Option.map (fun p -> ("127.0.0.1", p)) (int_of_string_opt s)
    | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      Option.map
        (fun p -> ((if host = "" then "127.0.0.1" else host), p))
        (int_of_string_opt port)
  in
  let run endpoints interval once json =
    if interval <= 0.0 then begin
      Printf.eprintf "error: --interval must be > 0\n";
      exit 64
    end;
    let eps =
      List.map
        (fun s ->
          match parse_endpoint s with
          | Some hp -> hp
          | None ->
            Printf.eprintf "error: bad endpoint %S (want HOST:PORT or PORT)\n" s;
            exit 64)
        endpoints
    in
    let prevs = Hashtbl.create 8 in
    let stopping = ref false in
    Signals.on_termination (fun () -> stopping := true);
    let tick ~clear =
      let stats = List.map (top_poll prevs) eps in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [ ("interval_s", Json.Float interval);
                  ("endpoints", Json.List (List.map top_json_of_stat stats)) ]))
      else begin
        if clear then print_string "\027[2J\027[H";
        print_string (top_render stats)
      end;
      flush stdout;
      stats
    in
    if once then begin
      let stats = tick ~clear:false in
      if List.for_all (fun st -> not st.ts_up) stats then exit exit_unavailable
    end
    else
      while not !stopping do
        ignore (tick ~clear:(not json));
        (* Sleep in slices so Ctrl-C lands within ~200 ms. *)
        let rec nap left =
          if left > 0.0 && not !stopping then begin
            Unix.sleepf (Float.min 0.2 left);
            nap (left -. 0.2)
          end
        in
        nap interval
      done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal dashboard over spp serve / spp proxy metrics endpoints: request \
             rates, latency percentiles from histogram buckets, cache hit share, portfolio \
             win shares, solver profiling counters, hedge/breaker/degraded resilience \
             series, and GC churn")
    Term.(const run $ endpoints_pos $ interval_arg $ once_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* fuzz *)

let fuzz_cmd =
  let module Runner = Spp_check.Runner in
  let module Props = Spp_check.Props in
  let module Arb = Spp_check.Arb in
  let cases_arg =
    Arg.(value & opt (some int) None
         & info [ "cases" ]
             ~doc:"Number of generated instances (default 1000, unbounded when --seconds is given).")
  in
  let seconds_arg =
    Arg.(value & opt (some float) None
         & info [ "seconds" ]
             ~doc:"Wall-clock budget; generation stops when either --cases or --seconds is hit.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Run seed. Every case derives its own replay seed, printed on failure.")
  in
  let variant_arg =
    Arg.(value
         & opt (enum [ ("prec", `Prec); ("release", `Release); ("both", `Both) ]) `Both
         & info [ "variant" ] ~doc:"Instance family to generate: prec, release or both.")
  in
  let algos_arg =
    Arg.(value & opt (some (list string)) None
         & info [ "algos" ]
             ~doc:"Comma-separated algorithm names; only properties tagged with one of them run.")
  in
  let self_test_arg =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Fuzz a deliberately broken solver instead; succeeds only if the harness \
                   catches the planted bug and shrinks it.")
  in
  let replay_arg =
    Arg.(value & opt (some int) None
         & info [ "replay-seed" ]
             ~doc:"Replay the single case with this seed (from an earlier failure report) \
                   instead of running fresh cases.")
  in
  let out_arg =
    Arg.(value & opt string "fuzz-out"
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for failure artefacts: JSON report and minimized .spp instances. \
                   Only created when something fails.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the selected properties and exit.")
  in
  let variant_name = function `Prec -> "prec" | `Release -> "release" | `Both -> "both" in
  let parsed_rects = function
    | Io.Prec inst -> List.length inst.I.Prec.rects
    | Io.Release inst -> List.length inst.I.Release.tasks
  in
  let run cases_opt seconds seed variant algos self_test replay_seed out list_props =
    let props =
      if self_test then [ Props.planted_bug ]
      else
        try Props.select ?algos ~variant ()
        with Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
    in
    (* The planted bug lives in the precedence solver; generating release
       instances for it would only produce skips. *)
    let gen_variant = if self_test then `Prec else variant in
    if list_props then begin
      let t = Table.create ~columns:[ "property"; "tags"; "invariant" ] in
      List.iter
        (fun (p : _ Runner.property) ->
          Table.add_row t [ p.Runner.name; String.concat "," p.Runner.tags; p.Runner.doc ])
        props;
      Table.print t
    end
    else begin
      let arb = Arb.parsed ~variant:gen_variant in
      let report =
        match replay_seed with
        | Some case_seed -> Runner.replay ~case_seed arb props
        | None ->
          let cases =
            match (cases_opt, seconds) with
            | Some c, _ -> c
            | None, Some _ -> max_int
            | None, None -> 1000
          in
          let deadline_ms = Option.map (fun s -> s *. 1000.) seconds in
          Runner.run ~cases ?deadline_ms ~seed arb props
      in
      let failed name =
        List.exists (fun (f : _ Runner.failure) -> f.Runner.property = name) report.Runner.failures
      in
      let t = Table.create ~columns:[ "property"; "checks"; "status" ] in
      List.iter
        (fun (name, n) ->
          Table.add_row t [ name; string_of_int n; (if failed name then "FAIL" else "ok") ])
        report.Runner.per_property;
      Table.print t;
      let nfail = List.length report.Runner.failures in
      Printf.printf "\n%d cases, %d checks, %d skips, %d failure%s in %.0f ms (seed %d)\n"
        report.Runner.cases report.Runner.checks report.Runner.skips nfail
        (if nfail = 1 then "" else "s")
        report.Runner.elapsed_ms report.Runner.run_seed;
      if report.Runner.failures <> [] then begin
        (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let sanitize = String.map (fun c -> if c = '.' then '-' else c) in
        let describe (f : _ Runner.failure) =
          let path =
            Filename.concat out
              (Printf.sprintf "fuzz-%s-%d.spp" (sanitize f.Runner.property) f.Runner.case_seed)
          in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (arb.Runner.print f.Runner.minimized));
          (* The arrival-stream seed is a pure function of the minimized
             case, so --replay-seed reproduces not just the instance but
             the exact stream the sim properties derived from it. *)
          let stream_seed = Props.stream_seed_of f.Runner.minimized in
          Printf.printf
            "\nFAIL %s\n  %s\n  replay: spp fuzz --replay-seed %d --variant %s%s\n  minimized: %s (%d rects, %d shrink steps, %d candidates tried, stream seed %d)\n"
            f.Runner.property f.Runner.message f.Runner.case_seed (variant_name gen_variant)
            (if self_test then " --self-test" else "")
            path (parsed_rects f.Runner.minimized) f.Runner.shrink_steps f.Runner.shrink_tried
            stream_seed;
          Json.Obj
            [ ("property", Json.String f.Runner.property);
              ("message", Json.String f.Runner.message);
              ("replay_seed", Json.Int f.Runner.case_seed);
              ("stream_seed", Json.Int stream_seed);
              ("case_index", Json.Int f.Runner.case_index);
              ("shrink_steps", Json.Int f.Runner.shrink_steps);
              ("shrink_tried", Json.Int f.Runner.shrink_tried);
              ("minimized_rects", Json.Int (parsed_rects f.Runner.minimized));
              ("minimized_file", Json.String path) ]
        in
        let entries = List.map describe report.Runner.failures in
        let report_path = Filename.concat out "fuzz-report.json" in
        Out_channel.with_open_text report_path (fun oc ->
            Out_channel.output_string oc
              (Json.to_string
                 (Json.Obj
                    [ ("run_seed", Json.Int report.Runner.run_seed);
                      ("variant", Json.String (variant_name gen_variant));
                      ("self_test", Json.Bool self_test);
                      ("cases", Json.Int report.Runner.cases);
                      ("checks", Json.Int report.Runner.checks);
                      ("skips", Json.Int report.Runner.skips);
                      ("elapsed_ms", Json.Float report.Runner.elapsed_ms);
                      ("failures", Json.List entries) ])
              ^ "\n"));
        Printf.printf "report: %s\n" report_path
      end;
      if self_test then begin
        if report.Runner.failures = [] then begin
          Printf.eprintf "self-test FAILED: the planted bug was not detected\n";
          exit 1
        end
        else Printf.printf "self-test OK: planted bug caught and minimized\n"
      end
      else if report.Runner.failures <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Property-based differential fuzzer: random instances through every solver, \
             checked against the paper's theorems, with counterexample shrinking")
    Term.(const run $ cases_arg $ seconds_arg $ seed_arg $ variant_arg $ algos_arg
          $ self_test_arg $ replay_arg $ out_arg $ list_arg)

let () =
  let doc = "strip packing with precedence constraints and release times (Augustine-Banerjee-Irani)" in
  let info = Cmd.info "spp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; pack_cmd; solve_cmd; batch_cmd; aptas_cmd; bounds_cmd; exact_cmd;
            simulate_cmd; online_cmd; sim_cmd; verify_cmd; serve_cmd; proxy_cmd; client_cmd;
            loadgen_cmd; trace_cmd; top_cmd; fuzz_cmd ]))
