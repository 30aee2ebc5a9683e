(* Benchmark entry point: one workload, one seed, one timed window.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --spp PATH

   run.py builds and calls it from the repository root. The last line of
   standard output is the JSON result. *)

open Spp_perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_hot|cold_race|proxy_mix|sim_stream --seed N --seconds S \
     --trace 0|1 --spp PATH";
  exit 2

let () =
  (* An interrupted run still shuts its daemons down (at_exit). *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let state = ".perfbench" in
  let dir = Filename.concat state (Printf.sprintf "run-%d" (Unix.getpid ())) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ state; dir; Filename.concat state "traces" ];
  let cfg =
    { Run_ctx.seed = int "seed"; seconds = float_of_int (int "seconds");
      trace = int "trace" = 1; quick = false; spp = get "spp"; dir }
  in
  let run =
    match (workload, cfg.trace) with
    | "serve_hot", false -> Workloads.serve_hot
    | "proxy_mix", false -> Workloads.proxy_mix
    | "cold_race", false -> Workloads.cold_race
    | "sim_stream", false -> Workloads.sim_stream
    | ("serve_hot" | "proxy_mix" | "cold_race" | "sim_stream"), true -> Layers.run workload
    | _ -> usage ()
  in
  let o = run cfg in
  Daemon.kill_all ();
  (* Remove the run's sockets and logs; keep the traces. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  List.iter print_endline o.Run_ctx.notes;
  List.iter (fun d -> print_endline ("determinism gate: " ^ d)) o.Run_ctx.gate;
  List.iter
    (fun (m : Measure.metric) -> Printf.printf "%-36s %14.6g %s\n" m.name m.value m.unit)
    o.Run_ctx.metrics;
  print_endline
    (Measure.result_line ~correct:(o.Run_ctx.correct && o.Run_ctx.gate = []) ~attempted:o.Run_ctx.attempted
       ~failed:o.Run_ctx.failed o.Run_ctx.metrics)
