(* Self-check of the benchmark at tiny sizes, run from the repository
   root by [python3 perfbench/run.py --selftest]:
   - every metric BENCHMARK.json declares is printed by name with its
     unit, by the timed run (end-to-end) and the traced run (per-layer),
     and every answer checks out;
   - a fixed seed gives an identical request-stream digest;
   - a planted corrupt reply (a shifted placement) counts as a failure;
   - the determinism gate flags a changed count.

   Usage: selftest.exe PATH-TO-SPP *)

open Spp_perfbench
module Json = Spp_server.Json

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let declared key =
  let text = Measure.read_file "BENCHMARK.json" in
  let j = match Json.of_string text with Ok j -> j | Error e -> failwith e in
  match Json.member key j with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> failwith "malformed metric entry")
      l
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

let state = Filename.concat ".perfbench" "selftest"

let cfg ~trace =
  let dir = Filename.concat state (Printf.sprintf "run-%d-%b" (Unix.getpid ()) trace) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ state; Filename.concat state "traces"; dir ];
  { Run_ctx.seed = 3; seconds = 1.0; trace; quick = true; spp = Sys.argv.(1); dir }

(* The result line parses as JSON with exactly the contract's keys, and
   names every declared metric with its unit. *)
let check_outcome name expected (o : Run_ctx.outcome) =
  let line =
    Measure.result_line ~correct:o.Run_ctx.correct ~attempted:o.Run_ctx.attempted
      ~failed:o.Run_ctx.failed o.Run_ctx.metrics
  in
  match Json.of_string line with
  | Error e -> check (name ^ ": result line is JSON: " ^ e) false
  | Ok (Json.Obj fields) ->
    check (name ^ ": exactly four keys")
      (List.sort compare (List.map fst fields) = [ "attempted"; "correct"; "failed"; "metrics" ]);
    check (name ^ ": correct") o.Run_ctx.correct;
    List.iter (fun d -> print_endline (name ^ ": determinism gate: " ^ d)) o.Run_ctx.gate;
    check (name ^ ": determinism gate holds") (o.Run_ctx.gate = []);
    check (name ^ ": no failed op") (o.Run_ctx.failed = 0);
    check (name ^ ": attempted >= 1") (o.Run_ctx.attempted >= 1);
    let metrics = match List.assoc_opt "metrics" fields with Some (Json.Obj m) -> m | _ -> [] in
    check (name ^ ": metric set") (List.length metrics = List.length expected);
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n metrics with
        | Some m ->
          check (Printf.sprintf "%s: %s unit %s" name n u)
            (Json.member "unit" m = Some (Json.String u));
          check (Printf.sprintf "%s: %s value" name n)
            (Option.bind (Json.member "value" m) Json.get_float <> None)
        | None -> check (Printf.sprintf "%s: %s printed" name n) false)
      expected
  | Ok _ -> check (name ^ ": result line is an object") false

let workloads =
  [ ("serve_hot", Workloads.serve_hot); ("cold_race", Workloads.cold_race);
    ("proxy_mix", Workloads.proxy_mix); ("sim_stream", Workloads.sim_stream) ]

let every_metric () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun (name, run) ->
      check_outcome name e2e (run (cfg ~trace:false));
      check_outcome (name ^ " traced") layers (Layers.run name (cfg ~trace:true)))
    workloads

let digests () =
  let serve s = (Inputs.serve_hot ~quick:true ~seed:s ~ops:300 ()).Inputs.digest in
  let proxy s = (Inputs.proxy_mix ~quick:true ~seed:s ~ops:300 ()).Inputs.digest in
  let cold s =
    Inputs.items_digest
      (Array.map (fun (it : Inputs.item) -> it.Inputs.text) (Inputs.cold_race ~quick:true ~seed:s ~ops:40 ()))
  in
  let sim s =
    Inputs.items_digest
      (Array.map Spp_core.Io.release_to_string (Inputs.sim_stream ~quick:true ~seed:s ~traces:5 ()))
  in
  List.iter
    (fun (name, d) ->
      check (name ^ ": same seed, same stream") (d 11 = d 11);
      check (name ^ ": another seed, another stream") (d 11 <> d 12))
    [ ("serve_hot", serve); ("proxy_mix", proxy); ("cold_race", cold); ("sim_stream", sim) ]

let planted_corruption () =
  let st = Inputs.serve_hot ~quick:true ~seed:4 ~ops:10 () in
  let it = st.Inputs.items.(0) in
  let r = Spp_engine.Engine.solve (Spp_engine.Engine.create ()) it.Inputs.parsed in
  let good =
    Spp_server.Protocol.encode_response
      (Spp_server.Protocol.Solve_ok
         { winner = r.winner; source = "computed"; height = Spp_num.Rat.to_string r.height;
           time_ms = r.time_ms; placement = Spp_core.Io.placement_to_string r.placement;
           degraded = false; lower_bound = Some (Spp_num.Rat.to_string r.lower_bound);
           gap = Some (Spp_num.Rat.to_string r.gap); trace_id = None; trace = None })
  in
  let bad = Check.corrupt_reply good in
  let lbs = [| Check.lower_bound it.Inputs.parsed |] in
  let run ops = fst (Check.daemon_ops ~items:[| it |] ~lbs ~first:(Hashtbl.create 4) ops) in
  check "a good reply passes" (run [| (0, Check.Reply good); (0, Check.Reply good) |] = 0);
  check "a corrupt repeat fails" (run [| (0, Check.Reply good); (0, Check.Reply bad) |] = 1);
  check "a corrupt first answer fails" (run [| (0, Check.Reply bad) |] = 1);
  check "a transport error fails" (run [| (0, Check.Transport "closed") |] = 1)

let gate () =
  let r = [ ("a", "1"); ("b", "2") ] in
  check "gate: same record agrees" (Gate.diff r r = []);
  check "gate: changed count flagged" (Gate.diff r [ ("a", "1"); ("b", "3") ] <> []);
  check "gate: missing key flagged" (Gate.diff r [ ("a", "1") ] <> [])

let () =
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ ".perfbench"; state ];
  digests ();
  planted_corruption ();
  gate ();
  every_metric ();
  Daemon.kill_all ();
  if !failures > 0 then begin
    Printf.printf "%d self-check failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perfbench self-check: ok"
