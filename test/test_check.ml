(* Tests for the property-based verification harness (Spp_check): the
   runner's determinism and shrinking mechanics, the planted-bug self test
   (the harness must catch a deliberately broken solver and minimize the
   counterexample), bounded fixed-seed slices of the real property suite
   over both variants, the shrinker/mutation contracts, and the spp fuzz
   CLI surface. The full-throttle runs live in CI's nightly fuzz job; what
   runs here is a deterministic slice small enough for tier-1. *)

module Q = Spp_num.Rat
module Prng = Spp_util.Prng
module I = Spp_core.Instance
module Io = Spp_core.Io
module Dag = Spp_dag.Dag
module Mutate = Spp_workloads.Mutate
module Runner = Spp_check.Runner
module Arb = Spp_check.Arb
module Props = Spp_check.Props

(* ------------------------------------------------------------------ *)
(* Runner mechanics, on a transparent integer arbitrary *)

let int_arb : int Runner.arbitrary =
  {
    Runner.generate = (fun rng -> Prng.int rng 1_000);
    (* Classic integer shrinker: toward zero by halving, then decrement. *)
    shrink =
      (fun n ->
        List.to_seq
          (List.filter (fun m -> m <> n) [ n / 2; n - ((n - (n / 2)) / 2); n - 1 ]));
    print = string_of_int;
  }

let ge_10 : int Runner.property =
  {
    Runner.name = "int.lt.10";
    doc = "fails on any value >= 10";
    tags = [];
    check = (fun n -> if n < 10 then Runner.Pass else Runner.Fail (string_of_int n));
  }

let test_runner_deterministic () =
  let go () = Runner.run ~cases:40 ~seed:5 int_arb [ ge_10 ] in
  let a = go () and b = go () in
  Alcotest.(check int) "cases agree" a.Runner.cases b.Runner.cases;
  Alcotest.(check int) "checks agree" a.Runner.checks b.Runner.checks;
  Alcotest.(check int) "failure count agrees" (List.length a.Runner.failures)
    (List.length b.Runner.failures);
  List.iter2
    (fun (x : int Runner.failure) (y : int Runner.failure) ->
      Alcotest.(check int) "case seeds agree" x.Runner.case_seed y.Runner.case_seed;
      Alcotest.(check int) "minimized values agree" x.Runner.minimized y.Runner.minimized)
    a.Runner.failures b.Runner.failures

let test_runner_shrinks_to_boundary () =
  let report = Runner.run ~cases:50 ~seed:1 int_arb [ ge_10 ] in
  match report.Runner.failures with
  | [ f ] ->
    (* Greedy halving from any failing value must land exactly on the
       boundary: 10 is the unique local minimum of this predicate. *)
    Alcotest.(check int) "minimized to the boundary" 10 f.Runner.minimized;
    Alcotest.(check string) "message is the minimized value" "10" f.Runner.message;
    Alcotest.(check bool) "took shrink steps" true (f.Runner.shrink_steps > 0)
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

let test_runner_skip_accounting () =
  let skipper =
    { Runner.name = "always.skip"; doc = ""; tags = []; check = (fun _ -> Runner.Skip) }
  in
  let report = Runner.run ~cases:25 ~seed:2 int_arb [ skipper ] in
  Alcotest.(check int) "no checks" 0 report.Runner.checks;
  Alcotest.(check int) "all skips" 25 report.Runner.skips;
  Alcotest.(check (list (pair string int))) "per-property count" [ ("always.skip", 0) ]
    report.Runner.per_property

let test_runner_exception_is_failure () =
  let thrower =
    {
      Runner.name = "always.raise";
      doc = "";
      tags = [];
      check = (fun n -> if n > 2 then failwith "boom" else Runner.Pass);
    }
  in
  let report = Runner.run ~cases:20 ~seed:3 int_arb [ thrower ] in
  match report.Runner.failures with
  | [ f ] ->
    Alcotest.(check bool) "message names the exception" true
      (let msg = f.Runner.message in
       String.length msg >= 18 && String.sub msg 0 18 = "uncaught exception")
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_runner_replay_matches_run () =
  let report = Runner.run ~cases:50 ~seed:9 int_arb [ ge_10 ] in
  match report.Runner.failures with
  | [ f ] -> (
    let replayed = Runner.replay ~case_seed:f.Runner.case_seed int_arb [ ge_10 ] in
    match replayed.Runner.failures with
    | [ f' ] ->
      Alcotest.(check int) "same original value" f.Runner.original f'.Runner.original;
      Alcotest.(check int) "same minimized value" f.Runner.minimized f'.Runner.minimized
    | fs -> Alcotest.failf "replay produced %d failures" (List.length fs))
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_runner_deadline_stops_early () =
  let report = Runner.run ~cases:max_int ~deadline_ms:50.0 ~seed:4 int_arb [ ge_10 ] in
  Alcotest.(check bool) "stopped before max_int cases" true (report.Runner.cases < 1_000_000)

(* ------------------------------------------------------------------ *)
(* Planted bug: the self test that proves the harness has teeth *)

let rect_count = function
  | Io.Prec inst -> List.length inst.I.Prec.rects
  | Io.Release inst -> List.length inst.I.Release.tasks

let planted_report =
  lazy (Runner.run ~cases:50 ~seed:42 (Arb.parsed ~variant:`Prec) [ Props.planted_bug ])

let test_planted_bug_caught () =
  let report = Lazy.force planted_report in
  Alcotest.(check int) "exactly one failure" 1 (List.length report.Runner.failures)

let test_planted_bug_minimized () =
  let report = Lazy.force planted_report in
  match report.Runner.failures with
  | [ f ] ->
    Alcotest.(check bool)
      (Printf.sprintf "minimized to %d rects (<= 5)" (rect_count f.Runner.minimized))
      true
      (rect_count f.Runner.minimized <= 5);
    (* The minimized counterexample must itself be a parseable instance. *)
    let arb = Arb.parsed ~variant:`Prec in
    (match Io.parse_string (arb.Runner.print f.Runner.minimized) with
     | Io.Prec _ -> ()
     | Io.Release _ -> Alcotest.fail "minimized instance changed variant")
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_planted_bug_replay_deterministic () =
  let report = Lazy.force planted_report in
  match report.Runner.failures with
  | [ f ] -> (
    let arb = Arb.parsed ~variant:`Prec in
    let replayed = Runner.replay ~case_seed:f.Runner.case_seed arb [ Props.planted_bug ] in
    match replayed.Runner.failures with
    | [ f' ] ->
      Alcotest.(check string) "replay minimizes to the identical instance"
        (arb.Runner.print f.Runner.minimized)
        (arb.Runner.print f'.Runner.minimized)
    | fs -> Alcotest.failf "replay produced %d failures" (List.length fs))
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Fixed-seed slices of the real suite: a bounded, deterministic version
   of what the nightly fuzz job runs for minutes. Zero failures expected —
   any failure here is a real bug in a solver (or a wrong property). *)

let pp_failures (arb : Io.parsed Runner.arbitrary) failures =
  String.concat "\n"
    (List.map
       (fun (f : Io.parsed Runner.failure) ->
         Printf.sprintf "%s (replay seed %d): %s\n%s" f.Runner.property f.Runner.case_seed
           f.Runner.message
           (arb.Runner.print f.Runner.minimized))
       failures)

let slice variant () =
  let arb = Arb.parsed ~variant in
  let props = Props.select ~variant () in
  let report = Runner.run ~cases:12 ~seed:7 arb props in
  if report.Runner.failures <> [] then
    Alcotest.failf "property violations:\n%s" (pp_failures arb report.Runner.failures);
  Alcotest.(check bool) "every case was generated" true (report.Runner.cases = 12);
  Alcotest.(check bool) "some checks actually ran" true (report.Runner.checks > 0)

(* The wire-decoder property on its own, over more cases than a slice. *)
let test_json_decode_property () =
  let arb = Arb.parsed ~variant:`Both in
  let report = Runner.run ~cases:200 ~seed:11 arb (Props.select ~algos:[ "json" ] ~variant:`Both ()) in
  if report.Runner.failures <> [] then
    Alcotest.failf "property violations:\n%s" (pp_failures arb report.Runner.failures);
  Alcotest.(check (list (pair string int))) "json.decode ran on every case"
    [ ("json.decode", 200) ] report.Runner.per_property

(* ------------------------------------------------------------------ *)
(* Shrinker and mutation contracts *)

let gen_prec seed =
  let rng = Prng.create seed in
  Spp_workloads.Generators.random_prec rng ~n:10 ~k:6 ~h_den:4 ~shape:`Series_parallel

let gen_release seed =
  let rng = Prng.create seed in
  Spp_workloads.Generators.random_release rng ~n:8 ~k:4 ~h_den:4 ~r_den:2 ~load:1.2

let test_shrink_prec_measure_decreases () =
  List.iter
    (fun seed ->
      let inst = gen_prec seed in
      let m = Mutate.prec_measure inst in
      Seq.iter
        (fun cand ->
          let m' = Mutate.prec_measure cand in
          if m' >= m then
            Alcotest.failf "candidate measure %d >= original %d (seed %d)" m' m seed)
        (Mutate.shrink_prec inst))
    [ 1; 2; 3; 4; 5 ]

let test_shrink_release_measure_decreases () =
  List.iter
    (fun seed ->
      let inst = gen_release seed in
      let m = Mutate.release_measure inst in
      Seq.iter
        (fun cand ->
          let m' = Mutate.release_measure cand in
          if m' >= m then
            Alcotest.failf "candidate measure %d >= original %d (seed %d)" m' m seed)
        (Mutate.shrink_release inst))
    [ 1; 2; 3; 4; 5 ]

let test_shrink_terminates_at_fixpoint () =
  (* Following first candidates repeatedly must bottom out: the measure is
     a strictly decreasing nat, so the chain is finite. *)
  let rec descend inst fuel =
    if fuel = 0 then Alcotest.fail "shrink chain exceeded the measure bound"
    else
      match Mutate.shrink_prec inst () with
      | Seq.Nil -> ()
      | Seq.Cons (cand, _) -> descend cand (fuel - 1)
  in
  let inst = gen_prec 6 in
  descend inst (Mutate.prec_measure inst + 1)

let test_relabel_rejects_non_monotone () =
  let inst = gen_prec 7 in
  Alcotest.check_raises "non-monotone map rejected"
    (Invalid_argument "Mutate.relabel: map must be strictly monotone on the instance ids")
    (fun () ->
      ignore (Mutate.relabel_prec ~f:(fun id -> -id) inst))

let test_drop_edge_removes_one () =
  let inst = gen_prec 8 in
  match Dag.edges inst.I.Prec.dag with
  | [] -> Alcotest.fail "generator produced no edges for this seed"
  | e :: _ ->
    let inst' = Mutate.drop_edge inst e in
    Alcotest.(check int) "one edge fewer"
      (Dag.num_edges inst.I.Prec.dag - 1)
      (Dag.num_edges inst'.I.Prec.dag);
    Alcotest.(check int) "rects untouched" (I.Prec.size inst) (I.Prec.size inst')

let test_slacken_zero_releases_everything () =
  let inst = gen_release 9 in
  let zero = Mutate.slacken_releases ~factor:Q.zero inst in
  List.iter
    (fun (t : I.Release.task) ->
      if not (Q.is_zero t.release) then Alcotest.fail "nonzero release after zero slackening")
    zero.I.Release.tasks

(* ------------------------------------------------------------------ *)
(* CLI surface: exit codes and artifacts. Tests run from
   _build/default/test, so the built binary sits at ../bin/spp.exe. *)

let spp_exe = Filename.concat ".." (Filename.concat "bin" "spp.exe")

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote spp_exe) args)

let test_cli_clean_run_exits_zero () =
  Alcotest.(check int) "3 clean cases exit 0" 0 (run_cli "fuzz --cases 3 --seed 1")

let test_cli_list_exits_zero () =
  Alcotest.(check int) "--list exits 0" 0 (run_cli "fuzz --list")

let test_cli_unknown_algo_exits_one () =
  Alcotest.(check int) "unknown --algos exits 1" 1 (run_cli "fuzz --cases 1 --algos nosuch")

let test_cli_self_test_writes_artifacts () =
  let dir = Filename.temp_file "spp_fuzz_out" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Alcotest.(check int) "self-test exits 0 when the bug is caught" 0
        (run_cli
           (Printf.sprintf "fuzz --self-test --cases 50 --seed 42 --out %s"
              (Filename.quote dir)));
      Alcotest.(check bool) "JSON report written" true
        (Sys.file_exists (Filename.concat dir "fuzz-report.json"));
      let minimized =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".spp")
      in
      Alcotest.(check int) "one minimized counterexample" 1 (List.length minimized);
      (* The minimized artifact must be a parseable instance file. *)
      match Io.read_file (Filename.concat dir (List.hd minimized)) with
      | Io.Prec _ -> ()
      | Io.Release _ -> Alcotest.fail "planted-bug counterexample changed variant")

let () =
  Alcotest.run "spp_check"
    [
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "shrinks to the boundary" `Quick test_runner_shrinks_to_boundary;
          Alcotest.test_case "skip accounting" `Quick test_runner_skip_accounting;
          Alcotest.test_case "exception becomes failure" `Quick test_runner_exception_is_failure;
          Alcotest.test_case "replay matches run" `Quick test_runner_replay_matches_run;
          Alcotest.test_case "deadline stops early" `Quick test_runner_deadline_stops_early;
        ] );
      ( "planted-bug",
        [
          Alcotest.test_case "caught" `Quick test_planted_bug_caught;
          Alcotest.test_case "minimized to <= 5 rects" `Quick test_planted_bug_minimized;
          Alcotest.test_case "replay deterministic" `Quick test_planted_bug_replay_deterministic;
        ] );
      ( "suite-slice",
        [
          Alcotest.test_case "prec properties, fixed seed" `Quick (slice `Prec);
          Alcotest.test_case "release properties, fixed seed" `Quick (slice `Release);
          Alcotest.test_case "json.decode, 200 cases" `Quick test_json_decode_property;
        ] );
      ( "shrink-mutate",
        [
          Alcotest.test_case "prec measure decreases" `Quick test_shrink_prec_measure_decreases;
          Alcotest.test_case "release measure decreases" `Quick
            test_shrink_release_measure_decreases;
          Alcotest.test_case "greedy descent terminates" `Quick test_shrink_terminates_at_fixpoint;
          Alcotest.test_case "relabel rejects non-monotone" `Quick
            test_relabel_rejects_non_monotone;
          Alcotest.test_case "drop_edge removes one" `Quick test_drop_edge_removes_one;
          Alcotest.test_case "slacken to zero" `Quick test_slacken_zero_releases_everything;
        ] );
      ( "cli",
        [
          Alcotest.test_case "clean run exits 0" `Quick test_cli_clean_run_exits_zero;
          Alcotest.test_case "--list exits 0" `Quick test_cli_list_exits_zero;
          Alcotest.test_case "unknown algo exits 1" `Quick test_cli_unknown_algo_exits_one;
          Alcotest.test_case "self-test writes artifacts" `Quick
            test_cli_self_test_writes_artifacts;
        ] );
    ]
