(* Experiment harness: regenerates every figure/theorem-level claim of the
   paper as a printed table (E1..E12 of DESIGN.md / EXPERIMENTS.md), plus
   Bechamel timing benches (T1..T7).

   Each experiment also writes its tables as BENCH_e<N>.json next to the
   working directory, so tooling reads metric values without scraping text.

   Usage:  main.exe [e1|...|e20|quality|timing|all]   (default: all)
   e20 accepts an optional second argument "quick" (fewer reps, shorter
   fuses) for CI.  *)

module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag
module Prng = Spp_util.Prng
module Table = Spp_util.Table
module Stats = Spp_util.Stats
module I = Spp_core.Instance
module LB = Spp_core.Lower_bounds
module Validate = Spp_core.Validate
module Dc = Spp_core.Dc
module Uniform = Spp_core.Uniform
module List_schedule = Spp_core.List_schedule
module Grouping = Spp_core.Grouping
module Config_lp = Spp_core.Config_lp
module Aptas = Spp_core.Aptas
module Adversarial = Spp_workloads.Adversarial
module Generators = Spp_workloads.Generators

let f2 = Printf.sprintf "%.2f"
let f3 = Printf.sprintf "%.3f"
let qf v = Q.to_float v

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

module Json = Spp_util.Json

(* Machine-readable twin of each experiment's printed tables, written to
   BENCH_<id>.json in the working directory. Cells that parse as numbers
   become JSON numbers, so downstream tooling reads metric values without
   scraping the aligned text; the printed tables stay the human output. *)
let bench_json ~id ?(config = []) tables =
  let cell s =
    match int_of_string_opt s with
    | Some i -> Json.Int i
    | None -> (
      match float_of_string_opt s with Some f -> Json.Float f | None -> Json.String s)
  in
  let table_json (name, t) =
    let cols = Table.columns t in
    Json.Obj
      [ ("name", Json.String name);
        ("columns", Json.List (List.map (fun c -> Json.String c) cols));
        ( "rows",
          Json.List
            (List.map
               (fun r -> Json.Obj (List.map2 (fun c v -> (c, cell v)) cols r))
               (Table.rows t)) ) ]
  in
  let j =
    Json.Obj
      (("experiment", Json.String id)
       :: (if config = [] then [] else [ ("config", Json.Obj config) ])
       @ [ ("tables", Json.List (List.map table_json tables)) ])
  in
  let path = Printf.sprintf "BENCH_%s.json" id in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string j);
      Out_channel.output_char oc '\n');
  Printf.printf "[%s] wrote %s\n" id path

let require_valid_prec inst p what =
  match Validate.check_prec inst p with
  | [] -> ()
  | v :: _ -> failwith (Format.asprintf "%s produced an invalid packing: %a" what Validate.pp_violation v)

let require_valid_release inst p what =
  match Validate.check_release inst p with
  | [] -> ()
  | v :: _ -> failwith (Format.asprintf "%s produced an invalid packing: %a" what Validate.pp_violation v)

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1 / Lemma 2.4: the Omega(log n) gap family. *)

let e1 () =
  section
    "E1  Figure 1 / Lemma 2.4 — Omega(log n) gap between OPT and the simple\n\
    \    lower bounds max(AREA(S), F(S)) on the k-chain construction";
  let t =
    Table.create
      ~columns:
        [ "k"; "n"; "AREA(S)"; "F(S)"; "LB=max"; "DC height"; "DC/LB"; "k/2 (Lemma)"; "2+log2(n+1)" ]
  in
  let points = ref [] in
  List.iter
    (fun k ->
      let inst = Adversarial.fig1 ~k ~eps_den:10_000 in
      let n = I.Prec.size inst in
      let area = LB.area inst and f = LB.critical_path inst in
      let lb = Q.max area f in
      let p, _ = Dc.pack inst in
      require_valid_prec inst p "DC";
      let h = Placement.height p in
      let ratio = qf h /. qf lb in
      points := (Float.log (float_of_int n +. 1.0) /. Float.log 2.0, ratio) :: !points;
      Table.add_row t
        [ string_of_int k; string_of_int n; f3 (qf area); f3 (qf f); f3 (qf lb);
          f3 (qf h); f2 ratio; f2 (float_of_int k /. 2.0);
          f2 (2.0 +. (Float.log (float_of_int n +. 1.0) /. Float.log 2.0)) ])
    [ 2; 3; 4; 5; 6; 7; 8 ];
  Table.print t;
  bench_json ~id:"e1" ~config:[ ("eps_den", Json.Int 10_000); ("ks", Json.String "2..8") ]
    [ ("gap", t) ];
  let slope, intercept = Stats.linear_fit !points in
  Printf.printf
    "\nLeast-squares fit of ratio vs log2(n+1): ratio = %.3f*log2(n+1) + %.3f\n\
     Paper's claim: the gap grows as Theta(log n) (slope bounded away from 0\n\
     and below the 1/2 chain-construction constant).\n"
    slope intercept

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2.3: DC <= (2 + log(n+1)) * OPT on random DAG families. *)

let e2 () =
  section
    "E2  Theorem 2.3 — DC approximation on random DAG workloads\n\
    \    (ratios are against LB = max(AREA, F) <= OPT, so true ratios are\n\
    \    at most the printed ones; bound column is 2 + log2(n+1))";
  let t =
    Table.create
      ~columns:[ "shape"; "n"; "DC/LB (gmean)"; "LS/LB (gmean)"; "bound"; "DC<=bound?" ]
  in
  let shapes =
    [ ("layered", `Layered); ("series-par", `Series_parallel); ("fork-join", `Fork_join);
      ("chain", `Chain); ("indep", `Independent) ]
  in
  (* Cells are independent; fan them across domains (order preserved, so
     output is identical to the sequential run). *)
  let cells =
    List.concat_map (fun shape -> List.map (fun n -> (shape, n)) [ 16; 64; 256 ]) shapes
  in
  let rows =
    Spp_util.Parallel.map
      (fun ((name, shape), n) ->
        let ratios_dc = ref [] and ratios_ls = ref [] in
        let ok = ref true in
        for seed = 1 to 3 do
          let rng = Prng.create ((n * 1000) + seed) in
          let inst = Generators.random_prec rng ~n ~k:8 ~h_den:4 ~shape in
          let lb = qf (LB.prec inst) in
          let p, _ = Dc.pack inst in
          require_valid_prec inst p "DC";
          let h = qf (Placement.height p) in
          let ls = qf (Placement.height (List_schedule.prec inst)) in
          ratios_dc := (h /. lb) :: !ratios_dc;
          ratios_ls := (ls /. lb) :: !ratios_ls;
          if h > Dc.theorem_2_3_bound inst +. 1e-9 then ok := false
        done;
        let bound = 2.0 +. (Float.log (float_of_int n +. 1.0) /. Float.log 2.0) in
        [ name; string_of_int n; f3 (Stats.geometric_mean !ratios_dc);
          f3 (Stats.geometric_mean !ratios_ls); f2 bound; (if !ok then "yes" else "NO") ])
      cells
  in
  List.iter (Table.add_row t) rows;
  Table.print t;
  bench_json ~id:"e2"
    ~config:[ ("sizes", Json.String "16,64,256"); ("seeds", Json.String "1..3") ]
    [ ("ratios", t) ];
  Printf.printf
    "\nShape to reproduce: DC stays a small constant factor above LB on\n\
     realistic DAGs - far below its worst-case O(log n) bound - and the\n\
     greedy list scheduler is competitive there; only the adversarial\n\
     family (E1) separates them from the lower bounds.\n"

(* ------------------------------------------------------------------ *)
(* E3 — Figure 2 / Lemma 2.7: ratio -> 3 family for uniform heights. *)

let e3 () =
  section
    "E3  Figure 2 / Lemma 2.7 — uniform-height family where OPT = 3k while\n\
    \    max(F, AREA) ~ k: no bound-based proof can beat ratio 3";
  let t =
    Table.create
      ~columns:[ "k"; "n=3k"; "AREA"; "F"; "OPT (forced)"; "F-alg height"; "OPT/LB" ]
  in
  List.iter
    (fun k ->
      let inst = Adversarial.fig2 ~k ~eps_den:1000 in
      let area = LB.area inst and f = LB.critical_path inst in
      let p, _ = Uniform.next_fit_shelf inst in
      require_valid_prec inst p "algorithm F";
      let opt = 3 * k in
      let lb = Q.max area f in
      Table.add_row t
        [ string_of_int k; string_of_int (3 * k); f3 (qf area); f3 (qf f);
          string_of_int opt; f3 (qf (Placement.height p)); f3 (float_of_int opt /. qf lb) ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Table.print t;
  bench_json ~id:"e3" [ ("lemma_2_7", t) ];
  Printf.printf
    "\nOPT/LB approaches 3 from below as k grows (Lemma 2.7's exact values:\n\
     AREA = n/3 + n*eps, F = n/3 + 1, OPT = n).\n"

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 2.6: algorithm F is an absolute 3-approximation. *)

let e4 () =
  section
    "E4  Theorem 2.6 — algorithm F vs the exact optimum (small n, DP ground\n\
    \    truth) and vs LB (large n); also the GGJY-style first fit and the\n\
    \    wave-FFD baseline";
  let t_small =
    Table.create ~columns:[ "n"; "F/OPT (mean)"; "F/OPT (max)"; "PFF/OPT"; "wave/OPT"; "skips<=path?" ]
  in
  List.iter
    (fun n ->
      let rf = ref [] and rp = ref [] and rw = ref [] in
      let skips_ok = ref true in
      for seed = 1 to 10 do
        let rng = Prng.create ((n * 37) + seed) in
        let inst = Generators.random_uniform_prec rng ~n ~k:8 ~shape:`Series_parallel in
        let opt = qf (Spp_exact.Prec_binpack.min_height inst) in
        let pf, sf = Uniform.next_fit_shelf inst in
        require_valid_prec inst pf "algorithm F";
        let pp, _ = Uniform.prec_first_fit inst in
        let pw, _ = Uniform.wave_ffd inst in
        rf := (qf (Placement.height pf) /. opt) :: !rf;
        rp := (qf (Placement.height pp) /. opt) :: !rp;
        rw := (qf (Placement.height pw) /. opt) :: !rw;
        if sf.Uniform.skips > Dag.longest_path_length inst.dag then skips_ok := false
      done;
      let _, fmax = Stats.min_max !rf in
      Table.add_row t_small
        [ string_of_int n; f3 (Stats.mean !rf); f3 fmax; f3 (Stats.mean !rp);
          f3 (Stats.mean !rw); (if !skips_ok then "yes" else "NO") ])
    [ 6; 9; 12; 15 ];
  Table.print t_small;
  let t_large = Table.create ~columns:[ "n"; "F/LB"; "PFF/LB"; "wave/LB" ] in
  List.iter
    (fun n ->
      let rng = Prng.create (n * 101) in
      let inst = Generators.random_uniform_prec rng ~n ~k:8 ~shape:`Layered in
      let lb = qf (LB.prec inst) in
      let pf, _ = Uniform.next_fit_shelf inst in
      let pp, _ = Uniform.prec_first_fit inst in
      let pw, _ = Uniform.wave_ffd inst in
      Table.add_row t_large
        [ string_of_int n; f3 (qf (Placement.height pf) /. lb);
          f3 (qf (Placement.height pp) /. lb); f3 (qf (Placement.height pw) /. lb) ])
    [ 50; 100; 200 ];
  Table.print t_large;
  bench_json ~id:"e4" [ ("small", t_small); ("large", t_large) ];
  Printf.printf
    "\nShape: F stays well below its absolute bound of 3 on random inputs\n\
     (the bound is tight only on Figure-2-style adversaries, E3); the\n\
     GGJY-style first fit is consistently at least as good as next fit, and\n\
     Lemma 2.5's skip bound holds on every run.\n"

(* ------------------------------------------------------------------ *)
(* E5 — Section 2.2 reduction: slide-down + shelves = bins equivalence. *)

let e5 () =
  section
    "E5  Section 2.2 — shelf normalisation (slide-down) and the\n\
    \    strip-packing <-> bin-packing equivalence for uniform heights";
  let t =
    Table.create
      ~columns:[ "n"; "LS height"; "slid height"; "shelf-aligned?"; "bins(FFD view)"; "exact bins" ]
  in
  List.iter
    (fun n ->
      let rng = Prng.create (n * 7) in
      let inst = Generators.random_uniform_prec rng ~n ~k:8 ~shape:`Series_parallel in
      let p = List_schedule.prec inst in
      let s = Uniform.slide_down inst p in
      require_valid_prec inst s "slide-down";
      let aligned =
        List.for_all
          (fun (it : Placement.item) ->
            let y = it.pos.Placement.y in
            Q.equal (Q.of_bigint (Q.floor y)) y)
          (Placement.items s)
      in
      let pf, stats = Uniform.prec_first_fit inst in
      require_valid_prec inst pf "prec first fit";
      let exact =
        if n <= 14 then string_of_int (Spp_num.Bigint.to_int_exn (Q.floor (Spp_exact.Prec_binpack.min_height inst)))
        else "-"
      in
      Table.add_row t
        [ string_of_int n; f3 (qf (Placement.height p)); f3 (qf (Placement.height s));
          (if aligned then "yes" else "NO"); string_of_int stats.Uniform.shelves; exact ])
    [ 8; 12; 14; 30; 60 ];
  Table.print t;
  bench_json ~id:"e5" [ ("slide_down", t) ];
  Printf.printf
    "\nSlide-down never increases height and always lands every rectangle on\n\
     a shelf, which is exactly why the GGJY bin-packing results transfer\n\
     (the paper's reduction).\n"

(* ------------------------------------------------------------------ *)
(* E6 — Lemmas 3.1 & 3.2: measured cost of the two reductions. *)

let e6 () =
  section
    "E6  Figures 3-4 / Lemmas 3.1-3.2 — fractional cost of release rounding\n\
    \    and width grouping (measured factor vs proved factor)";
  let t =
    Table.create
      ~columns:
        [ "seed"; "eps'"; "OPTf(P)"; "OPTf(P(R))"; "r-factor"; "<=1+eps'"; "OPTf(P(R,W))";
          "w-factor"; "<=1+K(R+1)/W" ]
  in
  List.iter
    (fun seed ->
      List.iter
        (fun inv_eps ->
          let eps' = Q.of_ints 1 inv_eps in
          let rng = Prng.create (seed * 31) in
          let inst = Generators.random_release rng ~n:10 ~k:2 ~h_den:4 ~r_den:2 ~load:1.5 in
          let base = Config_lp.solve inst in
          let p_r = Grouping.round_releases ~epsilon_r:eps' inst in
          let sol_r = Config_lp.solve p_r in
          let r = inv_eps in
          let g = inv_eps * 2 in
          let w = g * (r + 1) in
          let p_rw = Grouping.group_widths ~groups_per_class:g p_r in
          let sol_rw = Config_lp.solve p_rw in
          let f0 = qf base.Config_lp.fractional_height in
          let f1 = qf sol_r.Config_lp.fractional_height in
          let f2v = qf sol_rw.Config_lp.fractional_height in
          let rb = 1.0 +. (1.0 /. float_of_int inv_eps) in
          let wb = 1.0 +. (float_of_int (2 * (r + 1)) /. float_of_int w) in
          Table.add_row t
            [ string_of_int seed; Printf.sprintf "1/%d" inv_eps; f3 f0; f3 f1; f3 (f1 /. f0);
              (if f1 <= (f0 *. rb) +. 1e-9 then "yes" else "NO"); f3 f2v; f3 (f2v /. f1);
              (if f2v <= (f1 *. wb) +. 1e-9 then "yes" else "NO") ])
        [ 2; 3 ])
    [ 1; 2; 3 ];
  Table.print t;
  bench_json ~id:"e6" [ ("envelopes", t) ];
  Printf.printf
    "\nBoth measured factors sit far below the proved (1 + eps') envelopes;\n\
     grouping is often free because column-quantised widths already\n\
     coincide within classes.\n"

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 3.5: APTAS end-to-end vs baseline. *)

let e7 () =
  section
    "E7  Theorem 3.5 — APTAS end to end: height vs certified lower bound,\n\
    \    additive accounting (Lemmas 3.3-3.4), and the greedy baseline";
  let t =
    Table.create
      ~columns:
        [ "eps"; "K"; "n"; "APTAS h"; "LB"; "h/LB"; "LS h"; "LS/LB"; "occ"; "occ cap"; "frac+occ ok" ]
  in
  let cells =
    List.concat_map
      (fun ed -> List.concat_map (fun k -> List.map (fun n -> (ed, k, n)) [ 10; 20; 40 ]) [ 2; 3 ])
      [ (1, 1); (1, 2) ]
  in
  let rows =
    Spp_util.Parallel.map
      (fun ((eps_n, eps_d), k, n) ->
        let eps = Q.of_ints eps_n eps_d in
        let rng = Prng.create ((n * 13) + k) in
        let inst = Generators.random_release rng ~n ~k ~h_den:4 ~r_den:2 ~load:1.3 in
        let res = Aptas.solve ~epsilon:eps inst in
        require_valid_release inst res.Aptas.placement "APTAS";
        let ls = Placement.height (List_schedule.release inst) in
        let lb = res.Aptas.lower_bound in
        let slack_ok =
          Q.compare res.Aptas.height
            (Q.add res.Aptas.fractional_height (Q.of_int res.Aptas.occurrences))
          <= 0
          && res.Aptas.occurrences <= res.Aptas.max_occurrences
          && res.Aptas.fallback_rects = 0
        in
        [ Printf.sprintf "%d/%d" eps_n eps_d; string_of_int k; string_of_int n;
          f3 (qf res.Aptas.height); f3 (qf lb); f3 (qf res.Aptas.height /. qf lb);
          f3 (qf ls); f3 (qf ls /. qf lb); string_of_int res.Aptas.occurrences;
          string_of_int res.Aptas.max_occurrences; (if slack_ok then "yes" else "NO") ])
      cells
  in
  List.iter (Table.add_row t) rows;
  Table.print t;
  bench_json ~id:"e7" [ ("aptas", t) ];
  Printf.printf
    "\nShape: the APTAS's multiplicative ratio h/LB falls towards 1+eps as n\n\
     grows (the additive (W+1)(R+1) term amortises), while the greedy\n\
     baseline's ratio does not improve with n. Every run satisfies the\n\
     mechanical pieces of Theorem 3.5 (occ <= (W+1)(R+1) and\n\
     h <= OPT_f(P(R,W)) + occ).\n"

(* ------------------------------------------------------------------ *)
(* E8 — the subroutine A property and unconstrained baselines. *)

let e8 () =
  section
    "E8  Subroutine A — NFDH satisfies A <= 2*AREA + h_max (the only\n\
    \    property Theorem 2.3 uses), and how the level baselines compare";
  let t =
    Table.create
      ~columns:[ "n"; "AREA"; "NFDH"; "2A+hmax"; "ok"; "FFDH"; "BFDH"; "BL"; "best/AREA" ]
  in
  List.iter
    (fun n ->
      let rng = Prng.create (n * 3) in
      let rects = Generators.random_rects rng ~n ~k:16 ~h_den:8 in
      let area = Rect.total_area rects in
      let bound = Q.add (Q.mul_int area 2) (Rect.max_height rects) in
      let nfdh = Placement.height (Spp_pack.Level.nfdh rects) in
      let ffdh = Placement.height (Spp_pack.Level.ffdh rects) in
      let bfdh = Placement.height (Spp_pack.Level.bfdh rects) in
      let bl = Placement.height (Spp_pack.Bottom_left.pack rects) in
      let best = List.fold_left Q.min nfdh [ ffdh; bfdh; bl ] in
      Table.add_row t
        [ string_of_int n; f3 (qf area); f3 (qf nfdh); f3 (qf bound);
          (if Q.compare nfdh bound <= 0 then "yes" else "NO"); f3 (qf ffdh); f3 (qf bfdh);
          f3 (qf bl); f3 (qf best /. qf area) ])
    [ 25; 50; 100; 250; 500 ];
  Table.print t;
  bench_json ~id:"e8" [ ("shelf", t) ];
  Printf.printf
    "\nNFDH always sits under its 2*AREA + h_max certificate; FFDH/BFDH/BL\n\
     shave constant factors but share the same asymptotics - any of them\n\
     can serve as DC's subroutine A.\n"

(* ------------------------------------------------------------------ *)
(* E9 — the FPGA motivation end to end. *)

let e9 () =
  section
    "E9  FPGA end-to-end — the paper's Section 1 motivation: JPEG and\n\
    \    packet pipelines scheduled by DC and executed on the simulated\n\
    \    column-reconfigurable device";
  let t =
    Table.create
      ~columns:
        [ "workload"; "n"; "K"; "algorithm"; "makespan"; "LB"; "utilisation"; "reconfigs"; "clean" ]
  in
  let run name (inst : I.Prec.t) k =
    let dev = Spp_fpga.Device.make ~columns:k () in
    List.iter
      (fun (alg_name, pack) ->
        let p = pack inst in
        require_valid_prec inst p alg_name;
        let sched = Spp_fpga.Schedule.of_placement ~device:dev p in
        let rep = Spp_fpga.Sim.run ~dag:inst.dag sched in
        Table.add_row t
          [ name; string_of_int (I.Prec.size inst); string_of_int k; alg_name;
            f3 (qf rep.Spp_fpga.Sim.makespan); f3 (qf (LB.prec inst));
            f2 rep.Spp_fpga.Sim.utilisation; string_of_int rep.Spp_fpga.Sim.reconfigurations;
            (if rep.Spp_fpga.Sim.violations = [] then "yes" else "NO") ])
      [ ("DC", fun i -> fst (Dc.pack i)); ("list-sched", List_schedule.prec) ]
  in
  run "jpeg(4 blocks)" (Generators.jpeg_pipeline ~blocks:4 ~k:8) 8;
  run "jpeg(16 blocks)" (Generators.jpeg_pipeline ~blocks:16 ~k:8) 8;
  run "packet(8 flows)" (Generators.packet_pipeline ~flows:8 ~k:8) 8;
  run "packet(32 flows)" (Generators.packet_pipeline ~flows:32 ~k:16) 16;
  Table.print t;
  bench_json ~id:"e9" [ ("fpga", t) ];
  Printf.printf
    "\nEvery schedule executes on the device with zero conflicts; utilisation\n\
     quantifies how much reconfigurable area the schedule wastes, the\n\
     quantity dynamic reconfiguration exists to reclaim.\n"

(* ------------------------------------------------------------------ *)
(* E10 — online OS scheduling vs the offline APTAS (release times). *)

let e10 () =
  section
    "E10  Online vs offline — the FPGA operating-system view the paper\n\
    \     cites for release times: online column allocation (Earliest /\n\
    \     Leftmost policies) against the offline APTAS and its certified\n\
    \     lower bound";
  let t =
    Table.create
      ~columns:
        [ "n"; "load"; "LB"; "APTAS"; "shelf-FF"; "online-E"; "online-L"; "APTAS/LB"; "onE/LB";
          "onL/LB"; "onE wait" ]
  in
  List.iter
    (fun (n, load) ->
      let rng = Prng.create ((n * 17) + int_of_float (load *. 10.0)) in
      let inst = Generators.random_release rng ~n ~k:2 ~h_den:4 ~r_den:2 ~load in
      let res = Aptas.solve ~epsilon:Q.one inst in
      require_valid_release inst res.Aptas.placement "APTAS";
      let lb = res.Aptas.lower_bound in
      let dev = Spp_fpga.Device.make ~columns:2 () in
      let arrivals = Spp_fpga.Online.arrivals_of_release inst in
      let mk policy =
        let sched = Spp_fpga.Online.schedule dev policy arrivals in
        let release id = I.Release.release inst id in
        let rep = Spp_fpga.Sim.run ~release sched in
        if rep.Spp_fpga.Sim.violations <> [] then failwith "online schedule invalid";
        (Spp_fpga.Schedule.makespan sched, Spp_fpga.Sim.mean_wait ~release sched)
      in
      let on_e, wait_e = mk `Earliest and on_l, _ = mk `Leftmost in
      let shelf, _ = Spp_core.Release_shelf.pack_first_fit inst in
      require_valid_release inst shelf "release shelf";
      Table.add_row t
        [ string_of_int n; f2 load; f3 (qf lb); f3 (qf res.Aptas.height);
          f3 (qf (Placement.height shelf)); f3 (qf on_e); f3 (qf on_l);
          f3 (qf res.Aptas.height /. qf lb); f3 (qf on_e /. qf lb); f3 (qf on_l /. qf lb);
          f3 wait_e ])
    [ (10, 0.8); (10, 1.5); (20, 0.8); (20, 1.5); (40, 0.8); (40, 1.5) ];
  Table.print t;
  bench_json ~id:"e10" [ ("online", t) ];
  Printf.printf
    "\nThe informed online policy (Earliest) tracks the offline APTAS\n\
     closely under light load and degrades under heavy load, while the\n\
     naive Leftmost allocator pays for ignoring column state - the gap the\n\
     paper's offline guarantees quantify.\n"

(* ------------------------------------------------------------------ *)
(* E11 — ablation: DC's subroutine A. *)

let e11 () =
  section
    "E11  Ablation — DC with different subroutines A (Theorem 2.3 only\n\
    \     needs A <= 2*AREA + h_max; any of these satisfies it)";
  let t = Table.create ~columns:[ "shape"; "n"; "DC+NFDH"; "DC+FFDH"; "DC+BFDH"; "DC+Sleator"; "DC+BL" ] in
  List.iter
    (fun (name, shape) ->
      List.iter
        (fun n ->
          let rng = Prng.create ((n * 7) + Hashtbl.hash name) in
          let inst = Generators.random_prec rng ~n ~k:8 ~h_den:4 ~shape in
          let height sub =
            let p, _ = Dc.pack ~subroutine:sub inst in
            require_valid_prec inst p "DC ablation";
            qf (Placement.height p)
          in
          Table.add_row t
            [ name; string_of_int n; f3 (height Spp_pack.Level.nfdh);
              f3 (height Spp_pack.Level.ffdh); f3 (height Spp_pack.Level.bfdh);
              f3 (height Spp_pack.Sleator.pack);
              f3 (height (fun rs -> Spp_pack.Bottom_left.pack rs)) ])
        [ 64; 256 ])
    [ ("layered", `Layered); ("series-par", `Series_parallel) ];
  Table.print t;
  bench_json ~id:"e11" [ ("subroutines", t) ];
  Printf.printf
    "\nThe subroutine choice moves constants only - exactly what the\n\
     DESIGN.md substitution (NFDH for Steinberg) predicts: the analysis\n\
     never uses more than the 2*AREA + h_max property.\n"

(* ------------------------------------------------------------------ *)
(* E12 — the Kenyon–Rémila regime: plain strip packing via the same LP
   pipeline (all releases zero). *)

let e12 () =
  section
    "E12  Kenyon-Remila mode — the ancestor APTAS the paper builds on:\n\
    \     plain strip packing through the Section-3 pipeline with a single\n\
    \     release, vs the classical level algorithms";
  let t =
    Table.create
      ~columns:[ "n"; "eps"; "APTAS h"; "frac (LB-ish)"; "NFDH"; "FFDH"; "Sleator"; "APTAS/frac" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (en, ed) ->
          let eps = Q.of_ints en ed in
          let rng = Prng.create (n * 5) in
          let rects = Generators.random_rects rng ~n ~k:2 ~h_den:8 in
          let res = Aptas.strip ~epsilon:eps ~k:2 rects in
          let inst =
            I.Release.make ~k:2
              (List.map (fun rect -> { I.Release.rect; release = Q.zero }) rects)
          in
          require_valid_release inst res.Aptas.placement "strip APTAS";
          Table.add_row t
            [ string_of_int n; Printf.sprintf "%d/%d" en ed; f3 (qf res.Aptas.height);
              f3 (qf res.Aptas.fractional_height);
              f3 (qf (Placement.height (Spp_pack.Level.nfdh rects)));
              f3 (qf (Placement.height (Spp_pack.Level.ffdh rects)));
              f3 (qf (Spp_pack.Sleator.height rects));
              f3 (qf res.Aptas.height /. qf res.Aptas.fractional_height) ])
        [ (1, 1); (1, 2) ])
    [ 20; 60; 120 ];
  Table.print t;
  bench_json ~id:"e12" [ ("lp", t) ];
  Printf.printf
    "\nThe LP-based packing sits within 1-3%% of its fractional optimum at\n\
     every size (the asymptotic guarantee at work); the constant-factor\n\
     level algorithms remain competitive at these n because the additive\n\
     term has not fully amortised - the trade-off Kenyon-Remila's result,\n\
     which the paper generalises to release times, is about.\n"

(* ------------------------------------------------------------------ *)
(* E13 — the portfolio engine: racing every applicable algorithm across
   domains vs running them one after another, and vs the best single
   member. *)

let e13 () =
  section
    "E13  Portfolio engine — wall-clock cost of racing all applicable\n\
    \     algorithms across domains vs the best single member and vs\n\
    \     running the members sequentially";
  let module Engine = Spp_engine.Engine in
  let module Portfolio = Spp_engine.Portfolio in
  let module Clock = Spp_util.Clock in
  let module Io = Spp_core.Io in
  let t =
    Table.create
      ~columns:
        [ "instance"; "n"; "members"; "best member"; "best ms"; "seq ms"; "portfolio ms";
          "speedup(seq)"; "winner"; "height ok" ]
  in
  let cases =
    [ ("prec n=7", Io.Prec (let rng = Prng.create 41 in
                            Generators.random_prec rng ~n:7 ~k:8 ~h_den:4 ~shape:`Series_parallel));
      ("prec n=9", Io.Prec (let rng = Prng.create 42 in
                            Generators.random_prec rng ~n:9 ~k:8 ~h_den:4 ~shape:`Layered));
      ("uniform n=9", Io.Prec (let rng = Prng.create 43 in
                               Generators.random_uniform_prec rng ~n:9 ~k:8 ~shape:`Fork_join));
      ("release n=9", Io.Release (let rng = Prng.create 44 in
                                  Generators.random_release rng ~n:9 ~k:2 ~h_den:4 ~r_den:2
                                    ~load:1.3)) ]
  in
  List.iter
    (fun (name, parsed) ->
      let members = Portfolio.defaults parsed in
      (* Each member alone: wall time and achieved height. *)
      let singles =
        List.map
          (fun (s : Portfolio.spec) ->
            let t0 = Clock.now_ms () in
            let p = s.Portfolio.run ~cancel:Spp_util.Cancel.never parsed in
            (s.Portfolio.name, Placement.height p, Clock.elapsed_ms t0))
          members
      in
      let seq_ms = List.fold_left (fun acc (_, _, ms) -> acc +. ms) 0.0 singles in
      let best_name, best_h, best_ms =
        List.fold_left
          (fun ((_, bh, _) as acc) ((_, h, _) as c) -> if Q.compare h bh < 0 then c else acc)
          (List.hd singles) (List.tl singles)
      in
      let engine = Engine.create () in
      let t0 = Clock.now_ms () in
      let res = Engine.solve engine parsed in
      let port_ms = Clock.elapsed_ms t0 in
      let n =
        match parsed with
        | Io.Prec inst -> I.Prec.size inst
        | Io.Release inst -> I.Release.size inst
      in
      Table.add_row t
        [ name; string_of_int n; string_of_int (List.length members); best_name; f2 best_ms;
          f2 seq_ms; f2 port_ms; f2 (seq_ms /. Float.max port_ms 0.01);
          res.Engine.winner;
          (if Q.compare res.Engine.height best_h <= 0 then "<= best" else "WORSE") ])
    cases;
  Table.print t;
  bench_json ~id:"e13" ~config:[ ("seeds", Json.String "41..44") ] [ ("portfolio", t) ];
  Printf.printf
    "\nShape: the portfolio's wall clock tracks its slowest raced member (not\n\
     the sum), so against sequential execution the speedup approaches the\n\
     member count while the returned height is never worse than the best\n\
     single algorithm's.\n"

(* ------------------------------------------------------------------ *)
(* Timing benches (Bechamel). *)

let timing () =
  section "T1-T7  Timing (Bechamel; ns per run, linear-regression estimate)";
  let open Bechamel in
  let open Toolkit in
  let rng = Prng.create 99 in
  let inst128 = Generators.random_prec rng ~n:128 ~k:8 ~h_den:4 ~shape:`Layered in
  let uinst = Generators.random_uniform_prec rng ~n:128 ~k:8 ~shape:`Layered in
  let rects1000 = Generators.random_rects rng ~n:1000 ~k:16 ~h_den:8 in
  let rinst = Generators.random_release rng ~n:12 ~k:2 ~h_den:4 ~r_den:2 ~load:1.3 in
  let packed = Spp_pack.Level.nfdh rects1000 in
  let lp_model =
    (* A medium LP: the APTAS configuration LP for rinst after reduction. *)
    let p_rw =
      Grouping.group_widths ~groups_per_class:6
        (Grouping.round_releases ~epsilon_r:(Q.of_ints 1 3) rinst)
    in
    p_rw
  in
  let tests =
    [
      Test.make ~name:"T1 DC n=128" (Staged.stage (fun () -> ignore (Dc.pack inst128)));
      Test.make ~name:"T2 algorithm-F n=128"
        (Staged.stage (fun () -> ignore (Uniform.next_fit_shelf uinst)));
      Test.make ~name:"T3 NFDH n=1000"
        (Staged.stage (fun () -> ignore (Spp_pack.Level.nfdh rects1000)));
      Test.make ~name:"T4 APTAS eps=1 K=2 n=12"
        (Staged.stage (fun () -> ignore (Aptas.solve ~epsilon:Q.one rinst)));
      Test.make ~name:"T5 config-LP (exact simplex)"
        (Staged.stage (fun () -> ignore (Config_lp.solve lp_model)));
      Test.make ~name:"T6 validator n=1000"
        (Staged.stage (fun () -> ignore (Placement.check packed)));
      Test.make ~name:"T7 config-LP via column generation"
        (Staged.stage (fun () -> ignore (Spp_core.Config_colgen.solve lp_model)));
    ]
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~limit:200 ~quota ~kde:None ()) [ Instance.monotonic_clock ] test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Printf.printf "%-32s %14.0f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        results)
    tests

let e14 () =
  section
    "E14  Network serving layer — closed-loop clients against one shared\n\
    \     spp serve daemon (worker pool + LRU over a socket) vs paying a\n\
    \     fresh engine per request (the one-process-per-solve model)";
  let module Engine = Spp_engine.Engine in
  let module Io = Spp_core.Io in
  let module Clock = Spp_util.Clock in
  let module Framing = Spp_server.Framing in
  let module Protocol = Spp_server.Protocol in
  let module Server = Spp_server.Server in
  let module Client = Spp_server.Client in
  let corpus =
    [ Io.prec_to_string
        (let rng = Prng.create 61 in
         Generators.random_prec rng ~n:8 ~k:8 ~h_den:4 ~shape:`Series_parallel);
      Io.prec_to_string
        (let rng = Prng.create 62 in
         Generators.random_prec rng ~n:10 ~k:8 ~h_den:4 ~shape:`Layered);
      Io.prec_to_string (Generators.jpeg_pipeline ~blocks:3 ~k:8);
      Io.release_to_string
        (let rng = Prng.create 63 in
         Generators.random_release rng ~n:8 ~k:2 ~h_den:4 ~r_den:2 ~load:1.3) ]
    |> Array.of_list
  in
  let budget_ms = 50.0 in
  let connections = 3 and per_conn = 16 in
  let total = connections * per_conn in
  let pick i = corpus.(i mod Array.length corpus) in
  let t =
    Table.create
      ~columns:[ "mode"; "requests"; "wall ms"; "req/s"; "p50 ms"; "p95 ms"; "p99 ms"; "lru hits" ]
  in
  let row mode wall lats hits =
    Table.add_row t
      [ mode; string_of_int total; f2 wall; f2 (float_of_int total /. (wall /. 1000.));
        f2 (Stats.quantile 0.5 lats); f2 (Stats.quantile 0.95 lats);
        f2 (Stats.quantile 0.99 lats); hits ]
  in
  (* Baseline: every request builds its own engine — no sharing, no cache,
     exactly what forking `spp solve` per request costs (minus exec). *)
  let t0 = Clock.now_ms () in
  let base_lats =
    List.init total (fun i ->
        let r0 = Clock.now_ms () in
        let engine = Engine.create () in
        ignore (Engine.solve ~budget_ms engine (Io.parse_string (pick i)));
        Clock.elapsed_ms r0)
  in
  row "per-request engine" (Clock.elapsed_ms t0) base_lats "-";
  (* Served: one daemon, closed-loop client threads over a Unix socket. *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spp_bench_e14_%d.sock" (Unix.getpid ()))
  in
  let address = Framing.Unix_sock sock in
  let srv =
    Server.start
      { Server.frontend = Spp_server.Frontend.default address; workers = 2; queue_depth = 32;
        engine = Engine.create (); default_budget_ms = Some budget_ms; solve_workers = Some 1;
        slow_ms = None; retry_after_ms = Server.default_retry_after_ms; max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  let lats = Array.make connections [] in
  let t0 = Clock.now_ms () in
  let threads =
    List.init connections (fun ci ->
        Thread.create
          (fun () ->
            Client.with_connection address (fun c ->
                for r = 0 to per_conn - 1 do
                  let r0 = Clock.now_ms () in
                  (match
                     Client.request c
                       (Protocol.Solve
                          { instance = pick (ci + (r * connections)); budget_ms = None;
                            deadline_ms = None; algos = None; trace_id = None })
                   with
                   | Protocol.Solve_ok _ -> ()
                   | _ -> failwith "E14: unexpected reply");
                  lats.(ci) <- Clock.elapsed_ms r0 :: lats.(ci)
                done))
          ())
  in
  List.iter Thread.join threads;
  let served_wall = Clock.elapsed_ms t0 in
  let hits =
    match Client.with_connection address (fun c -> Client.request c Protocol.Metrics) with
    | Protocol.Metrics_ok m -> string_of_int m.Protocol.cache.Protocol.hits
    | _ -> "?"
  in
  Server.stop srv;
  Server.wait srv;
  row "spp serve (shared)" served_wall (Array.to_list lats |> List.concat) hits;
  Table.print t;
  bench_json ~id:"e14" [ ("serve", t) ];
  Printf.printf
    "\nShape: the daemon computes each distinct instance once and serves every\n\
     repeat from the shared LRU at socket-round-trip latency, so the served\n\
     p50 collapses to well under a millisecond while the per-request-engine\n\
     baseline pays the full solve (up to the budget) every time.\n"

(* ------------------------------------------------------------------ *)
(* E15 — observability overhead: the same engine workload with the
   metrics registry live vs. disabled. The target from DESIGN.md is
   < 2% on the cache-hit hot path (one atomic increment per counter). *)

let e15 () =
  section
    "E15  Instrumentation overhead — identical workloads on an engine with\n\
    \    the metrics registry enabled vs. disabled (target: < 2% on hits)";
  let module Engine = Spp_engine.Engine in
  let module Metrics = Spp_obs.Metrics in
  let module Clock = Spp_util.Clock in
  let module Io = Spp_core.Io in
  let distinct = 120 and hit_passes = 60 in
  let corpus =
    Array.init distinct (fun i ->
        let rng = Prng.create (9000 + i) in
        Io.parse_string
          (Io.prec_to_string
             (Generators.random_prec rng ~n:6 ~k:4 ~h_den:4 ~shape:`Series_parallel)))
  in
  let run_mode engine =
    (* Computed path: every instance is a miss. *)
    let t0 = Clock.now_ms () in
    Array.iter (fun p -> ignore (Engine.solve ~algos:[ "dc" ] ~workers:1 engine p)) corpus;
    let computed_ms = Clock.elapsed_ms t0 in
    (* Hot path: every solve is an in-memory LRU hit. *)
    let t0 = Clock.now_ms () in
    for _ = 1 to hit_passes do
      Array.iter (fun p -> ignore (Engine.solve ~algos:[ "dc" ] ~workers:1 engine p)) corpus
    done;
    (computed_ms, Clock.elapsed_ms t0)
  in
  let off_engine () =
    Engine.create ~metrics:(Metrics.create ~enabled:false ()) ~cache_capacity:(2 * distinct) ()
  in
  let on_engine () = Engine.create ~cache_capacity:(2 * distinct) () in
  (* Warm-up pass so allocator/code paths are hot before either timing;
     then best-of-3 per mode — at ~10 us per cache hit the run-to-run
     noise would otherwise dwarf the instrumentation delta. *)
  ignore (run_mode (off_engine ()));
  let best mk =
    let runs = List.init 3 (fun _ -> run_mode (mk ())) in
    ( List.fold_left (fun acc (c, _) -> Float.min acc c) Float.infinity runs,
      List.fold_left (fun acc (_, h) -> Float.min acc h) Float.infinity runs )
  in
  let off_computed, off_hits = best off_engine in
  let on_computed, on_hits = best on_engine in
  let hits = distinct * hit_passes in
  let t =
    Table.create
      ~columns:[ "mode"; "computed ms"; "ms/solve"; "hit ms"; "us/hit" ]
  in
  let row mode computed hit =
    Table.add_row t
      [ mode; f2 computed; f3 (computed /. float_of_int distinct); f2 hit;
        f2 (1000. *. hit /. float_of_int hits) ]
  in
  row "metrics disabled" off_computed off_hits;
  row "metrics enabled" on_computed on_hits;
  Table.print t;
  bench_json ~id:"e15" [ ("obs_overhead", t) ];
  let pct on off = if off > 0. then 100. *. (on -. off) /. off else 0. in
  Printf.printf
    "\nOverhead: %+.2f%% on the computed path, %+.2f%% on the cache-hit path\n\
     (negative values are run-to-run noise; the hit path is the one that\n\
     matters, and its per-request cost is a handful of atomic increments).\n"
    (pct on_computed off_computed) (pct on_hits off_hits)

(* ------------------------------------------------------------------ *)
(* E16 — cluster front tier: the same duplicate-heavy closed-loop load
   against one spp serve vs an spp proxy over three backends. The proxy
   adds a hop, but coalescing collapses concurrent duplicates into one
   upstream solve and the snooped warm cache answers repeats without
   touching a backend at all. *)

let e16 () =
  section
    "E16  Cluster proxy — duplicate-heavy closed-loop clients against one\n\
    \     spp serve vs an spp proxy sharding over three backends with\n\
    \     request coalescing and a snooped warm cache";
  let module Engine = Spp_engine.Engine in
  let module Io = Spp_core.Io in
  let module Clock = Spp_util.Clock in
  let module Metrics = Spp_obs.Metrics in
  let module Framing = Spp_server.Framing in
  let module Protocol = Spp_server.Protocol in
  let module Server = Spp_server.Server in
  let module Client = Spp_server.Client in
  let module Proxy = Spp_cluster.Proxy in
  (* Two distinct instances cycled by four connections: every request
     after the first sighting of each instance is a duplicate — the
     regime proxies exist for. *)
  let corpus =
    [| Io.prec_to_string
         (let rng = Prng.create 71 in
          Generators.random_prec rng ~n:8 ~k:8 ~h_den:4 ~shape:`Series_parallel);
       Io.prec_to_string
         (let rng = Prng.create 72 in
          Generators.random_prec rng ~n:10 ~k:8 ~h_den:4 ~shape:`Layered) |]
  in
  let budget_ms = 50.0 in
  let connections = 4 and per_conn = 16 in
  let total = connections * per_conn in
  let pick i = corpus.(i mod Array.length corpus) in
  let sock tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spp_bench_e16_%s_%d.sock" tag (Unix.getpid ()))
  in
  let start_server tag =
    Server.start
      { Server.frontend = Spp_server.Frontend.default (Framing.Unix_sock (sock tag));
        workers = 1; queue_depth = 32; engine = Engine.create ();
        default_budget_ms = Some budget_ms; solve_workers = Some 1; slow_ms = None;
        retry_after_ms = Server.default_retry_after_ms; max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  let hammer address =
    let lats = Array.make connections [] in
    let t0 = Clock.now_ms () in
    let threads =
      List.init connections (fun ci ->
          Thread.create
            (fun () ->
              Client.with_connection address (fun c ->
                  for r = 0 to per_conn - 1 do
                    let r0 = Clock.now_ms () in
                    (match
                       Client.request c
                         (Protocol.Solve
                            { instance = pick (ci + (r * connections)); budget_ms = None;
                              deadline_ms = None; algos = None; trace_id = None })
                     with
                     | Protocol.Solve_ok _ -> ()
                     | _ -> failwith "E16: unexpected reply");
                    lats.(ci) <- Clock.elapsed_ms r0 :: lats.(ci)
                  done))
            ())
    in
    List.iter Thread.join threads;
    (Clock.elapsed_ms t0, Array.to_list lats |> List.concat)
  in
  let t =
    Table.create
      ~columns:
        [ "mode"; "requests"; "wall ms"; "req/s"; "p50 ms"; "p95 ms"; "p99 ms";
          "coalesced"; "cache hits" ]
  in
  let row mode wall lats coalesced hits =
    Table.add_row t
      [ mode; string_of_int total; f2 wall; f2 (float_of_int total /. (wall /. 1000.));
        f2 (Stats.quantile 0.5 lats); f2 (Stats.quantile 0.95 lats);
        f2 (Stats.quantile 0.99 lats); coalesced; hits ]
  in
  (* Baseline: one server, its own LRU doing the duplicate absorption. *)
  let solo = start_server "solo" in
  let solo_addr = Framing.Unix_sock (sock "solo") in
  let wall, lats = hammer solo_addr in
  Server.stop solo;
  Server.wait solo;
  row "spp serve (single)" wall lats "-" "-";
  (* Cluster: three backends behind a coalescing, snooping proxy. *)
  let backends = List.map start_server [ "b0"; "b1"; "b2" ] in
  let registry = Metrics.create () in
  let proxy_addr = Framing.Unix_sock (sock "proxy") in
  let px =
    Proxy.start
      { (Proxy.default_config ~address:proxy_addr
           ~backends:(List.map (fun tag -> Framing.Unix_sock (sock tag)) [ "b0"; "b1"; "b2" ])
           ())
        with
        Proxy.registry; seed = 16 }
  in
  let wall, lats = hammer proxy_addr in
  let counter name =
    match Metrics.find_counter registry name with Some v -> string_of_int v | None -> "0"
  in
  let coalesced = counter "spp_proxy_coalesced_total" in
  let hits = counter "spp_proxy_cache_hits_total" in
  Proxy.stop px;
  Proxy.wait px;
  List.iter
    (fun srv ->
      Server.stop srv;
      Server.wait srv)
    backends;
  row "spp proxy (3 backends)" wall lats coalesced hits;
  Table.print t;
  bench_json ~id:"e16" [ ("cluster", t) ];
  Printf.printf
    "\nShape: the proxy answers duplicate-heavy load at its own cache latency\n\
     after one sighting per instance (cache hits), and concurrent first\n\
     sightings share a single upstream solve (coalesced), so three backends\n\
     behind one proxy see a fraction of the raw request stream.\n"

let e17 () =
  section
    "E17  Online simulation — arrival-intensity sweep (Poisson rates and\n\
    \     adversarial bursts) through the event-driven simulator: first-fit\n\
    \     vs buffered lookahead, with and without threshold repacking";
  let module Arrivals = Spp_sim.Arrivals in
  let module Online = Spp_sim.Online in
  let module Sim = Spp_sim.Sim in
  let module LB = Spp_core.Lower_bounds in
  let specs =
    [ Arrivals.Poisson 0.5; Arrivals.Poisson 1.0; Arrivals.Poisson 2.0; Arrivals.Poisson 4.0;
      Arrivals.Burst { burst_len = 6; idle_gap = 2.0 };
      Arrivals.Burst { burst_len = 10; idle_gap = 4.0 } ]
  in
  let t =
    Table.create
      ~columns:
        [ "arrival"; "packer"; "repack"; "makespan"; "ratio"; "wait"; "repacks"; "cells";
          "frag mean"; "frag peak" ]
  in
  List.iter
    (fun spec ->
      let inst = Arrivals.trace ~n:60 ~k:8 ~seed:17 spec in
      let lb = LB.release inst in
      List.iter
        (fun packer ->
          List.iter
            (fun repack_threshold ->
              let r = Sim.run ?repack_threshold ~packer inst in
              (match Sim.check inst r with
               | [] -> ()
               | v :: _ -> failwith (Format.asprintf "E17: unsound run: %a" Sim.pp_violation v));
              Table.add_row t
                [ Arrivals.spec_to_string spec; Online.to_string packer;
                  (match repack_threshold with None -> "off" | Some th -> Q.to_string th);
                  f2 (Q.to_float r.Sim.makespan);
                  f2 (Q.to_float r.Sim.makespan /. Q.to_float lb);
                  f2 (Q.to_float r.Sim.total_wait);
                  string_of_int (List.length r.Sim.repacks);
                  string_of_int r.Sim.cells_migrated; f2 (Q.to_float r.Sim.frag_mean);
                  f2 (Q.to_float r.Sim.frag_peak) ])
            [ None; Some (Q.of_ints 1 4) ])
        [ Online.First_fit; Online.Buffered 4 ])
    specs;
  Table.print t;
  bench_json ~id:"e17" [ ("sim", t) ];
  Printf.printf
    "\nShape: ratio is makespan over the Section 3 lower bound (exact, so\n\
     never below 1). Low rates leave the strip idle and every policy is\n\
     near-optimal; at high rates and on bursts the pending queue deepens,\n\
     fragmentation climbs, and threshold repacking buys its makespan and\n\
     wait reductions with migrated cells — the disruption column.\n"

(* ------------------------------------------------------------------ *)
(* E18 — solver-profiling overhead gate: the E15 workload with the
   Profile counters enabled vs. disabled. The counters are ambient
   (Domain.DLS cells, aggregated once per solver call), so the cache-hit
   hot path — which never reaches a solver — must stay inside the same
   < 2% envelope DESIGN.md grants the metrics registry. *)

let e18 () =
  section
    "E18  Profiling overhead gate — identical workloads with the solver\n\
    \    profiling counters enabled vs. disabled (gate: < 2% on hits)";
  let module Engine = Spp_engine.Engine in
  let module Profile = Spp_obs.Profile in
  let module Clock = Spp_util.Clock in
  let module Io = Spp_core.Io in
  let distinct = 120 and hit_passes = 60 in
  let corpus =
    Array.init distinct (fun i ->
        let rng = Prng.create (9500 + i) in
        Io.parse_string
          (Io.prec_to_string
             (Generators.random_prec rng ~n:6 ~k:4 ~h_den:4 ~shape:`Series_parallel)))
  in
  let run_mode engine =
    let t0 = Clock.now_ms () in
    Array.iter (fun p -> ignore (Engine.solve ~algos:[ "dc" ] ~workers:1 engine p)) corpus;
    let computed_ms = Clock.elapsed_ms t0 in
    let t0 = Clock.now_ms () in
    for _ = 1 to hit_passes do
      Array.iter (fun p -> ignore (Engine.solve ~algos:[ "dc" ] ~workers:1 engine p)) corpus
    done;
    (computed_ms, Clock.elapsed_ms t0)
  in
  let mk enabled () =
    Profile.set_enabled enabled;
    Engine.create ~cache_capacity:(2 * distinct) ()
  in
  ignore (run_mode (mk false ()));
  (* Interleave the modes round by round and keep each mode's best, so
     machine drift during the run hits both sides equally instead of
     taxing whichever mode happens to be timed last. *)
  let off_computed = ref infinity and off_hits = ref infinity in
  let on_computed = ref infinity and on_hits = ref infinity in
  for _ = 1 to 3 do
    let c, h = run_mode (mk false ()) in
    off_computed := Float.min !off_computed c;
    off_hits := Float.min !off_hits h;
    let c, h = run_mode (mk true ()) in
    on_computed := Float.min !on_computed c;
    on_hits := Float.min !on_hits h
  done;
  let off_computed = !off_computed and off_hits = !off_hits in
  let on_computed = !on_computed and on_hits = !on_hits in
  Profile.set_enabled true;
  let hits = distinct * hit_passes in
  let t =
    Table.create ~columns:[ "mode"; "computed ms"; "ms/solve"; "hit ms"; "us/hit" ]
  in
  let row mode computed hit =
    Table.add_row t
      [ mode; f2 computed; f3 (computed /. float_of_int distinct); f2 hit;
        f2 (1000. *. hit /. float_of_int hits) ]
  in
  row "profiling disabled" off_computed off_hits;
  row "profiling enabled" on_computed on_hits;
  Table.print t;
  bench_json ~id:"e18"
    ~config:[ ("distinct", Json.Int distinct); ("hit_passes", Json.Int hit_passes) ]
    [ ("profile_overhead", t) ];
  let pct on off = if off > 0. then 100. *. (on -. off) /. off else 0. in
  let hit_pct = pct on_hits off_hits in
  Printf.printf "\nOverhead: %+.2f%% on the computed path, %+.2f%% on the cache-hit path.\n"
    (pct on_computed off_computed) hit_pct;
  Printf.printf "E18 gate: %s (hit-path overhead %+.2f%%, budget 2%%)\n"
    (if hit_pct < 2.0 then "ok" else "FAIL") hit_pct

let e19 () =
  section
    "E19  Hedged failover — a fast/slow backend pair behind the proxy,\n\
    \     tail latency with hedging off vs. a 25 ms hedge delay";
  let module Engine = Spp_engine.Engine in
  let module Io = Spp_core.Io in
  let module Clock = Spp_util.Clock in
  let module Metrics = Spp_obs.Metrics in
  let module Framing = Spp_server.Framing in
  let module Protocol = Spp_server.Protocol in
  let module Server = Spp_server.Server in
  let module Client = Spp_server.Client in
  let module Proxy = Spp_cluster.Proxy in
  let sock tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spp_bench_e19_%s_%d.sock" tag (Unix.getpid ()))
  in
  let start_server tag =
    Server.start
      { Server.frontend = Spp_server.Frontend.default (Framing.Unix_sock (sock tag));
        workers = 1; queue_depth = 32; engine = Engine.create ();
        default_budget_ms = Some 50.0; solve_workers = Some 1; slow_ms = None;
        retry_after_ms = Server.default_retry_after_ms; max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  (* The "slow" backend is a healthy server behind a line relay that sits
     on each request for [stall_ms] before forwarding — a deterministic
     stand-in for a node with a deep queue or a GC pause. *)
  let stall_ms = 120.0 in
  let start_slow_gateway target =
    let addr = Framing.Unix_sock (sock "slowgw") in
    let listener = Framing.listen addr in
    let relay client =
      let upstream = Framing.connect target in
      let from_client = Framing.reader client and from_backend = Framing.reader upstream in
      let rec pump () =
        match Framing.read_line from_client with
        | None -> ()
        | Some line ->
          Thread.delay (stall_ms /. 1000.0);
          Framing.write_line upstream line;
          (match Framing.read_line from_backend with
           | None -> ()
           | Some reply ->
             Framing.write_line client reply;
             pump ())
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close client with Unix.Unix_error _ -> ());
          try Unix.close upstream with Unix.Unix_error _ -> ())
        pump
    in
    let _acceptor =
      Thread.create
        (fun () ->
          let rec loop () =
            match Unix.accept listener with
            | client, _ ->
              ignore (Thread.create (fun () -> try relay client with _ -> ()) ());
              loop ()
            | exception Unix.Unix_error _ -> ()
          in
          loop ())
        ()
    in
    (addr, listener)
  in
  let requests = 32 in
  (* Fresh instances per mode so the proxy's snooped cache never absorbs
     a request — every solve goes upstream, where hedging matters. *)
  let corpus base =
    Array.init requests (fun i ->
        let rng = Prng.create (base + i) in
        Io.prec_to_string
          (Generators.random_prec rng ~n:6 ~k:4 ~h_den:4 ~shape:`Series_parallel))
  in
  let fast = start_server "fast" and slow = start_server "slow" in
  let gw_addr, gw_listener = start_slow_gateway (Framing.Unix_sock (sock "slow")) in
  let t =
    Table.create
      ~columns:[ "mode"; "requests"; "wall ms"; "p50 ms"; "p99 ms"; "hedges"; "hedge wins" ]
  in
  let run_mode label hedge base =
    let registry = Metrics.create () in
    let proxy_addr = Framing.Unix_sock (sock ("proxy_" ^ label)) in
    let px =
      Proxy.start
        { (Proxy.default_config ~address:proxy_addr
             ~backends:[ gw_addr; Framing.Unix_sock (sock "fast") ] ())
          with
          Proxy.registry; seed = 19; hedge; failover = 1;
          probe_interval_ms = 60_000.0; upstream_timeout_ms = Some 5_000.0 }
    in
    let texts = corpus base in
    let lats = ref [] in
    let wall0 = Clock.now_ms () in
    Client.with_connection proxy_addr (fun c ->
        Array.iter
          (fun text ->
            let r0 = Clock.now_ms () in
            (match
               Client.request c
                 (Protocol.Solve
                    { instance = text; budget_ms = None; deadline_ms = None;
                      algos = None; trace_id = None })
             with
             | Protocol.Solve_ok _ -> ()
             | _ -> failwith "E19: unexpected reply");
            lats := Clock.elapsed_ms r0 :: !lats)
          texts);
    let wall = Clock.elapsed_ms wall0 in
    let counter name =
      match Metrics.find_counter registry name with Some v -> v | None -> 0
    in
    let hedges = counter "spp_hedges_total" and wins = counter "spp_hedge_wins_total" in
    Proxy.stop px;
    Proxy.wait px;
    Table.add_row t
      [ label; string_of_int requests; f2 wall; f2 (Stats.quantile 0.5 !lats);
        f2 (Stats.quantile 0.99 !lats); string_of_int hedges; string_of_int wins ];
    Stats.quantile 0.99 !lats
  in
  let p99_off = run_mode "no hedging" Proxy.Hedge_off 19_100 in
  let p99_on = run_mode "hedge 25ms" (Proxy.Hedge_fixed 25.0) 19_200 in
  (try Unix.close gw_listener with Unix.Unix_error _ -> ());
  List.iter
    (fun srv ->
      Server.stop srv;
      Server.wait srv)
    [ fast; slow ];
  Table.print t;
  bench_json ~id:"e19"
    ~config:[ ("stall_ms", Json.Float stall_ms); ("hedge_ms", Json.Float 25.0) ]
    [ ("hedging", t) ];
  Printf.printf
    "\nShape: without hedging, every request whose ring leader is the stalled\n\
     backend eats the full %.0f ms stall; with a 25 ms hedge the proxy races\n\
     the fast backend after the delay and the tail collapses to roughly\n\
     hedge delay + solve time (p99 %.1f ms -> %.1f ms).\n"
    stall_ms p99_off p99_on

let e20 ?(quick = false) () =
  section
    "E20  Fast exact core — before/after on the E13 corpus: small-int\n\
    \    rationals vs the reference tower, dominance-pruned B&B vs plain,\n\
    \    warm-started column generation vs cold (gate: geomean >= 2x)";
  let module Clock = Spp_util.Clock in
  let module Profile = Spp_obs.Profile in
  let module RR = Spp_num.Reference.Rat in
  let reps = if quick then 1 else 3 in
  (* Best-of-reps wall time: robust to scheduler noise without averaging
     away the honest cost. *)
  let time f =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let t0 = Clock.now_ms () in
      let r = f () in
      best := Float.min !best (Clock.elapsed_ms t0);
      result := Some r
    done;
    (Option.get !result, !best)
  in
  (* The exact members of the E13 corpus (regenerated from the same
     seeds) — the n = 9 members are beyond any branch and bound and are
     exercised through the rational-arithmetic row instead — plus the two
     checked-in formerly-exploding regression instances. *)
  let corpus_dir =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "hard7_symmetric.spp"))
      [ "data/corpus"; "../data/corpus"; "../../data/corpus" ]
  in
  let corpus_prec name =
    match corpus_dir with
    | None -> None
    | Some d ->
      (match Spp_core.Io.read_file (Filename.concat d (name ^ ".spp")) with
       | Spp_core.Io.Prec inst -> Some (name, inst)
       | Spp_core.Io.Release _ -> None)
  in
  (* Dominance prunes by collapsing same-shape permutations, so its
     before/after subjects are symmetric instances built from repeated
     shapes: the checked-in hard7_symmetric regression and an eight-rect
     two-class instance (kept out of the corpus so the 500 ms fuzz fuse
     stays comfortable there). The seed-41 n=7 member has all-distinct
     shapes (nothing for the table to collapse) and is exercised — along
     with the n=9 members — through the rational-arithmetic row. *)
  let inline_sym =
    let text =
      String.concat "\n"
        (List.mapi
           (fun i (w, h) -> Printf.sprintf "rect %d %s %s" i w h)
           (List.init 5 (fun _ -> ("1/3", "1/2")) @ List.init 3 (fun _ -> ("1/2", "1/3"))))
      ^ "\n"
    in
    match Spp_core.Io.parse_string text with
    | Spp_core.Io.Prec inst -> ("sym n=8", inst)
    | Spp_core.Io.Release _ -> assert false
  in
  let bb_cases =
    List.filter_map corpus_prec [ "hard7_symmetric" ] @ [ inline_sym ]
  in
  let all_dims_cases =
    bb_cases
    @ [ ("prec n=7", let rng = Prng.create 41 in
                     Generators.random_prec rng ~n:7 ~k:8 ~h_den:4 ~shape:`Series_parallel);
        ("prec n=9", let rng = Prng.create 42 in
                     Generators.random_prec rng ~n:9 ~k:8 ~h_den:4 ~shape:`Layered);
        ("uniform n=9", let rng = Prng.create 43 in
                        Generators.random_uniform_prec rng ~n:9 ~k:8 ~shape:`Fork_join) ]
  in
  (* The seed-44 E13 release member converges in a single pricing round
     (its initial pool is already optimal), leaving nothing for a warm
     start to save — the colgen row scales the same generator up to a
     size where cold pricing takes several rounds. *)
  let release_case =
    let rng = Prng.create 47 in
    Generators.random_release rng ~n:30 ~k:8 ~h_den:4 ~r_den:2 ~load:1.3
  in
  let t =
    Table.create
      ~columns:[ "member"; "metric"; "before"; "after"; "before ms"; "after ms"; "speedup" ]
  in
  let speedups = ref [] in
  let add_row member metric before after before_ms after_ms =
    speedups := (before_ms /. Float.max after_ms 0.001) :: !speedups;
    Table.add_row t
      [ member; metric; before; after; f2 before_ms; f2 after_ms;
        f2 (before_ms /. Float.max after_ms 0.001) ]
  in
  let counters = ref [] in
  let counter name v = counters := (name, Json.Int v) :: !counters in
  (* Rationals: the arithmetic profile of the exact solvers (sums of
     products with growing denominators, comparisons) over the corpus
     dimensions, fast tower vs the reference implementation. *)
  let dims =
    List.concat_map
      (fun (_, inst) ->
        List.concat_map (fun (r : Rect.t) -> [ r.Rect.w; r.Rect.h ]) inst.I.Prec.rects)
      all_dims_cases
    @ List.concat_map
        (fun (task : I.Release.task) ->
          [ task.I.Release.rect.Rect.w; task.I.Release.rect.Rect.h; task.I.Release.release ])
        release_case.I.Release.tasks
  in
  let dims = Array.of_list (List.filter (fun v -> not (Q.is_zero v)) dims) in
  (* The solvers' arithmetic profile: short sums of products, divisions
     and comparisons over instance-denominator rationals — values stay
     word-sized, which is exactly the regime the fast tower targets. The
     accumulator resets every 16 steps (as bound computations do) so the
     workload measures the common case, not unbounded denominator growth. *)
  let passes = if quick then 2_000 else 20_000 in
  let rat_workload (type a) (zero : a) (add : a -> a -> a) (mul : a -> a -> a)
      (div : a -> a -> a) (cmp : a -> a -> int) (vals : a array) () =
    let n = Array.length vals in
    let acc = ref zero in
    let cmps = ref 0 in
    for p = 0 to passes - 1 do
      if p mod 16 = 0 then acc := zero;
      let a = vals.(p mod n) and b = vals.((p + 7) mod n) in
      acc := add !acc (mul a b);
      if cmp (div a b) !acc > 0 then incr cmps
    done;
    !cmps
  in
  let ref_dims = Array.map (fun v -> RR.of_string (Q.to_string v)) dims in
  let ref_cmps, ref_ms =
    time (rat_workload RR.zero RR.add RR.mul RR.div RR.compare ref_dims)
  in
  let fast_cmps, fast_ms = time (rat_workload Q.zero Q.add Q.mul Q.div Q.compare dims) in
  assert (ref_cmps = fast_cmps);
  add_row "corpus dims" "rat ops" (string_of_int (3 * passes)) (string_of_int (3 * passes))
    ref_ms fast_ms;
  (* Branch and bound: dominance table off vs on, one worker so node
     counts are deterministic. The off runs wear a fuse: a cancelled
     before-side is charged only the fuse time (understating the speedup,
     never inflating it). *)
  let fuse_ms = if quick then 2_000. else 10_000. in
  List.iter
    (fun (name, inst) ->
      let solve ~dominance () =
        let cancel = Spp_util.Cancel.with_deadline_ms fuse_ms in
        match Spp_exact.Normal_bb.solve ~cancel ~workers:1 ~dominance inst with
        | out -> Some out
        | exception Spp_util.Cancel.Cancelled -> None
      in
      let off, off_ms = time (solve ~dominance:false) in
      let on, on_ms = time (solve ~dominance:true) in
      let on =
        match on with
        | Some out -> out
        | None -> failwith (name ^ ": dominance-pruned B&B blew the fuse")
      in
      (match off with
       | Some out ->
         if not (Q.equal out.Spp_exact.Normal_bb.height on.Spp_exact.Normal_bb.height) then
           failwith (name ^ ": dominance changed the optimum")
       | None -> ());
      let show = function
        | Some (out : Spp_exact.Normal_bb.outcome) -> string_of_int out.Spp_exact.Normal_bb.nodes_expanded
        | None -> "fuse"
      in
      counter (name ^ " nodes") on.Spp_exact.Normal_bb.nodes_expanded;
      add_row name "bb nodes" (show off) (show (Some on)) off_ms on_ms)
    bb_cases;
  (* Column generation: cold pool vs a pool warmed by a previous solve on
     the same widths (the APTAS repeat-solve pattern). *)
  let rounds_of f =
    Profile.reset ();
    let r, ms = time f in
    (r, ms, (Profile.read ()).Profile.colgen_rounds / reps)
  in
  let cold, cold_ms, cold_rounds =
    rounds_of (fun () -> Spp_core.Config_colgen.solve release_case)
  in
  let warm = Spp_core.Config_colgen.warm_start () in
  ignore (Spp_core.Config_colgen.solve ~warm release_case);
  let warmed, warm_ms, warm_rounds =
    rounds_of (fun () -> Spp_core.Config_colgen.solve ~warm release_case)
  in
  if not (Q.equal cold.Config_lp.fractional_height warmed.Config_lp.fractional_height) then
    failwith "warm-started column generation changed the LP optimum";
  counter "colgen rounds cold" cold_rounds;
  counter "colgen rounds warm" warm_rounds;
  add_row "release n=30 K=8" "colgen rounds" (string_of_int cold_rounds)
    (string_of_int warm_rounds) cold_ms warm_ms;
  Table.print t;
  let geomean =
    let l = !speedups in
    exp (List.fold_left (fun a s -> a +. log s) 0.0 l /. float_of_int (List.length l))
  in
  bench_json ~id:"e20"
    ~config:
      [ ("seeds", Json.String "41..44"); ("quick", Json.Bool quick);
        ("geomean_speedup", Json.Float geomean) ]
    [ ("exact_core", t) ];
  (* Perf-regression gate, two parts: the wall-clock geomean must hold the
     2x floor, and the deterministic counters must match the checked-in
     baseline (bench/baseline_e20.json) within tolerance — drift means an
     algorithmic change that must be acknowledged by refreshing the
     baseline. *)
  let counters = List.rev !counters in
  let baseline_path =
    List.find_opt Sys.file_exists [ "bench/baseline_e20.json"; "../bench/baseline_e20.json" ]
  in
  let counter_json () =
    "{ "
    ^ String.concat ", "
        (List.map
           (fun (name, v) ->
             Printf.sprintf "%S: %s" name
               (match v with Json.Int i -> string_of_int i | _ -> "0"))
           counters)
    ^ " }"
  in
  let counter_failures =
    match baseline_path with
    | None ->
      Printf.printf
        "\n(no bench/baseline_e20.json found; counter gate skipped)\n\
         baseline candidate: %s\n"
        (counter_json ());
      []
    | Some path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      (match Json.of_string text with
       | Error e -> [ Printf.sprintf "baseline unreadable: %s" e ]
       | Ok j ->
         List.filter_map
           (fun (name, v) ->
             let actual = match v with Json.Int i -> i | _ -> 0 in
             match Option.bind (Json.member name j) Json.get_int with
             | None -> Some (Printf.sprintf "%s: missing from baseline (actual %d)" name actual)
             | Some expected ->
               let tol = Float.max 1.0 (0.10 *. float_of_int expected) in
               if Float.abs (float_of_int (actual - expected)) <= tol then None
               else Some (Printf.sprintf "%s: %d vs baseline %d (tolerance 10%%)" name actual expected))
           counters)
  in
  List.iter (fun m -> Printf.printf "counter drift: %s\n" m) counter_failures;
  let ok = geomean >= 2.0 && counter_failures = [] in
  Printf.printf "E20 gate: %s (geomean speedup %.2fx, floor 2.00x; %d counter(s) checked)\n"
    (if ok then "ok" else "FAIL")
    geomean (List.length counters)

let quality () =
  e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 (); e10 (); e11 (); e12 (); e13 ();
  e14 (); e15 (); e16 (); e17 (); e18 (); e19 (); e20 ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "e1" -> e1 ()
  | "e2" -> e2 ()
  | "e3" -> e3 ()
  | "e4" -> e4 ()
  | "e5" -> e5 ()
  | "e6" -> e6 ()
  | "e7" -> e7 ()
  | "e8" -> e8 ()
  | "e9" -> e9 ()
  | "e10" -> e10 ()
  | "e11" -> e11 ()
  | "e12" -> e12 ()
  | "e13" | "portfolio" -> e13 ()
  | "e14" | "serve" -> e14 ()
  | "e15" | "obs" -> e15 ()
  | "e16" | "cluster" -> e16 ()
  | "e17" | "sim" -> e17 ()
  | "e18" | "profile" -> e18 ()
  | "e19" | "hedge" -> e19 ()
  | "e20" | "exactcore" ->
    e20 ~quick:(Array.length Sys.argv > 2 && Sys.argv.(2) = "quick") ()
  | "quality" -> quality ()
  | "timing" -> timing ()
  | "all" ->
    quality ();
    timing ()
  | other ->
    Printf.eprintf "unknown experiment %S (expected e1..e20, portfolio, serve, obs, cluster, sim, profile, hedge, exactcore, quality, timing, all)\n" other;
    exit 2
