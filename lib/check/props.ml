module Q = Spp_num.Rat
module Rect = Spp_geom.Rect
module Placement = Spp_geom.Placement
module Dag = Spp_dag.Dag
module Io = Spp_core.Io
module I = Spp_core.Instance
module Validate = Spp_core.Validate
module LB = Spp_core.Lower_bounds
module Mutate = Spp_workloads.Mutate
module Prng = Spp_util.Prng
open Runner

type t = Io.parsed Runner.property

(* ------------------------------------------------------------------ *)
(* Helpers *)

let on_prec check = function Io.Prec inst -> check inst | Io.Release _ -> Skip
let on_release check = function Io.Release inst -> check inst | Io.Prec _ -> Skip

let pp_violations vs =
  let shown = List.filteri (fun i _ -> i < 3) vs in
  Printf.sprintf "%d violation(s): %s" (List.length vs)
    (String.concat "; " (List.map (Format.asprintf "%a" Validate.pp_violation) shown))

let prec_valid inst p =
  match Validate.check_prec inst p with [] -> Pass | vs -> Fail (pp_violations vs)

let release_valid inst p =
  match Validate.check_release inst p with [] -> Pass | vs -> Fail (pp_violations vs)

let qs = Q.to_string

let all_pass checks =
  let rec go = function
    | [] -> Pass
    | (true, _) :: rest -> go rest
    | (false, msg) :: _ -> Fail (msg ())
  in
  go checks

(* Size gates for the exponential reference solvers: generous enough to
   fire on roughly half the generated cases, small enough that a 2000-case
   run stays in CI budget. The exact gate rides on Normal_bb's dominance
   table and bounds: instances up to n = 9 that formerly ran for minutes
   now finish well inside the (also lowered) fuse. *)
let exact_gate = 9
let uniform_dp_gate = 9
let aptas_gate_n = 12
let aptas_gate_k = 4
let engine_gate = 8

(* Wall-clock fuse for the exponential reference solvers: Normal_bb
   branches over subset-sum grids (up to 2^n distinct coordinates per
   axis), so all-distinct-rational instances can still blow up in the
   worst case. A tripped fuse makes the property Skip — heuristic
   soundness is still checked by the sound.* family, and the skip shows
   up in the per-property counts rather than stalling a run. *)
let exact_budget_ms = 500.

let with_exact_budget f =
  let cancel = Spp_util.Cancel.with_deadline_ms exact_budget_ms in
  try f cancel with Spp_util.Cancel.Cancelled -> Skip

let prop name doc tags check = { name; doc; tags; check }

(* A deterministic per-case seed: hash of the instance's canonical text.
   Shared by the stream-replay and numeric-differential properties. *)
let stream_seed_of parsed =
  let printed =
    match parsed with
    | Io.Prec inst -> Io.prec_to_string inst
    | Io.Release inst -> Io.release_to_string inst
  in
  Int32.to_int (Spp_util.Crc32.digest printed) land 0x3FFFFFFF

(* ------------------------------------------------------------------ *)
(* Soundness *)

let sound_dc =
  prop "sound.dc" "DC output passes Validate.check_prec (Algorithm 1)" [ "prec"; "dc" ]
    (on_prec (fun inst -> prec_valid inst (fst (Spp_core.Dc.pack inst))))

let sound_ls_prec =
  prop "sound.ls.prec" "greedy list scheduler respects geometry and the DAG" [ "prec"; "ls" ]
    (on_prec (fun inst -> prec_valid inst (Spp_core.List_schedule.prec inst)))

let uniform_only check inst =
  match Spp_core.Uniform.uniform_height inst with None -> Skip | Some c -> check c inst

let sound_uniform_f =
  prop "sound.uniform.f" "algorithm F (next-fit shelf) output is valid" [ "prec"; "f" ]
    (on_prec (uniform_only (fun _ inst -> prec_valid inst (fst (Spp_core.Uniform.next_fit_shelf inst)))))

let sound_uniform_pff =
  prop "sound.uniform.pff" "precedence first-fit output is valid" [ "prec"; "pff" ]
    (on_prec (uniform_only (fun _ inst -> prec_valid inst (fst (Spp_core.Uniform.prec_first_fit inst)))))

let sound_uniform_wave =
  prop "sound.uniform.wave" "wave FFD output is valid" [ "prec"; "wave" ]
    (on_prec (uniform_only (fun _ inst -> prec_valid inst (fst (Spp_core.Uniform.wave_ffd inst)))))

let sound_ls_release =
  prop "sound.ls.release" "release list scheduler respects geometry and releases"
    [ "release"; "ls" ]
    (on_release (fun inst -> release_valid inst (Spp_core.List_schedule.release inst)))

let sound_shelf =
  prop "sound.shelf" "release shelf heuristic (next-fit) output is valid" [ "release"; "shelf" ]
    (on_release (fun inst -> release_valid inst (fst (Spp_core.Release_shelf.pack inst))))

let sound_shelf_ff =
  prop "sound.shelf.ff" "release shelf heuristic (first-fit) output is valid"
    [ "release"; "shelf" ]
    (on_release (fun inst -> release_valid inst (fst (Spp_core.Release_shelf.pack_first_fit inst))))

(* ------------------------------------------------------------------ *)
(* Guarantee certification *)

let guar_dc_thm23 =
  prop "guar.dc.thm2.3" "DC height <= log2(n+1)*F + 2*AREA (Theorem 2.3 induction bound)"
    [ "prec"; "dc" ]
    (on_prec (fun inst ->
         let h = Q.to_float (Placement.height (fst (Spp_core.Dc.pack inst))) in
         let bound = Spp_core.Dc.theorem_2_3_bound inst in
         if h <= bound +. 1e-9 then Pass
         else Fail (Printf.sprintf "DC height %.6f exceeds Theorem 2.3 bound %.6f" h bound)))

let guar_prec_lb =
  prop "guar.prec.lb" "DC and LS heights at or above max(AREA, F) (Section 2 lower bounds)"
    [ "prec"; "dc"; "ls" ]
    (on_prec (fun inst ->
         let lb = LB.prec inst in
         let dc = Placement.height (fst (Spp_core.Dc.pack inst)) in
         let ls = Placement.height (Spp_core.List_schedule.prec inst) in
         all_pass
           [ (Q.compare dc lb >= 0, fun () -> Printf.sprintf "DC height %s below LB %s" (qs dc) (qs lb));
             (Q.compare ls lb >= 0, fun () -> Printf.sprintf "LS height %s below LB %s" (qs ls) (qs lb)) ]))

let guar_uniform_f_thm26 =
  prop "guar.uniform.f.thm2.6"
    "algorithm F: skips <= longest path (Lemma 2.5) and height <= 2*AREA + F(S) + c (Theorem 2.6 accounting)"
    [ "prec"; "f" ]
    (on_prec
       (uniform_only (fun c inst ->
            let p, stats = Spp_core.Uniform.next_fit_shelf inst in
            let area = LB.area inst and cp = LB.critical_path inst in
            let bound = Q.add (Q.add (Q.mul_int area 2) cp) c in
            let h = Placement.height p in
            let path = Dag.longest_path_length inst.I.Prec.dag in
            all_pass
              [ (stats.Spp_core.Uniform.skips <= path,
                 fun () -> Printf.sprintf "%d skips exceed longest path %d (Lemma 2.5)"
                     stats.Spp_core.Uniform.skips path);
                (Q.compare h bound <= 0,
                 fun () -> Printf.sprintf "F height %s exceeds 2*AREA + F + c = %s" (qs h) (qs bound)) ])))

let guar_release_lb =
  prop "guar.release.lb" "release heuristics at or above max(AREA, max r+h) (Section 3 bounds)"
    [ "release"; "ls"; "shelf" ]
    (on_release (fun inst ->
         let lb = LB.release inst in
         let ls = Placement.height (Spp_core.List_schedule.release inst) in
         let sh = Placement.height (fst (Spp_core.Release_shelf.pack inst)) in
         all_pass
           [ (Q.compare ls lb >= 0, fun () -> Printf.sprintf "LS height %s below LB %s" (qs ls) (qs lb));
             (Q.compare sh lb >= 0, fun () -> Printf.sprintf "shelf height %s below LB %s" (qs sh) (qs lb)) ]))

let guar_aptas =
  prop "guar.aptas.thm3.5"
    "APTAS: valid, height <= fractional + occurrences (Lemma 3.4), occurrences within the \
     Lemma 3.3 cap, certified lower_bound below every valid packing, no fallback rects"
    [ "release"; "aptas" ]
    (on_release (fun inst ->
         if I.Release.size inst > aptas_gate_n || inst.I.Release.k > aptas_gate_k then Skip
         else begin
           let res = Spp_core.Aptas.solve ~epsilon:Q.one inst in
           match Validate.check_release inst res.Spp_core.Aptas.placement with
           | _ :: _ as vs -> Fail (pp_violations vs)
           | [] ->
             let open Spp_core.Aptas in
             let ls = Placement.height (Spp_core.List_schedule.release inst) in
             let sh = Placement.height (fst (Spp_core.Release_shelf.pack inst)) in
             let rounding = Q.add res.fractional_height (Q.of_int res.occurrences) in
             all_pass
               [ (Q.compare res.height rounding <= 0,
                  fun () -> Printf.sprintf "height %s exceeds fractional + occurrences = %s"
                      (qs res.height) (qs rounding));
                 (res.occurrences <= res.max_occurrences,
                  fun () -> Printf.sprintf "%d occurrences exceed the (W+1)(R+1) cap %d"
                      res.occurrences res.max_occurrences);
                 (res.fallback_rects = 0,
                  fun () -> Printf.sprintf "%d rects fell through to the NFDH safety net"
                      res.fallback_rects);
                 (Q.compare res.lower_bound res.height <= 0,
                  fun () -> Printf.sprintf "certified LB %s above own height %s"
                      (qs res.lower_bound) (qs res.height));
                 (Q.compare res.lower_bound ls <= 0,
                  fun () -> Printf.sprintf "certified LB %s above LS height %s"
                      (qs res.lower_bound) (qs ls));
                 (Q.compare res.lower_bound sh <= 0,
                  fun () -> Printf.sprintf "certified LB %s above shelf height %s"
                      (qs res.lower_bound) (qs sh)) ]
         end))

(* ------------------------------------------------------------------ *)
(* Differential: exact solvers as ground truth on small instances *)

let diff_exact_prec =
  prop "diff.exact.prec"
    "on n <= 9: Normal_bb optimum is valid, sandwiched by the lower bounds, never above \
     order-search/DC/LS, and equal to the uniform DP when heights are uniform"
    [ "prec"; "bb"; "order"; "dc"; "ls" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let bb = Spp_exact.Normal_bb.solve ~cancel inst in
           let opt = bb.Spp_exact.Normal_bb.height in
           match Validate.check_prec inst bb.Spp_exact.Normal_bb.placement with
           | _ :: _ as vs -> Fail ("optimal placement invalid: " ^ pp_violations vs)
           | [] ->
             let lb = LB.prec inst in
             let order =
               (Spp_exact.Order_search.best_prec ~cancel inst).Spp_exact.Order_search.height
             in
             let dc = Placement.height (fst (Spp_core.Dc.pack inst)) in
             let ls = Placement.height (Spp_core.List_schedule.prec inst) in
             let uniform_agrees =
               match Spp_core.Uniform.uniform_height inst with
               | None -> (true, fun () -> "")
               | Some _ ->
                 let dp = Spp_exact.Prec_binpack.min_height inst in
                 ( Q.equal dp opt,
                   fun () -> Printf.sprintf "uniform DP optimum %s /= normal-position optimum %s"
                       (qs dp) (qs opt) )
             in
             all_pass
               [ (Q.compare opt lb >= 0,
                  fun () -> Printf.sprintf "exact OPT %s below lower bound %s" (qs opt) (qs lb));
                 (Q.compare opt order <= 0,
                  fun () -> Printf.sprintf "exact OPT %s above order-search height %s" (qs opt) (qs order));
                 (Q.compare opt dc <= 0,
                  fun () -> Printf.sprintf "exact OPT %s above DC height %s" (qs opt) (qs dc));
                 (Q.compare opt ls <= 0,
                  fun () -> Printf.sprintf "exact OPT %s above LS height %s" (qs opt) (qs ls));
                 uniform_agrees ]))

let diff_uniform_dp =
  prop "diff.uniform.dp"
    "on uniform heights, n <= 9: the GGJY DP optimum lower-bounds F/PFF/wave and achieves \
     the absolute factor 3 of Theorem 2.6"
    [ "prec"; "f"; "pff"; "wave" ]
    (on_prec
       (uniform_only (fun _ inst ->
            if I.Prec.size inst > uniform_dp_gate then Skip
            else begin
              let opt = Spp_exact.Prec_binpack.min_height inst in
              let f = Placement.height (fst (Spp_core.Uniform.next_fit_shelf inst)) in
              let pff = Placement.height (fst (Spp_core.Uniform.prec_first_fit inst)) in
              let wave = Placement.height (fst (Spp_core.Uniform.wave_ffd inst)) in
              all_pass
                [ (Q.compare opt f <= 0,
                   fun () -> Printf.sprintf "DP optimum %s above F height %s" (qs opt) (qs f));
                  (Q.compare opt pff <= 0,
                   fun () -> Printf.sprintf "DP optimum %s above PFF height %s" (qs opt) (qs pff));
                  (Q.compare opt wave <= 0,
                   fun () -> Printf.sprintf "DP optimum %s above wave height %s" (qs opt) (qs wave));
                  (Q.compare f (Q.mul_int opt 3) <= 0,
                   fun () -> Printf.sprintf "F height %s exceeds 3*OPT = %s (Theorem 2.6)"
                       (qs f) (qs (Q.mul_int opt 3))) ]
            end)))

let diff_exact_release =
  prop "diff.exact.release"
    "on n <= 9: best bottom-left release packing is valid, above the Section 3 lower bound, \
     and never above LS/shelf"
    [ "release"; "order"; "ls"; "shelf" ]
    (on_release (fun inst ->
         if I.Release.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let best = Spp_exact.Order_search.best_release ~cancel inst in
           let h = best.Spp_exact.Order_search.height in
           match Validate.check_release inst best.Spp_exact.Order_search.placement with
           | _ :: _ as vs -> Fail ("order-search placement invalid: " ^ pp_violations vs)
           | [] ->
             let lb = LB.release inst in
             let ls = Placement.height (Spp_core.List_schedule.release inst) in
             let sh = Placement.height (fst (Spp_core.Release_shelf.pack inst)) in
             all_pass
               [ (Q.compare h lb >= 0,
                  fun () -> Printf.sprintf "best bottom-left %s below lower bound %s" (qs h) (qs lb));
                 (Q.compare h ls <= 0,
                  fun () -> Printf.sprintf "best bottom-left %s above LS height %s" (qs h) (qs ls));
                 (Q.compare h sh <= 0,
                  fun () -> Printf.sprintf "best bottom-left %s above shelf height %s" (qs h) (qs sh)) ]))

let sound_bb_parallel =
  prop "sound.bb.parallel"
    "on n <= 9: the parallel normal-position B&B returns the identical optimal height with 1 \
     and 4 workers (shared-incumbent pruning is schedule-independent)"
    [ "prec"; "bb" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > exact_gate then Skip
         else with_exact_budget @@ fun cancel ->
           let h1 = (Spp_exact.Normal_bb.solve ~cancel ~workers:1 inst).Spp_exact.Normal_bb.height in
           let h4 = (Spp_exact.Normal_bb.solve ~cancel ~workers:4 inst).Spp_exact.Normal_bb.height in
           if Q.equal h1 h4 then Pass
           else Fail (Printf.sprintf "1-worker optimum %s /= 4-worker optimum %s" (qs h1) (qs h4))))

(* ------------------------------------------------------------------ *)
(* Differential: fast numeric tower vs the reference implementation *)

(* Deterministic operand stream for num.diff: an xorshift PRNG seeded from
   the instance text, mixed with hand-picked edge operands sitting on the
   small/big representation boundary (limb multiples, +/-max_int, near
   min_int), negatives and zero. *)
let num_edge_operands =
  [| 0; 1; -1; 2; -2; 3; 32767; 32768; -32768; -32769; (1 lsl 30) - 1; 1 lsl 30;
     -(1 lsl 30); (1 lsl 45) - 1; 1 lsl 45; -(1 lsl 45); max_int; -max_int;
     max_int - 1; min_int + 1; 1000000007; -999999937 |]

let num_diff =
  prop "num.diff"
    "fast bigint/rational arithmetic (small-int representation, gcd fast paths) agrees \
     operation-for-operation with the reference sign+magnitude implementation over a seeded \
     operand stream covering limb boundaries, negatives and zero"
    [ "prec"; "release"; "num" ]
    (fun parsed ->
      let module B = Spp_num.Bigint in
      let module RB = Spp_num.Reference.Bigint in
      let module RR = Spp_num.Reference.Rat in
      let state = ref (stream_seed_of parsed lor 1) in
      let next () =
        (* xorshift64*; positive 62-bit output. *)
        let x = !state in
        let x = x lxor (x lsl 13) in
        let x = x lxor (x lsr 7) in
        let x = x lxor (x lsl 17) in
        state := x;
        (x * 0x2545F4914F6CDD1D) land max_int
      in
      let operand () =
        match next () mod 5 with
        | 0 -> string_of_int num_edge_operands.(next () mod Array.length num_edge_operands)
        | 1 -> string_of_int (next () mod 97 - 48)
        | 2 -> string_of_int (next () - (max_int / 2))
        | _ ->
          (* Multi-limb decimal, up to ~40 digits, random sign. *)
          let len = 1 + (next () mod 40) in
          let b = Buffer.create (len + 1) in
          if next () land 1 = 1 then Buffer.add_char b '-';
          Buffer.add_char b (Char.chr (Char.code '1' + (next () mod 9)));
          for _ = 2 to len do
            Buffer.add_char b (Char.chr (Char.code '0' + (next () mod 10)))
          done;
          Buffer.contents b
      in
      let failure = ref None in
      let check op expect got =
        if !failure = None && expect <> got then
          failure := Some (Printf.sprintf "%s: fast %S /= reference %S" op got expect)
      in
      (let i = ref 0 in
       while !failure = None && !i < 32 do
         incr i;
         let sx = operand () and sy = operand () in
         let x = B.of_string sx and y = B.of_string sy in
         let rx = RB.of_string sx and ry = RB.of_string sy in
         let ctx op = Printf.sprintf "%s on (%s, %s)" op sx sy in
         check (ctx "Bigint.add") (RB.to_string (RB.add rx ry)) (B.to_string (B.add x y));
         check (ctx "Bigint.sub") (RB.to_string (RB.sub rx ry)) (B.to_string (B.sub x y));
         check (ctx "Bigint.mul") (RB.to_string (RB.mul rx ry)) (B.to_string (B.mul x y));
         check (ctx "Bigint.compare")
           (string_of_int (RB.compare rx ry)) (string_of_int (B.compare x y));
         check (ctx "Bigint.gcd") (RB.to_string (RB.gcd rx ry)) (B.to_string (B.gcd x y));
         if not (B.is_zero y) then begin
           let q, r = B.divmod x y and rq, rr = RB.divmod rx ry in
           check (ctx "Bigint.divmod.q") (RB.to_string rq) (B.to_string q);
           check (ctx "Bigint.divmod.r") (RB.to_string rr) (B.to_string r)
         end;
         (* Rationals from the same operands (nonzero denominators). *)
         let sd = operand () and se = operand () in
         let d = B.of_string sd and e = B.of_string se in
         if not (B.is_zero d || B.is_zero e) then begin
           let a = Q.make x d and b = Q.make y e in
           let ra = RR.make rx (RB.of_string sd) and rb = RR.make ry (RB.of_string se) in
           let ctx op = Printf.sprintf "%s on (%s/%s, %s/%s)" op sx sd sy se in
           (* The den > 0, coprime invariant, through the fast constructors. *)
           if !failure = None && B.sign (Q.den a) <= 0 then
             failure := Some (ctx "Rat.make: non-positive denominator");
           if !failure = None && not (B.equal (B.gcd (Q.num a) (Q.den a)) B.one) then
             failure := Some (ctx "Rat.make: non-coprime parts");
           check (ctx "Rat.add") (RR.to_string (RR.add ra rb)) (Q.to_string (Q.add a b));
           check (ctx "Rat.sub") (RR.to_string (RR.sub ra rb)) (Q.to_string (Q.sub a b));
           check (ctx "Rat.mul") (RR.to_string (RR.mul ra rb)) (Q.to_string (Q.mul a b));
           check (ctx "Rat.compare")
             (string_of_int (RR.compare ra rb)) (string_of_int (Q.compare a b));
           check (ctx "Rat.floor") (RB.to_string (RR.floor ra)) (B.to_string (Q.floor a));
           check (ctx "Rat.ceil") (RB.to_string (RR.ceil ra)) (B.to_string (Q.ceil a));
           if not (RR.is_zero rb) then
             check (ctx "Rat.div") (RR.to_string (RR.div ra rb)) (Q.to_string (Q.div a b))
         end
       done);
      match !failure with None -> Pass | Some msg -> Fail msg)

(* ------------------------------------------------------------------ *)
(* Metamorphic *)

let meta_relabel =
  prop "meta.relabel"
    "strictly monotone id relabeling preserves DC, LS and F heights exactly (all tie-breaks \
     are order-based)"
    [ "prec"; "dc"; "ls"; "f" ]
    (on_prec (fun inst ->
         let inst' = Mutate.relabel_prec ~f:(fun id -> (2 * id) + 3) inst in
         let dc = Placement.height (fst (Spp_core.Dc.pack inst))
         and dc' = Placement.height (fst (Spp_core.Dc.pack inst')) in
         let ls = Placement.height (Spp_core.List_schedule.prec inst)
         and ls' = Placement.height (Spp_core.List_schedule.prec inst') in
         let f_pair =
           match Spp_core.Uniform.uniform_height inst with
           | None -> None
           | Some _ ->
             Some
               ( Placement.height (fst (Spp_core.Uniform.next_fit_shelf inst)),
                 Placement.height (fst (Spp_core.Uniform.next_fit_shelf inst')) )
         in
         all_pass
           ([ (Q.equal dc dc', fun () -> Printf.sprintf "DC height changed %s -> %s" (qs dc) (qs dc'));
              (Q.equal ls ls', fun () -> Printf.sprintf "LS height changed %s -> %s" (qs ls) (qs ls')) ]
           @
           match f_pair with
           | None -> []
           | Some (f, f') ->
             [ (Q.equal f f', fun () -> Printf.sprintf "F height changed %s -> %s" (qs f) (qs f')) ])))

let meta_edge_drop =
  prop "meta.edge.drop"
    "removing a precedence edge never raises the critical path, and never raises the exact \
     optimum on n <= 9"
    [ "prec"; "bb" ]
    (on_prec (fun inst ->
         match Dag.edges inst.I.Prec.dag with
         | [] -> Skip
         | e :: _ ->
           let inst' = Mutate.drop_edge inst e in
           let cp = LB.critical_path inst and cp' = LB.critical_path inst' in
           let exact_mono =
             if I.Prec.size inst > exact_gate then (true, fun () -> "")
             else begin
               (* The critical-path check below is cheap and still runs when
                  the exact solver blows its fuse on this pair. *)
               let cancel = Spp_util.Cancel.with_deadline_ms exact_budget_ms in
               match
                 ( (Spp_exact.Normal_bb.solve ~cancel inst).Spp_exact.Normal_bb.height,
                   (Spp_exact.Normal_bb.solve ~cancel inst').Spp_exact.Normal_bb.height )
               with
               | h, h' ->
                 ( Q.compare h' h <= 0,
                   fun () -> Printf.sprintf "OPT rose from %s to %s after dropping edge (%d,%d)"
                       (qs h) (qs h') (fst e) (snd e) )
               | exception Spp_util.Cancel.Cancelled -> (true, fun () -> "")
             end
           in
           all_pass
             [ (Q.compare cp' cp <= 0,
                fun () -> Printf.sprintf "critical path rose from %s to %s after dropping (%d,%d)"
                    (qs cp) (qs cp') (fst e) (snd e));
               exact_mono ]))

let meta_release_slacken =
  prop "meta.release.slacken"
    "halving (and zeroing) release times never raises the Section 3 lower bound, and the \
     heuristics stay sound on the slackened instances"
    [ "release"; "ls"; "shelf" ]
    (on_release (fun inst ->
         let half = Mutate.slacken_releases ~factor:(Q.of_ints 1 2) inst in
         let zero = Mutate.slacken_releases ~factor:Q.zero inst in
         let lb = LB.release inst and lb_h = LB.release half and lb_z = LB.release zero in
         let sound i =
           match Validate.check_release i (Spp_core.List_schedule.release i) with
           | [] -> (
             match Validate.check_release i (fst (Spp_core.Release_shelf.pack i)) with
             | [] -> (true, fun () -> "")
             | vs -> (false, fun () -> "shelf on slackened: " ^ pp_violations vs))
           | vs -> (false, fun () -> "LS on slackened: " ^ pp_violations vs)
         in
         all_pass
           [ (Q.compare lb_h lb <= 0,
              fun () -> Printf.sprintf "LB rose from %s to %s after halving releases" (qs lb) (qs lb_h));
             (Q.compare lb_z lb_h <= 0,
              fun () -> Printf.sprintf "LB rose from %s to %s after zeroing releases" (qs lb_h) (qs lb_z));
             sound half; sound zero ]))

(* ------------------------------------------------------------------ *)
(* Online simulation *)

let pp_sim_violations vs =
  let shown = List.filteri (fun i _ -> i < 3) vs in
  Printf.sprintf "%d violation(s): %s" (List.length vs)
    (String.concat "; " (List.map (Format.asprintf "%a" Spp_sim.Sim.pp_violation) shown))

(* Shared skeleton: run the simulator, check the segment log with the
   independent validator, compare the makespan against the Section 3
   lower bound exactly (competitive ratio >= 1 in rationals — AREA and
   max r+h hold even for migration schedules), and when the run never
   moved a task, cross-check through the offline placement oracle. *)
let sim_checks ?repack_threshold packer inst extra =
  let r = Spp_sim.Sim.run ?repack_threshold ~packer inst in
  match Spp_sim.Sim.check inst r with
  | _ :: _ as vs -> Fail (pp_sim_violations vs)
  | [] ->
    let lb = LB.release inst in
    let oracle =
      match Spp_sim.Sim.to_placement inst r with
      | None ->
        ( r.Spp_sim.Sim.moves > 0,
          fun () -> "no offline placement view even though no task was moved" )
      | Some p -> (
        match Validate.check_release inst p with
        | [] -> (true, fun () -> "")
        | vs -> (false, fun () -> "offline placement oracle: " ^ pp_violations vs))
    in
    all_pass
      ([ (Q.compare r.Spp_sim.Sim.makespan lb >= 0,
          fun () -> Printf.sprintf "online makespan %s below lower bound %s"
              (qs r.Spp_sim.Sim.makespan) (qs lb));
         oracle ]
      @ extra r)

let sound_sim_ff =
  prop "sound.sim.ff"
    "online first-fit run: segment log passes the independent sim validator, makespan at or \
     above the Section 3 lower bound (and the APTAS certified bound on small instances), and \
     the move-free run passes Validate.check_release as a placement"
    [ "release"; "sim" ]
    (on_release (fun inst ->
         sim_checks Spp_sim.Online.First_fit inst (fun r ->
             if I.Release.size inst > aptas_gate_n || inst.I.Release.k > aptas_gate_k then []
             else begin
               let res = Spp_core.Aptas.solve ~epsilon:Q.one inst in
               [ (Q.compare res.Spp_core.Aptas.lower_bound r.Spp_sim.Sim.makespan <= 0,
                  fun () -> Printf.sprintf "APTAS certified LB %s above online makespan %s"
                      (qs res.Spp_core.Aptas.lower_bound) (qs r.Spp_sim.Sim.makespan)) ]
             end)))

let sound_sim_buffered =
  prop "sound.sim.buffered"
    "online buffered-lookahead run is sound and never places anything before its release"
    [ "release"; "sim" ]
    (on_release (fun inst ->
         sim_checks (Spp_sim.Online.Buffered Spp_sim.Online.default_lookahead) inst (fun _ -> [])))

let sound_sim_repack =
  prop "sound.sim.repack"
    "with repacking at threshold 1/4: still sound across migrations, every repack strictly \
     reduces fragmentation, and the per-cell cost accounting adds up"
    [ "release"; "sim" ]
    (on_release (fun inst ->
         sim_checks ~repack_threshold:(Q.of_ints 1 4) Spp_sim.Online.First_fit inst (fun r ->
             let open Spp_sim.Sim in
             [ (List.for_all (fun e -> Q.compare e.frag_after e.frag_before < 0) r.repacks,
                fun () -> "a repack did not strictly reduce fragmentation");
               (r.cells_migrated = List.fold_left (fun a e -> a + e.cells) 0 r.repacks,
                fun () -> Printf.sprintf "cells_migrated %d /= sum of per-repack cells"
                    r.cells_migrated);
               (Q.equal r.migration_cost (Q.of_int r.cells_migrated),
                fun () -> Printf.sprintf "migration cost %s /= cells %d at unit cost"
                    (qs r.migration_cost) r.cells_migrated) ])))

let sim_stream =
  prop "sim.stream"
    "the arrival stream is a pure function of the stream seed: regenerating the trace and \
     re-deriving the arrival order from the replayed seed reproduce it bit for bit"
    [ "prec"; "release"; "sim" ]
    (fun parsed ->
      let seed = stream_seed_of parsed in
      let spec = Spp_sim.Arrivals.Poisson 1.5 in
      let t1 = Spp_sim.Arrivals.trace ~n:16 ~k:6 ~seed spec in
      let t2 = Spp_sim.Arrivals.trace ~n:16 ~k:6 ~seed spec in
      let s1, w1 = Spp_sim.Arrivals.of_instance t1 in
      let s2, w2 = Spp_sim.Arrivals.of_instance t2 in
      all_pass
        [ (Io.release_to_string t1 = Io.release_to_string t2,
           fun () -> Printf.sprintf "trace for seed %d not reproducible" seed);
          (s1 = s2 && w1 = w2,
           fun () -> Printf.sprintf "arrival stream for seed %d not reproducible" seed);
          (List.length s1 = 16, fun () -> "trace dropped tasks") ])

(* ------------------------------------------------------------------ *)
(* Engine / store round trip *)

let tmp_counter = ref 0

let with_temp_dir f =
  let rec fresh () =
    incr tmp_counter;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "spp-fuzz-%d-%d" (Unix.getpid ()) !tmp_counter)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh ()
  in
  let dir = fresh () in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let diff_engine =
  prop "diff.engine"
    "the portfolio engine returns the best member height, validated, and identically through \
     a disk-store round trip"
    [ "prec"; "dc"; "ls"; "engine" ]
    (on_prec (fun inst ->
         if I.Prec.size inst > engine_gate then Skip
         else begin
           let parsed = Io.Prec inst in
           let dc = Placement.height (fst (Spp_core.Dc.pack inst)) in
           let ls = Placement.height (Spp_core.List_schedule.prec inst) in
           let expected = Q.min dc ls in
           with_temp_dir (fun dir ->
               let e1 = Spp_engine.Engine.create ~store_dir:dir () in
               let r1 = Spp_engine.Engine.solve ~algos:[ "dc"; "ls" ] ~workers:1 e1 parsed in
               let e2 = Spp_engine.Engine.create ~store_dir:dir () in
               let r2 = Spp_engine.Engine.solve ~algos:[ "dc"; "ls" ] ~workers:1 e2 parsed in
               let valid label (r : Spp_engine.Engine.result) =
                 match Validate.check_prec inst r.Spp_engine.Engine.placement with
                 | [] -> (true, fun () -> "")
                 | vs -> (false, fun () -> label ^ ": " ^ pp_violations vs)
               in
               all_pass
                 [ (Q.equal r1.Spp_engine.Engine.height expected,
                    fun () -> Printf.sprintf "engine height %s /= best member height %s"
                        (qs r1.Spp_engine.Engine.height) (qs expected));
                   valid "engine result" r1;
                   (r2.Spp_engine.Engine.source = Spp_engine.Engine.Disk_cache,
                    fun () -> "second engine did not hit the disk store");
                   (Q.equal r2.Spp_engine.Engine.height r1.Spp_engine.Engine.height,
                    fun () -> Printf.sprintf "store round trip changed height %s -> %s"
                        (qs r1.Spp_engine.Engine.height) (qs r2.Spp_engine.Engine.height));
                   valid "store round trip" r2 ])
         end))

let sound_engine_degraded =
  prop "sound.engine.degraded"
    "a zero-budget solve returns an anytime answer that still validates, with \
     height = lower_bound + gap and gap >= 0"
    [ "prec"; "release"; "engine" ]
    (fun parsed ->
      let size =
        match parsed with
        | Io.Prec inst -> I.Prec.size inst
        | Io.Release inst -> I.Release.size inst
      in
      if size > engine_gate then Skip
      else begin
        let e = Spp_engine.Engine.create () in
        let r = Spp_engine.Engine.solve ~budget_ms:0.0 ~workers:1 e parsed in
        let valid =
          let vs =
            match parsed with
            | Io.Prec inst -> Validate.check_prec inst r.Spp_engine.Engine.placement
            | Io.Release inst -> Validate.check_release inst r.Spp_engine.Engine.placement
          in
          match vs with
          | [] -> (true, fun () -> "")
          | vs -> (false, fun () -> "degraded answer: " ^ pp_violations vs)
        in
        all_pass
          [ valid;
            (Q.compare r.Spp_engine.Engine.gap Q.zero >= 0,
             fun () -> Printf.sprintf "negative gap %s" (qs r.Spp_engine.Engine.gap));
            (Q.equal r.Spp_engine.Engine.height
               (Q.add r.Spp_engine.Engine.lower_bound r.Spp_engine.Engine.gap),
             fun () ->
               Printf.sprintf "height %s /= lower bound %s + gap %s"
                 (qs r.Spp_engine.Engine.height)
                 (qs r.Spp_engine.Engine.lower_bound)
                 (qs r.Spp_engine.Engine.gap)) ]
      end)

(* ------------------------------------------------------------------ *)
(* Wire decoders *)

module Json = Spp_util.Json
module Protocol = Spp_server.Protocol

(* A random JSON value: every constructor, arbitrary bytes in strings and
   keys, ints over the whole range, finite floats over many magnitudes. *)
let rec gen_json rng depth =
  let bytes () = String.init (Prng.int rng 6) (fun _ -> Char.chr (Prng.int rng 256)) in
  match Prng.int rng (if depth = 0 then 5 else 7) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Prng.bool rng)
  | 2 -> Json.Int (Int64.to_int (Prng.bits64 rng) asr Prng.int rng 63)
  | 3 ->
    (* Half the draws near the int range, where integral floats print
       without an exponent. *)
    let exp = if Prng.bool rng then Prng.int_in rng (-1070) 1023 else Prng.int_in rng (-8) 60 in
    let f = Float.ldexp (Prng.float_in rng (-1.0) 1.0) exp in
    Json.Float (if Prng.bool rng then Float.round f else f)
  | 4 -> Json.String (bytes ())
  | 5 -> Json.List (List.init (Prng.int rng 4) (fun _ -> gen_json rng (depth - 1)))
  | _ -> Json.Obj (List.init (Prng.int rng 4) (fun _ -> (bytes (), gen_json rng (depth - 1))))

(* Hostile lines: truncations and byte flips of a real request line,
   nesting past the parser's depth cap, and 400-digit numbers. *)
let hostile_lines rng line =
  let n = String.length line in
  let flip () =
    let b = Bytes.of_string line in
    let i = Prng.int rng n in
    Bytes.set b i
      (Char.chr
         (if Prng.bool rng then Char.code line.[i] lxor (1 lsl Prng.int rng 8)
          else Prng.int rng 256));
    Bytes.to_string b
  in
  let deep o c = String.make 200 o ^ String.make 200 c in
  let digits = String.init 400 (fun i -> if i = 0 then '9' else Char.chr (48 + Prng.int rng 10)) in
  List.init 48 (fun _ -> String.sub line 0 (Prng.int rng n))
  @ List.init 48 (fun _ -> flip ())
  @ [ deep '[' ']'; String.make 200 '['; String.concat "" (List.init 200 (fun _ -> {|{"a":|}));
      {|{"op":"solve","instance":|} ^ deep '[' ']' ^ "}";
      digits; "-" ^ digits; "0." ^ digits; digits ^ "e400"; "1e-" ^ digits;
      {|{"op":"solve","instance":"","budget_ms":|} ^ digits ^ "}";
      {|{"op":"solve","instance":"","deadline_ms":-|} ^ digits ^ ".5e9}" ]

let json_decode =
  prop "json.decode"
    "Json.of_string and the Protocol decoders return Ok or Error on truncated, byte-flipped, \
     deeply nested and huge-number input, never raise; every value they accept and every \
     generated value round-trips through Json.to_string"
    [ "prec"; "release"; "json" ]
    (fun parsed ->
      let rng = Prng.create (stream_seed_of parsed) in
      let req =
        Protocol.Solve
          { instance =
              (match parsed with
               | Io.Prec inst -> Io.prec_to_string inst
               | Io.Release inst -> Io.release_to_string inst);
            budget_ms = Some (Prng.float rng 1e4); deadline_ms = None;
            algos = Some [ "dc"; "ls" ]; trace_id = Some "t\"1\n" }
      in
      let line = Protocol.encode_request req in
      let round_trips v = Json.of_string (Json.to_string v) = Ok v in
      let problem input =
        match
          ( Json.of_string input,
            Protocol.decode_request input,
            Protocol.decode_response input )
        with
        | Ok v, _, _ when not (round_trips v) ->
          Some (Printf.sprintf "accepted %S but re-printed it as %S" input (Json.to_string v))
        | _ -> None
        | exception e -> Some (Printf.sprintf "%s on %S" (Printexc.to_string e) input)
      in
      let generated = List.init 16 (fun _ -> gen_json rng 4) in
      all_pass
        [ (Protocol.decode_request line = Ok req,
           fun () -> Printf.sprintf "request line %S does not decode to itself" line);
          (match List.find_opt (fun v -> not (round_trips v)) generated with
           | None -> (true, fun () -> "")
           | Some v ->
             ( false,
               fun () ->
                 Printf.sprintf "generated value %S does not round-trip" (Json.to_string v) ));
          (match List.find_map problem (hostile_lines rng line) with
           | None -> (true, fun () -> "")
           | Some msg -> (false, fun () -> msg)) ])

(* ------------------------------------------------------------------ *)
(* Planted bug (self test) *)

let buggy_pack (inst : I.Prec.t) =
  let p = Spp_core.List_schedule.prec inst in
  let h_min =
    List.fold_left (fun acc (r : Rect.t) -> Q.min acc r.Rect.h)
      (Rect.max_height inst.I.Prec.rects) inst.I.Prec.rects
  in
  let delta = Q.div h_min Q.two in
  Placement.of_items
    (List.map
       (fun (it : Placement.item) ->
         let y = it.Placement.pos.Placement.y in
         if Q.is_zero y then it
         else { it with Placement.pos = { it.Placement.pos with Placement.y = Q.sub y (Q.min delta y) } })
       (Placement.items p))

let planted_bug =
  prop "sound.planted.offbyone"
    "SELF TEST: a solver that lowers every stacked rectangle by half the minimum height \
     must be caught by Validate and shrunk to a minimal stacked pair"
    [ "prec"; "planted" ]
    (on_prec (fun inst -> prec_valid inst (buggy_pack inst)))

(* ------------------------------------------------------------------ *)
(* Registry *)

let all =
  [
    sound_dc; sound_ls_prec; sound_uniform_f; sound_uniform_pff; sound_uniform_wave;
    sound_ls_release; sound_shelf; sound_shelf_ff;
    guar_dc_thm23; guar_prec_lb; guar_uniform_f_thm26; guar_release_lb; guar_aptas;
    diff_exact_prec; diff_uniform_dp; diff_exact_release; sound_bb_parallel; num_diff;
    diff_engine; sound_engine_degraded;
    meta_relabel; meta_edge_drop; meta_release_slacken;
    sound_sim_ff; sound_sim_buffered; sound_sim_repack; sim_stream;
    json_decode;
  ]

let select ?algos ~variant () =
  let by_variant =
    match variant with
    | `Both -> all
    | `Prec -> List.filter (fun p -> List.mem "prec" p.tags) all
    | `Release -> List.filter (fun p -> List.mem "release" p.tags) all
  in
  match algos with
  | None -> by_variant
  | Some names ->
    let known =
      List.sort_uniq compare
        (List.concat_map (fun p -> List.filter (fun t -> t <> "prec" && t <> "release") p.tags) all)
    in
    List.iter
      (fun n ->
        if not (List.mem n known) then
          invalid_arg
            (Printf.sprintf "unknown algo %S in --algos; known: %s" n (String.concat ", " known)))
      names;
    List.filter (fun p -> List.exists (fun n -> List.mem n p.tags) names) by_variant
