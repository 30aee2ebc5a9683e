(* The eight end-to-end metrics every workload reports with tracing off. *)

module Stats = Spp_util.Stats

type window = {
  tail_pct : float;
      (** the workload's tail percentile: the highest of 99.9 / 99 / 95 /
          90 that leaves at least ten samples beyond it at the op count
          the workload reaches today and does not move with the seed. It
          is fixed per workload so that a faster program never reports a
          different percentile. *)
  subwindows : int;
      (** throughput and the tail are the medians over this many equal
          slices of the window, so one stall does not move the whole
          run's figure; each slice still holds at least ten samples
          beyond the tail percentile *)
  setups_s : float list;  (** each set-up repetition, spawn to ready to time *)
  latencies_ms : float array;  (** one per attempted op *)
  ends_ms : float array;  (** each op's completion, from the window's start *)
  elapsed_ms : float;  (** the timed window, first send to last reply *)
  failed : int;
  height_ratio : float;
  cpu_ms : float;  (** CPU of the processes under test over the window *)
  rss_peak_mb : float;
}

(* Ops per second and the tail percentile within each of [k] equal
   slices of the window, by completion time. *)
let slices w =
  let k = max 1 w.subwindows in
  let width = w.elapsed_ms /. float_of_int k in
  List.init k (fun j ->
      let lat = ref [] in
      Array.iteri
        (fun i e -> if min (k - 1) (int_of_float (e /. width)) = j then lat := w.latencies_ms.(i) :: !lat)
        w.ends_ms;
      let n = List.length !lat in
      ( float_of_int n /. (width /. 1000.0),
        (if n = 0 then 0.0 else Stats.percentile w.tail_pct !lat),
        n ))

let metrics w =
  let n = Array.length w.latencies_ms in
  let p = w.tail_pct in
  let sl = slices w in
  let ops = float_of_int (max 1 n) in
  let m = Measure.metric in
  let ms =
    [ m "setup_s" "s" (Stats.median w.setups_s);
      m "throughput_rps" "ops/s" (Stats.median (List.map (fun (r, _, _) -> r) sl));
      m "latency_p50_ms" "ms" (Stats.median (Array.to_list w.latencies_ms));
      m "latency_tail_ms" "ms" (Stats.median (List.map (fun (_, t, _) -> t) sl));
      m "ok_share" "share" (float_of_int (n - w.failed) /. ops);
      m "height_ratio" "ratio" w.height_ratio;
      m "cpu_ms_per_op" "ms" (w.cpu_ms /. ops);
      m "rss_peak_mb" "MB" w.rss_peak_mb ]
  in
  let fewest = List.fold_left (fun a (_, _, c) -> min a c) max_int sl in
  let beyond = Measure.beyond fewest p in
  let note =
    Printf.sprintf
      "%d ops; latency_tail_ms is p%g, the median over %d slices of the window (the smallest \
       holds %d ops, %d beyond p%g%s); set-up runs: %s s"
      n p (List.length sl) fewest beyond p
      (if beyond < 10 then ", fewer than ten" else "")
      (String.concat ", " (List.map (Printf.sprintf "%.3f") w.setups_s))
  in
  (ms, note)

(* Set up [times] times and keep the last; the earlier ones are torn
   down so the kept one starts as fresh as they did. *)
let repeat_setup ~times ~setup ~teardown =
  let rec go k acc =
    let t0 = Measure.now_ms () in
    let v = setup () in
    let s = (Measure.now_ms () -. t0) /. 1000.0 in
    if k = 1 then (v, List.rev (s :: acc))
    else begin
      teardown v;
      go (k - 1) (s :: acc)
    end
  in
  go times []

let finite_mean xs =
  match List.filter Float.is_finite (Array.to_list xs) with [] -> 0.0 | l -> Stats.mean l
