(* Summary statistics and the one-line JSON result the benchmark prints. *)

let now_ms = Spp_util.Clock.now_ms

(* How many samples lie strictly beyond the [p]-th percentile of [n]. *)
let beyond n p = n - int_of_float (Float.ceil (float_of_int n *. p /. 100.0))

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

(* The contract's last line: exactly [correct], [attempted], [failed]
   and [metrics]. *)
let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Spp_server.Json.to_string (Spp_server.Json.String m.name))
          (json_number m.value)
          (Spp_server.Json.to_string (Spp_server.Json.String m.unit)))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* CPU seconds (user + system, every thread) of this process. *)
let self_cpu_ms () =
  let t = Unix.times () in
  1000.0 *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents b
        | n -> Buffer.add_subbytes b chunk 0 n; go ()
      in
      go ())

(* /proc/<pid>/status lines look like ["VmHWM:\t  12345 kB"]. *)
let status_kb pid field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field ->
             String.sub line (i + 1) (String.length line - i - 1)
             |> String.trim |> String.split_on_char ' ' |> List.hd |> int_of_string_opt
           | _ -> None)

(* Peak resident set (VmHWM) in MB. *)
let rss_peak_mb pid =
  match status_kb pid "VmHWM" with Some kb -> float_of_int kb /. 1024.0 | None -> 0.0

(* utime + stime of another process from /proc/<pid>/stat, in ms. The
   command field may hold spaces, so count fields after its ')'. *)
let clock_ticks_per_s = 100.0

let proc_cpu_ms pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.0
  | text -> (
    let after = String.rindex text ')' + 2 in
    let fields = String.split_on_char ' ' (String.sub text after (String.length text - after)) in
    (* fields.(0) is field 3 (state); utime and stime are fields 14, 15. *)
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s ->
      1000.0 *. (float_of_string u +. float_of_string s) /. clock_ticks_per_s
    | _ -> 0.0)
