(* Fresh [spp serve] / [spp proxy] processes for one run: spawn from the
   built binary, wait until a [health] request succeeds, scrape their
   Prometheus series, and end with the [shutdown] op. *)

module Framing = Spp_server.Framing
module Protocol = Spp_server.Protocol

type t = {
  name : string;
  pid : int;
  address : Framing.address;
  log : string;
  mutable metrics_port : int option;
  mutable reaped : bool;
}

let live : t list ref = ref []

let reap_now t =
  if not t.reaped then begin
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end

(* Last resort on any exit path: no daemon outlives the benchmark. *)
let kill_all () =
  List.iter
    (fun t ->
      if not t.reaped then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap_now t
      end)
    !live;
  live := []

let () = at_exit kill_all

let spawn ~spp ~dir ~name ~socket args =
  let log = Filename.concat dir (name ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process spp (Array.of_list (spp :: args)) null out out in
  Unix.close out;
  Unix.close null;
  let t =
    { name; pid; address = Framing.Unix_sock socket; log; metrics_port = None; reaped = false }
  in
  live := t :: !live;
  t

(* Health over a fresh connection; any failure means "not yet". *)
let healthy t =
  match Framing.connect ~timeout_ms:200.0 t.address with
  | exception _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Framing.write_line fd (Protocol.encode_request Protocol.Health);
          match Framing.read_line ~idle_timeout_ms:1000.0 (Framing.reader fd) with
          | Some line -> (
            match Protocol.decode_response line with Ok (Protocol.Health_ok _) -> true | _ -> false)
          | None -> false
        with _ -> false)

let metrics_port_of_log log =
  let marker = "metrics on http://127.0.0.1:" in
  match Measure.read_file log with
  | exception Sys_error _ -> None
  | text ->
    let rec find i =
      if i + String.length marker > String.length text then None
      else if String.sub text i (String.length marker) = marker then
        let j = i + String.length marker in
        let k = try String.index_from text j '/' with Not_found -> j in
        int_of_string_opt (String.sub text j (k - j))
      else find (i + 1)
    in
    find 0

(* Millisecond-scale polling: connect plus [health] every 2 ms. *)
let wait_ready ?(timeout_ms = 30_000.0) t =
  let deadline = Measure.now_ms () +. timeout_ms in
  let rec loop () =
    (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
     | 0, _ -> ()
     | _ ->
       t.reaped <- true;
       failwith (Printf.sprintf "%s exited during start-up (see %s)" t.name t.log));
    if healthy t then begin
      let rec port () =
        match metrics_port_of_log t.log with
        | Some p -> t.metrics_port <- Some p
        | None when Measure.now_ms () < deadline -> Thread.delay 0.002; port ()
        | None -> failwith (t.name ^ ": no metrics port in its log")
      in
      port ()
    end
    else if Measure.now_ms () > deadline then failwith (t.name ^ ": not ready in time")
    else begin
      Thread.delay 0.002;
      loop ()
    end
  in
  loop ()

let serve ~spp ~dir name =
  let sock = Filename.concat dir (name ^ ".sock") in
  spawn ~spp ~dir ~name ~socket:sock
    [ "serve"; "--socket"; sock; "--no-cache"; "--metrics-port"; "0" ]

let proxy ~spp ~dir name backends =
  let sock = Filename.concat dir (name ^ ".sock") in
  let bs =
    List.concat_map
      (fun b ->
        match b.address with
        | Framing.Unix_sock p -> [ "--backend"; "unix:" ^ p ]
        | Framing.Tcp (h, p) -> [ "--backend"; Printf.sprintf "tcp:%s:%d" h p ])
      backends
  in
  spawn ~spp ~dir ~name ~socket:sock ([ "proxy"; "--socket"; sock ] @ bs @ [ "--metrics-port"; "0" ])

let scrape t =
  match t.metrics_port with
  | None -> []
  | Some port -> (
    match Spp_server.Metrics_http.fetch ~host:"127.0.0.1" ~port () with
    | Ok text -> Spp_obs.Promtext.parse text
    | Error e -> failwith (Printf.sprintf "%s: scrape failed: %s" t.name e))

let cpu_ms t = Measure.proc_cpu_ms t.pid
let rss_peak_mb t = Measure.rss_peak_mb (string_of_int t.pid)

(* The [shutdown] op, then reap; SIGKILL only if the drain hangs. *)
let shutdown t =
  (match Framing.connect ~timeout_ms:1000.0 t.address with
   | exception _ -> ()
   | fd ->
     (try
        Framing.write_line fd (Protocol.encode_request Protocol.Shutdown);
        ignore (Framing.read_line ~idle_timeout_ms:5000.0 (Framing.reader fd))
      with _ -> ());
     (try Unix.close fd with Unix.Unix_error _ -> ()));
  let deadline = Measure.now_ms () +. 10_000.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Measure.now_ms () < deadline -> Thread.delay 0.005; wait ()
    | 0, _ -> (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()); reap_now t
    | _ -> t.reaped <- true
    | exception Unix.Unix_error _ -> t.reaped <- true
  in
  wait ();
  live := List.filter (fun d -> d != t) !live
