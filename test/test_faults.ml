(* Chaos tests: the Spp_util.Fault registry itself (spec parsing,
   determinism, one-shot and delay actions), checksummed store entries
   degrading to misses, and a live server surviving injected faults —
   worker death answered with structured errors and a restarted pool,
   overload replies carrying retry hints, and the retrying client
   converging through all of it; and both daemons (server and proxy)
   surviving hostile clients — idle, trickling, oversized, garbage and
   truncated lines.

   Fault state is process-global; every test that arms it clears it in a
   [Fun.protect] finaliser so cases stay independent (alcotest runs them
   sequentially in this executable). *)

module Fault = Spp_util.Fault
module Crc32 = Spp_util.Crc32
module Clock = Spp_util.Clock
module Prng = Spp_util.Prng
module Io = Spp_core.Io
module Generators = Spp_workloads.Generators
module Engine = Spp_engine.Engine
module Store = Spp_engine.Store
module Fingerprint = Spp_engine.Fingerprint
module Metrics = Spp_obs.Metrics
module Expo = Spp_obs.Expo
module Protocol = Spp_server.Protocol
module Framing = Spp_server.Framing
module Server = Spp_server.Server
module Frontend = Spp_server.Frontend
module Proxy = Spp_cluster.Proxy
module Client = Spp_server.Client

let with_faults ?seed spec f =
  (match Fault.configure ?seed spec with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "fault spec %S rejected: %s" spec msg);
  Fun.protect ~finally:Fault.clear f

let random_prec seed n =
  let rng = Prng.create seed in
  Generators.random_prec rng ~n ~k:8 ~h_den:4 ~shape:`Series_parallel

let temp_dir prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.int 1_000_000))

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_spec_parsing () =
  let ok spec =
    match Fault.configure spec with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%S should parse: %s" spec msg
  in
  let bad spec =
    match Fault.configure spec with
    | Ok () -> Alcotest.failf "%S should be rejected" spec
    | Error _ -> ()
  in
  Fun.protect ~finally:Fault.clear (fun () ->
      ok "store.read=0.5";
      ok "pool.job=once";
      ok "engine.solve=delay200";
      ok "engine.solve=delay200@0.25";
      ok " store.read=1 , framing.write=once ";
      ok "store.read=0.5,store.write=0.1,framing.read=once,pool.job=once";
      bad "bogus.point=0.5";
      bad "store.read";
      bad "store.read=";
      bad "store.read=maybe";
      bad "store.read=0";
      bad "store.read=-0.5";
      bad "store.read=1.5";
      bad "store.read=0.5,store.read=0.2";
      bad "engine.solve=delay-5";
      bad "engine.solve=delay100@0";
      (* A rejected spec must not clobber the previous configuration. *)
      ok "store.read=once";
      bad "nope=1";
      Alcotest.(check bool) "previous config survives a bad spec" true (Fault.active ());
      Alcotest.(check string) "describe mentions the rule" "store.read=once seed=0"
        (Fault.describe ());
      (* Empty spec disarms, like clear. *)
      ok "";
      Alcotest.(check bool) "empty spec disarms" false (Fault.active ());
      Alcotest.(check string) "describe off" "off" (Fault.describe ()))

let test_spec_from_env () =
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SPP_FAULTS" "";
      Fault.clear ())
    (fun () ->
      Unix.putenv "SPP_FAULTS" "store.read=once";
      (match Fault.configure_from_env () with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "env spec rejected: %s" msg);
      Alcotest.(check bool) "armed from env" true (Fault.active ());
      Unix.putenv "SPP_FAULTS" "not a spec";
      (match Fault.configure_from_env () with
       | Ok () -> Alcotest.fail "malformed env spec accepted"
       | Error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Hit semantics *)

let test_hit_disabled_noop () =
  Fault.clear ();
  for _ = 1 to 1_000 do
    Fault.hit "store.read";
    Fault.hit "no.such.point"
  done;
  Alcotest.(check int) "nothing fired" 0 (Fault.injected "store.read")

let test_hit_once () =
  with_faults "store.read=once" (fun () ->
      (match Fault.hit "store.read" with
       | () -> Alcotest.fail "first hit must raise"
       | exception Fault.Injected p -> Alcotest.(check string) "payload" "store.read" p);
      for _ = 1 to 100 do
        Fault.hit "store.read"
      done;
      Alcotest.(check int) "fired exactly once" 1 (Fault.injected "store.read");
      (* Unarmed points are untouched even while the registry is hot. *)
      Fault.hit "store.write";
      Alcotest.(check int) "other point untouched" 0 (Fault.injected "store.write"))

let test_hit_certain () =
  with_faults "framing.write=1" (fun () ->
      for _ = 1 to 50 do
        match Fault.hit "framing.write" with
        | () -> Alcotest.fail "p=1 must always raise"
        | exception Fault.Injected _ -> ()
      done;
      Alcotest.(check int) "all fired" 50 (Fault.injected "framing.write"))

let test_hit_deterministic () =
  let draw () =
    List.init 200 (fun _ ->
        match Fault.hit "store.read" with
        | () -> false
        | exception Fault.Injected _ -> true)
  in
  with_faults ~seed:7 "store.read=0.5" (fun () ->
      let first = draw () in
      (match Fault.configure ~seed:7 "store.read=0.5" with
       | Ok () -> ()
       | Error msg -> Alcotest.fail msg);
      let second = draw () in
      Alcotest.(check bool) "same seed, same fault sequence" true (first = second);
      let fired = List.length (List.filter Fun.id first) in
      Alcotest.(check bool)
        (Printf.sprintf "p=0.5 fired a plausible %d/200" fired)
        true
        (fired > 50 && fired < 150);
      (match Fault.configure ~seed:8 "store.read=0.5" with
       | Ok () -> ()
       | Error msg -> Alcotest.fail msg);
      Alcotest.(check bool) "different seed, different sequence" false (draw () = first))

let test_hit_delay () =
  with_faults "engine.solve=delay60" (fun () ->
      let t0 = Clock.now_ms () in
      Fault.hit "engine.solve";
      let elapsed = Clock.elapsed_ms t0 in
      Alcotest.(check bool)
        (Printf.sprintf "slept ~60ms (measured %.1f)" elapsed)
        true (elapsed >= 45.0);
      Alcotest.(check int) "delay counts as an injection" 1 (Fault.injected "engine.solve"))

(* ------------------------------------------------------------------ *)
(* Store checksums *)

let test_crc32_known_value () =
  (* The CRC-32/IEEE check value from the specification. *)
  Alcotest.(check string) "check value" "cbf43926" (Crc32.digest_hex "123456789");
  Alcotest.(check string) "empty" "00000000" (Crc32.digest_hex "");
  Alcotest.(check bool) "sensitive to corruption" false
    (Crc32.digest "winner ls" = Crc32.digest "winner lz")

let entry_path dir fingerprint = Filename.concat dir (fingerprint ^ ".sol")

let test_store_detects_corruption () =
  let dir = temp_dir "spp_faults_store" in
  let store = Store.create ~dir () in
  let inst = random_prec 7 8 in
  let p = Spp_core.List_schedule.prec inst in
  let fingerprint = Fingerprint.prec inst in
  Store.add store ~fingerprint ~winner:"ls" p;
  Alcotest.(check bool) "clean entry loads" true
    (Store.find store ~rects:inst.rects ~fingerprint <> None);
  (* Flip one byte in the body: the checksum must catch it and the read
     must degrade to a miss, not a crash or a bogus placement. *)
  let file = entry_path dir fingerprint in
  let ic = open_in_bin file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let broken = Bytes.of_string contents in
  let last = Bytes.length broken - 2 in
  Bytes.set broken last (if Bytes.get broken last = '1' then '2' else '1');
  let oc = open_out_bin file in
  output_bytes oc broken;
  close_out oc;
  Alcotest.(check bool) "corrupt entry is a miss" true
    (Store.find store ~rects:inst.rects ~fingerprint = None);
  Alcotest.(check int) "corruption counted" 1 (Store.corrupt store)

let test_store_legacy_entry_loads () =
  let dir = temp_dir "spp_faults_legacy" in
  let store = Store.create ~dir () in
  let inst = random_prec 9 8 in
  let p = Spp_core.List_schedule.prec inst in
  let fingerprint = Fingerprint.prec inst in
  Store.add store ~fingerprint ~winner:"ls" p;
  (* Rewrite the entry without its checksum line — the format written
     before checksums existed — and it must still load. *)
  let file = entry_path dir fingerprint in
  let ic = open_in_bin file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let body =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents (i + 1) (String.length contents - i - 1)
    | None -> Alcotest.fail "entry has no checksum line to strip"
  in
  Alcotest.(check bool) "first line was the checksum" true
    (String.length contents > 6 && String.sub contents 0 6 = "crc32 ");
  let oc = open_out_bin file in
  output_string oc body;
  close_out oc;
  Alcotest.(check bool) "legacy entry loads" true
    (Store.find store ~rects:inst.rects ~fingerprint <> None);
  Alcotest.(check int) "not counted as corrupt" 0 (Store.corrupt store)

let test_store_read_fault_degrades () =
  let dir = temp_dir "spp_faults_read" in
  let parsed = Io.Prec (random_prec 11 8) in
  let first = Engine.create ~store_dir:dir () in
  let a = Engine.solve first parsed in
  Alcotest.(check bool) "computed fresh" true (a.Engine.source = Engine.Computed);
  (* A fresh engine would normally hit the disk store; with store.read
     injected it must recompute — same answer, no error. *)
  with_faults "store.read=1" (fun () ->
      let second = Engine.create ~store_dir:dir () in
      let b = Engine.solve second parsed in
      Alcotest.(check bool) "degrades to recompute" true (b.Engine.source = Engine.Computed);
      Alcotest.(check string) "same height"
        (Spp_num.Rat.to_string a.Engine.height)
        (Spp_num.Rat.to_string b.Engine.height));
  let third = Engine.create ~store_dir:dir () in
  let c = Engine.solve third parsed in
  Alcotest.(check bool) "disk hit once the fault clears" true
    (c.Engine.source = Engine.Disk_cache)

let test_store_write_fault_degrades () =
  let dir = temp_dir "spp_faults_write" in
  with_faults "store.write=1" (fun () ->
      let engine = Engine.create ~store_dir:dir () in
      let r = Engine.solve engine (Io.Prec (random_prec 13 8)) in
      Alcotest.(check bool) "solve still succeeds" true
        (r.Engine.source = Engine.Computed);
      let sols =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> Filename.check_suffix f ".sol")
      in
      Alcotest.(check int) "nothing persisted" 0 (List.length sols))

(* ------------------------------------------------------------------ *)
(* Live server under injected faults *)

let temp_sock () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp_faults_%d_%d.sock" (Unix.getpid ()) (Random.int 1_000_000))

let instance_text seed n = Io.prec_to_string (random_prec seed n)

let base_config address engine =
  { Server.frontend = Frontend.default address; workers = 1; queue_depth = 4; engine;
    default_budget_ms = Some 2000.0; solve_workers = Some 1; slow_ms = None;
    retry_after_ms = Server.default_retry_after_ms;
    max_worker_restarts = None; deadline_floor_ms = Server.default_deadline_floor_ms }

let with_server config f =
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f srv)

let solve_req seed =
  Protocol.Solve
    { instance = instance_text seed 8; budget_ms = None; deadline_ms = None; algos = None;
      trace_id = None }

let test_worker_crash_supervised () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let engine = Engine.create () in
  let reg = Engine.metrics engine in
  with_faults "pool.job=once" (fun () ->
      with_server (base_config address engine) (fun _srv ->
          Client.with_connection address (fun c ->
              (* The first job kills its worker domain. The client must
                 still get a protocol-valid structured reply — not a
                 hang, not a reset connection. *)
              (match Client.request c (solve_req 21) with
               | Protocol.Error { code = Protocol.Internal; message; _ } ->
                 Alcotest.(check bool)
                   (Printf.sprintf "crash reply names the fault (%s)" message)
                   true
                   (String.length message >= 14
                    && String.sub message 0 14 = "worker crashed")
               | other ->
                 Alcotest.failf "expected internal error, got %s"
                   (Protocol.encode_response other));
              (* The supervisor restarts the slot; the same connection's
                 next request is served by the replacement worker. *)
              match Client.request c (solve_req 22) with
              | Protocol.Solve_ok _ -> ()
              | other ->
                Alcotest.failf "replacement worker not serving: %s"
                  (Protocol.encode_response other));
          (match Metrics.find_counter reg "spp_worker_deaths_total" with
           | Some n -> Alcotest.(check int) "one death" 1 n
           | None -> Alcotest.fail "spp_worker_deaths_total not registered");
          (match Metrics.find_counter reg "spp_worker_restarts_total" with
           | Some n -> Alcotest.(check bool) "restart counted" true (n >= 1)
           | None -> Alcotest.fail "spp_worker_restarts_total not registered");
          let scrape = Expo.render reg in
          let mentions needle =
            let nl = String.length needle and sl = String.length scrape in
            let rec go i = i + nl <= sl && (String.sub scrape i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "restarts exposed to Prometheus" true
            (mentions "spp_worker_restarts_total 1")))

let test_pool_death_answers_not_hangs () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let engine = Engine.create () in
  with_faults "pool.job=1" (fun () ->
      let config =
        { (base_config address engine) with Server.max_worker_restarts = Some 0 }
      in
      with_server config (fun _srv ->
          (* Every job crashes its worker and the restart budget is zero:
             the pool declares itself dead. Both the killing request and
             later ones must still be answered with structured errors. *)
          (match Client.with_connection address (fun c -> Client.request c (solve_req 31)) with
           | Protocol.Error { code = Protocol.Internal; _ } -> ()
           | other ->
             Alcotest.failf "expected internal error, got %s" (Protocol.encode_response other));
          (* Depending on whether the push raced the queue close, the
             reply is the conn thread's "worker pool closed" or the
             drain's "worker pool dead: ..." — both are structured
             internal errors naming the pool. *)
          match Client.with_connection address (fun c -> Client.request c (solve_req 32)) with
          | Protocol.Error { code = Protocol.Internal; message; _ } ->
            Alcotest.(check bool)
              (Printf.sprintf "dead pool is reported (%s)" message)
              true
              (String.length message >= 11 && String.sub message 0 11 = "worker pool")
          | other ->
            Alcotest.failf "expected pool-closed error, got %s"
              (Protocol.encode_response other)))
(* Server.stop/wait in the finaliser doubles as the real assertion:
   shutdown must not hang on a dead pool. *)

(* A daemon under hostile-client test: where it listens, the registry
   its front end counts into, the series prefix, and how to stop it. *)
type daemon = { d_address : Framing.address; d_reg : Metrics.t; d_prefix : string;
                d_stop : unit -> unit }

(* Idle deadline longer than the read deadline, so a trickler reaped
   well before [hostile_idle_ms] was cut by the read deadline. *)
let hostile_idle_ms = 800.0
let hostile_read_ms = 150.0
let hostile_max_bytes = 4096

let hostile_frontend address =
  { (Frontend.default address) with
    max_request_bytes = hostile_max_bytes; idle_timeout_ms = Some hostile_idle_ms;
    read_timeout_ms = Some hostile_read_ms }

let start_server_daemon () =
  let address = Framing.Unix_sock (temp_sock ()) in
  let engine = Engine.create () in
  let srv =
    Server.start { (base_config address engine) with Server.frontend = hostile_frontend address }
  in
  { d_address = address; d_reg = Engine.metrics engine; d_prefix = "spp";
    d_stop = (fun () -> Server.stop srv; Server.wait srv) }

(* The proxy over one backend; only the proxy's front end is hostile-tuned. *)
let start_proxy_daemon () =
  let backend = Framing.Unix_sock (temp_sock ()) in
  let srv = Server.start (base_config backend (Engine.create ())) in
  let address = Framing.Unix_sock (temp_sock ()) in
  let registry = Metrics.create () in
  let px =
    Proxy.start
      { (Proxy.default_config ~address ~backends:[ backend ] ()) with
        Proxy.frontend = hostile_frontend address; registry }
  in
  { d_address = address; d_reg = registry; d_prefix = "spp_proxy";
    d_stop =
      (fun () ->
        Proxy.stop px;
        Proxy.wait px;
        Server.stop srv;
        Server.wait srv) }

(* Write one byte every 30 ms until the daemon closes the connection;
   the elapsed time from the first byte. *)
let trickle_until_closed fd =
  let t0 = Clock.now_ms () in
  let rec go () =
    if Clock.elapsed_ms t0 > 5_000.0 then Alcotest.fail "trickling client never reaped";
    (try ignore (Unix.write_substring fd "{" 0 1) with Unix.Unix_error _ -> ());
    match Unix.select [ fd ] [] [] 0.03 with
    | [], _, _ -> go ()
    | _ -> Clock.elapsed_ms t0
  in
  go ()

(* The client's own read bound: a daemon that never reaps fails the test
   instead of hanging it. *)
let read_reply reader =
  try Framing.read_line ~idle_timeout_ms:5_000.0 reader with
  | Framing.Timeout -> Alcotest.fail "daemon kept a hostile connection open"

let test_hostile_clients start () =
  let d = start () in
  Fun.protect ~finally:d.d_stop (fun () ->
      let reaped () =
        Metrics.find_counter d.d_reg (d.d_prefix ^ "_connections_reaped_total")
      in
      (* Idle: send nothing; the daemon must reap us, observed as EOF. *)
      let fd = Framing.connect d.d_address in
      let t0 = Clock.now_ms () in
      Alcotest.(check bool) "idle client reaped with EOF" true
        (read_reply (Framing.reader fd) = None);
      Alcotest.(check bool) "after the idle deadline" true
        (Clock.elapsed_ms t0 >= hostile_idle_ms *. 0.8);
      Unix.close fd;
      Alcotest.(check (option int)) "idle reap counted" (Some 1) (reaped ());
      (* Trickle: bytes keep arriving, but the line never completes. *)
      let fd = Framing.connect d.d_address in
      let ms = trickle_until_closed fd in
      Alcotest.(check bool) "trickling client reaped with EOF" true
        (read_reply (Framing.reader fd) = None);
      Alcotest.(check bool)
        (Printf.sprintf "by the read deadline (%.0f ms)" ms)
        true
        (ms >= hostile_read_ms *. 0.8 && ms < hostile_idle_ms);
      Unix.close fd;
      Alcotest.(check (option int)) "trickle reap counted" (Some 2) (reaped ());
      (* Oversized: a structured parse error, then the connection closes. *)
      let fd = Framing.connect d.d_address in
      Framing.write_line fd (String.make (hostile_max_bytes + 1) 'x');
      let reader = Framing.reader fd in
      (match Option.map Protocol.decode_response (read_reply reader) with
       | Some (Ok (Protocol.Error { code = Protocol.Parse; message; _ })) ->
         Alcotest.(check string) "names the limit"
           (Printf.sprintf "request exceeds %d bytes" hostile_max_bytes)
           message
       | _ -> Alcotest.fail "oversized line did not get a parse error reply");
      Alcotest.(check bool) "closed after the refusal" true (read_reply reader = None);
      Unix.close fd;
      (* Garbage and truncated NDJSON: a structured parse error for each
         line, and the same connection still answers a valid request. *)
      let valid =
        Protocol.encode_request
          (Protocol.Solve
             { instance = Io.prec_to_string (random_prec 5 4); budget_ms = Some 50.0;
               deadline_ms = None; algos = None; trace_id = Some "t1" })
      in
      let fd = Framing.connect d.d_address in
      let reader = Framing.reader fd in
      List.iter
        (fun line ->
          Framing.write_line fd line;
          match Option.map Protocol.decode_response (read_reply reader) with
          | Some (Ok (Protocol.Error { code = Protocol.Parse; _ })) -> ()
          | _ -> Alcotest.failf "no structured parse error for %S" line)
        [ "\x00\xff\xfe garbage \x7f"; "}{"; "not json"; "[]"; {|{"op":"solve"}|};
          String.sub valid 0 (String.length valid / 2);
          String.sub valid 0 (String.length valid - 1);
          {|{"op":"solve","instance":"","budget_ms":|} ^ String.make 400 '9' ^ "}";
          String.make 200 '[' ^ String.make 200 ']' ];
      Framing.write_line fd (Protocol.encode_request Protocol.Health);
      (match Option.map Protocol.decode_response (read_reply reader) with
       | Some (Ok (Protocol.Health_ok _)) -> ()
       | _ -> Alcotest.fail "connection unusable after malformed lines");
      Unix.close fd;
      (* A well-behaved client is still served. *)
      match Client.with_connection d.d_address (fun c -> Client.request c Protocol.Health) with
      | Protocol.Health_ok _ -> ()
      | other -> Alcotest.failf "unhealthy after hostile clients: %s"
                   (Protocol.encode_response other))

let test_overload_carries_retry_hint () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let engine = Engine.create () in
  with_faults "engine.solve=delay300" (fun () ->
      let config =
        { (base_config address engine) with Server.queue_depth = 1; retry_after_ms = 25 }
      in
      with_server config (fun _srv ->
          let send seed =
            let fd = Framing.connect address in
            Framing.write_line fd (Protocol.encode_request (solve_req seed));
            (fd, Framing.reader fd)
          in
          let read_reply (_, r) =
            match Framing.read_line r with
            | None -> Alcotest.fail "connection dropped"
            | Some line -> (
              match Protocol.decode_response line with
              | Ok resp -> resp
              | Error msg -> Alcotest.failf "undecodable reply %S: %s" line msg)
          in
          (* Occupy the single worker (the delay keeps it busy), then the
             single queue slot, then overflow. *)
          let a = send 41 in
          Thread.delay 0.1;
          let b = send 42 in
          Thread.delay 0.05;
          let c = send 43 in
          (match read_reply c with
           | Protocol.Error { code = Protocol.Overloaded; retry_after_ms; _ } ->
             Alcotest.(check (option int)) "hint attached" (Some 25) retry_after_ms
           | other ->
             Alcotest.failf "expected overloaded, got %s" (Protocol.encode_response other));
          (* The admitted requests complete normally behind the delays. *)
          List.iter
            (fun conn ->
              match read_reply conn with
              | Protocol.Solve_ok _ -> ()
              | other ->
                Alcotest.failf "admitted request failed: %s" (Protocol.encode_response other))
            [ a; b ];
          List.iter (fun (fd, _) -> Unix.close fd) [ a; b; c ]))

let test_retry_storm_converges () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let engine = Engine.create () in
  with_faults "engine.solve=delay100" (fun () ->
      let config =
        { (base_config address engine) with Server.queue_depth = 1; retry_after_ms = 20 }
      in
      with_server config (fun _srv ->
          (* Four clients hammer a worker=1/queue=1 server whose every
             solve is slowed 100 ms. Backoff-with-jitter plus the server's
             retry hint must get all of them through. *)
          let results = Array.make 4 None in
          let threads =
            List.init 4 (fun i ->
                Thread.create
                  (fun () ->
                    results.(i) <-
                      Some
                        (try
                           Ok (Client.call ~retries:15 ~seed:(1000 + i) address
                                 (solve_req (50 + i)))
                         with Client.Error { kind; attempts; _ } -> Error (kind, attempts)))
                  ())
          in
          List.iter Thread.join threads;
          Array.iteri
            (fun i r ->
              match r with
              | Some (Ok (Protocol.Solve_ok _)) -> ()
              | Some (Ok other) ->
                Alcotest.failf "client %d: unexpected reply %s" i
                  (Protocol.encode_response other)
              | Some (Error (kind, attempts)) ->
                Alcotest.failf "client %d: %s after %d attempts" i
                  (Client.kind_to_string kind) attempts
              | None -> Alcotest.failf "client %d: no result" i)
            results))

let test_client_times_out () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let engine = Engine.create () in
  with_faults "engine.solve=delay400" (fun () ->
      with_server (base_config address engine) (fun _srv ->
          match
            Client.with_connection ~timeout_ms:80.0 address (fun c ->
                Client.request c (solve_req 61))
          with
          | _ -> Alcotest.fail "request should have timed out"
          | exception Client.Error { kind = Client.Timed_out; attempts; _ } ->
            Alcotest.(check int) "single attempt" 1 attempts))

let test_connect_failure_typed () =
  let address = Framing.Unix_sock (temp_sock ()) in
  (match Client.connect address with
   | c ->
     Client.close c;
     Alcotest.fail "connect to a nonexistent socket succeeded"
   | exception Client.Error { kind = Client.Connect_failed; attempts; _ } ->
     Alcotest.(check int) "one attempt" 1 attempts);
  (* call retries transport failures and reports the total attempt count. *)
  match Client.call ~retries:2 ~backoff_base_ms:1.0 ~backoff_cap_ms:5.0 ~seed:3
          address Protocol.Health
  with
  | _ -> Alcotest.fail "call to a nonexistent socket succeeded"
  | exception Client.Error { kind = Client.Connect_failed; attempts; _ } ->
    Alcotest.(check int) "all attempts spent" 3 attempts

let () =
  Random.self_init ();
  Alcotest.run "spp_faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parsing and validation" `Quick test_spec_parsing;
          Alcotest.test_case "from environment" `Quick test_spec_from_env;
        ] );
      ( "hit",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_hit_disabled_noop;
          Alcotest.test_case "once fires once" `Quick test_hit_once;
          Alcotest.test_case "p=1 always fires" `Quick test_hit_certain;
          Alcotest.test_case "seeded and deterministic" `Quick test_hit_deterministic;
          Alcotest.test_case "delay sleeps" `Quick test_hit_delay;
        ] );
      ( "store",
        [
          Alcotest.test_case "crc32 known values" `Quick test_crc32_known_value;
          Alcotest.test_case "corruption detected" `Quick test_store_detects_corruption;
          Alcotest.test_case "legacy entry loads" `Quick test_store_legacy_entry_loads;
          Alcotest.test_case "read fault degrades to miss" `Quick
            test_store_read_fault_degrades;
          Alcotest.test_case "write fault degrades to no-persist" `Quick
            test_store_write_fault_degrades;
        ] );
      ( "server",
        [
          Alcotest.test_case "worker crash is supervised" `Quick
            test_worker_crash_supervised;
          Alcotest.test_case "dead pool answers, never hangs" `Quick
            test_pool_death_answers_not_hangs;
          Alcotest.test_case "overload carries retry hint" `Quick
            test_overload_carries_retry_hint;
          Alcotest.test_case "retry storm converges" `Quick test_retry_storm_converges;
          Alcotest.test_case "client timeout is typed" `Quick test_client_times_out;
          Alcotest.test_case "connect failure is typed" `Quick test_connect_failure_typed;
        ] );
      ( "hostile clients",
        [
          Alcotest.test_case "server" `Quick (test_hostile_clients start_server_daemon);
          Alcotest.test_case "proxy" `Quick (test_hostile_clients start_proxy_daemon);
        ] );
    ]
