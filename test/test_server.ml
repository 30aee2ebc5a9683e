(* Tests for Spp_server: the hand-rolled JSON layer, protocol
   round-trips on adversarial payloads, the bounded queue, line framing,
   and a live daemon — concurrent clients on a real Unix socket, junk
   bytes answered with error replies, and graceful shutdown under load. *)

module Prng = Spp_util.Prng
module Io = Spp_core.Io
module I = Spp_core.Instance
module Validate = Spp_core.Validate
module Generators = Spp_workloads.Generators
module Engine = Spp_engine.Engine
module Json = Spp_util.Json
module Protocol = Spp_server.Protocol
module Framing = Spp_server.Framing
module Bqueue = Spp_server.Bqueue
module Server = Spp_server.Server
module Client = Spp_server.Client

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_basics () =
  let rt v = Json.of_string (Json.to_string v) in
  let check_rt what v = Alcotest.(check bool) what true (rt v = Ok v) in
  check_rt "null" Json.Null;
  check_rt "bools" (Json.List [ Json.Bool true; Json.Bool false ]);
  check_rt "ints" (Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int; Json.Int min_int ]);
  check_rt "floats"
    (Json.List
       [ Json.Float 0.5; Json.Float (-1.25e-3); Json.Float 2.0; Json.Float 1e300;
         Json.Float 1234567890123456.0 ]);
  check_rt "nested"
    (Json.Obj [ ("a", Json.List [ Json.Obj [ ("b", Json.Null) ] ]); ("c", Json.Int 1) ]);
  Alcotest.(check string) "float keeps .0" "2.0" (Json.to_string (Json.Float 2.0));
  Alcotest.(check bool) "int stays int" true (Json.of_string "7" = Ok (Json.Int 7));
  Alcotest.(check bool) "nan prints null" true (Json.to_string (Json.Float Float.nan) = "null")

let test_json_string_escapes () =
  let nasty = "line1\nline2\r\ttab \"quoted\" back\\slash \001ctl \xe2\x82\xac utf8" in
  let enc = Json.to_string (Json.String nasty) in
  Alcotest.(check bool) "no raw newline in encoding" false (String.contains enc '\n');
  Alcotest.(check bool) "round-trips" true (Json.of_string enc = Ok (Json.String nasty));
  (* Standard escapes and \u forms decode, surrogate pairs combine. *)
  Alcotest.(check bool) "\\u0041" true (Json.of_string {|"A"|} = Ok (Json.String "A"));
  Alcotest.(check bool) "surrogate pair" true
    (Json.of_string {|"😀"|} = Ok (Json.String "\xf0\x9f\x98\x80"));
  Alcotest.(check bool) "lone surrogate becomes U+FFFD" true
    (Json.of_string {|"\ud83d"|} = Ok (Json.String "\xef\xbf\xbd"))

let rec random_json rng depth =
  match if depth >= 3 then Prng.int rng 5 else Prng.int rng 7 with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Prng.bool rng)
  | 2 -> Json.Int (Prng.int_in rng (-1_000_000) 1_000_000)
  | 3 -> Json.Float (Prng.float_in rng (-1e6) 1e6)
  | 4 ->
    Json.String
      (String.init (Prng.int rng 24) (fun _ -> Char.chr (Prng.int rng 256)))
  | 5 -> Json.List (List.init (Prng.int rng 4) (fun _ -> random_json rng (depth + 1)))
  | _ ->
    (* Distinct keys so Obj round-trips structurally. *)
    Json.Obj
      (List.init (Prng.int rng 4) (fun i ->
           (Printf.sprintf "k%d_%d" i (Prng.int rng 1000), random_json rng (depth + 1))))

let test_json_random_roundtrip () =
  let rng = Prng.create 2024 in
  for _ = 1 to 500 do
    let v = random_json rng 0 in
    match Json.of_string (Json.to_string v) with
    | Ok v' -> if v' <> v then Alcotest.failf "round-trip mismatch on %s" (Json.to_string v)
    | Error msg -> Alcotest.failf "round-trip parse error %S on %s" msg (Json.to_string v)
  done

let test_json_junk_never_raises () =
  let rng = Prng.create 99 in
  for _ = 1 to 1000 do
    let junk = String.init (Prng.int rng 40) (fun _ -> Char.chr (Prng.int rng 256)) in
    ignore (Json.of_string junk)
  done;
  let is_err s = match Json.of_string s with Error _ -> true | Ok _ -> false in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "reject %S" s) true (is_err s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "\"bad \\q escape\"";
      "{\"a\":1,}"; "nulll"; "\xff\xfe"; String.make 200 '[' ^ String.make 200 ']'; "1e400";
      String.make 400 '9' ]

(* ------------------------------------------------------------------ *)
(* Protocol *)

let random_payload rng =
  (* Instance-like text with embedded newlines, plus raw junk bytes. *)
  if Prng.bool rng then
    String.concat "\n"
      (List.init (Prng.int rng 6) (fun i ->
           Printf.sprintf "rect %d %d/%d %d" i (1 + Prng.int rng 9) (1 + Prng.int rng 9)
             (1 + Prng.int rng 4)))
  else String.init (Prng.int rng 64) (fun _ -> Char.chr (Prng.int rng 256))

let test_protocol_request_roundtrip () =
  let rng = Prng.create 7 in
  for _ = 1 to 300 do
    let req =
      match Prng.int rng 4 with
      | 0 ->
        Protocol.Solve
          { instance = random_payload rng;
            budget_ms = (if Prng.bool rng then Some (Prng.float rng 1000.) else None);
            deadline_ms = (if Prng.bool rng then Some (Prng.float rng 5000.) else None);
            algos =
              (if Prng.bool rng then
                 Some (List.init (Prng.int rng 3) (fun _ -> random_payload rng))
               else None);
            trace_id =
              (if Prng.bool rng then Some (Printf.sprintf "t%08x" (Prng.int rng 0xffffff))
               else None) }
      | 1 -> Protocol.Metrics
      | 2 -> Protocol.Health
      | _ -> Protocol.Shutdown
    in
    let line = Protocol.encode_request req in
    Alcotest.(check bool) "one line" false (String.contains line '\n');
    match Protocol.decode_request line with
    | Ok req' -> if req' <> req then Alcotest.failf "request mismatch: %s" line
    | Error msg -> Alcotest.failf "decode failed (%s) on %s" msg line
  done

let test_protocol_response_roundtrip () =
  let rng = Prng.create 8 in
  let responses () =
    [ Protocol.Health_ok { uptime_s = Prng.float rng 3600.; cache_capacity = 128 };
      Protocol.Shutdown_ok;
      Protocol.Solve_ok
        { winner = "dc"; source = "computed"; height = "27/4";
          time_ms = Prng.float rng 100.; placement = random_payload rng;
          degraded = Prng.bool rng;
          lower_bound = (if Prng.bool rng then Some "27/8" else None);
          gap = (if Prng.bool rng then Some "27/8" else None);
          trace_id = (if Prng.bool rng then Some "deadbeefcafef00d" else None);
          trace =
            (if Prng.bool rng then
               Some (Json.Obj [ ("name", Json.String "request"); ("ms", Json.Float 0.5) ])
             else None) };
      Protocol.Metrics_ok
        { uptime_ms = Prng.float rng 1e6;
          counters = [ ("cache.hit", Prng.int rng 100); ("solve.runs", Prng.int rng 100) ];
          cache =
            { size = Prng.int rng 10; capacity = 128; hits = Prng.int rng 50;
              misses = Prng.int rng 50; evictions = 0 };
          store_dir = (if Prng.bool rng then Some "/tmp/x" else None);
          workers = 1 + Prng.int rng 8; queue_length = Prng.int rng 64; queue_capacity = 64;
          histograms =
            [ ( "spp_solve_ms",
                { Protocol.count = 1 + Prng.int rng 100; sum = Prng.float rng 1e4;
                  p50 = Prng.float rng 10.; p90 = Prng.float rng 100.;
                  p99 = Prng.float rng 1000.;
                  buckets = [ (0.5, Prng.int rng 5); (5.0, 5 + Prng.int rng 5) ] } ) ];
          algos =
            [ ( "dc",
                { Protocol.wins = Prng.int rng 10; solved = Prng.int rng 20;
                  timeouts = Prng.int rng 3; invalid = 0; failed = Prng.int rng 2 } );
              ("bl", { Protocol.wins = 0; solved = 1; timeouts = 0; invalid = 1; failed = 0 }) ] };
      Protocol.Error
        { code = Protocol.Overloaded; message = random_payload rng;
          retry_after_ms = (if Prng.bool rng then Some (Prng.int rng 5000) else None) };
      Protocol.Error
        { code = Protocol.Bad_instance; message = ""; retry_after_ms = None } ]
  in
  for _ = 1 to 60 do
    List.iter
      (fun resp ->
        let line = Protocol.encode_response resp in
        Alcotest.(check bool) "one line" false (String.contains line '\n');
        match Protocol.decode_response line with
        | Ok resp' -> if resp' <> resp then Alcotest.failf "response mismatch: %s" line
        | Error msg -> Alcotest.failf "decode failed (%s) on %s" msg line)
      (responses ())
  done;
  (* Every error code survives the wire. *)
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Protocol.error_code_to_string code)
        true
        (Protocol.error_code_of_string (Protocol.error_code_to_string code) = Some code))
    [ Protocol.Parse; Protocol.Bad_request; Protocol.Bad_instance; Protocol.Overloaded;
      Protocol.Shutting_down; Protocol.Internal ]

let test_protocol_junk_is_error () =
  let rng = Prng.create 9 in
  for _ = 1 to 500 do
    let junk = String.init (Prng.int rng 50) (fun _ -> Char.chr (Prng.int rng 256)) in
    (match Protocol.decode_request junk with Ok _ | Error _ -> ());
    match Protocol.decode_response junk with Ok _ | Error _ -> ()
  done;
  let req_err s = match Protocol.decode_request s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "non-object" true (req_err "[1,2]");
  Alcotest.(check bool) "missing op" true (req_err "{}");
  Alcotest.(check bool) "unknown op" true (req_err {|{"op":"dance"}|});
  Alcotest.(check bool) "solve without instance" true (req_err {|{"op":"solve"}|});
  Alcotest.(check bool) "ill-typed budget" true
    (req_err {|{"op":"solve","instance":"x","budget_ms":"soon"}|})

(* ------------------------------------------------------------------ *)
(* Bqueue *)

let test_bqueue_bounds_and_order () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Bqueue.create: capacity must be >= 1") (fun () ->
      ignore (Bqueue.create ~capacity:0));
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "full: load shed" false (Bqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Bqueue.length q);
  Alcotest.(check bool) "fifo" true (Bqueue.pop q = Some 1);
  Alcotest.(check bool) "push after pop" true (Bqueue.try_push q 4);
  Bqueue.close q;
  Alcotest.(check bool) "push after close refused" false (Bqueue.try_push q 5);
  Alcotest.(check bool) "drains after close" true (Bqueue.pop q = Some 2);
  Alcotest.(check bool) "drains after close (2)" true (Bqueue.pop q = Some 4);
  Alcotest.(check bool) "empty+closed is None" true (Bqueue.pop q = None)

let test_bqueue_blocking_pop () =
  let q = Bqueue.create ~capacity:1 in
  let got = Atomic.make None in
  let th = Thread.create (fun () -> Atomic.set got (Some (Bqueue.pop q))) () in
  Thread.delay 0.05;
  Alcotest.(check bool) "still blocked" true (Atomic.get got = None);
  Alcotest.(check bool) "push wakes it" true (Bqueue.try_push q 42);
  Thread.join th;
  Alcotest.(check bool) "received" true (Atomic.get got = Some (Some 42))

let test_bqueue_close_wakes_blocked () =
  (* Shutdown path: several poppers are parked on an empty queue when
     close() lands. Every one of them must wake with None — a popper
     left sleeping would be a worker domain the server can never join. *)
  let q = Bqueue.create ~capacity:4 in
  let woken = Atomic.make 0 in
  let threads =
    List.init 3 (fun _ ->
        Thread.create
          (fun () -> if Bqueue.pop q = None then Atomic.incr woken)
          ())
  in
  Thread.delay 0.05;
  Alcotest.(check int) "all still blocked" 0 (Atomic.get woken);
  Bqueue.close q;
  List.iter Thread.join threads;
  Alcotest.(check int) "every popper woken with None" 3 (Atomic.get woken);
  (* After the drain the queue stays terminal. *)
  Alcotest.(check bool) "closed" true (Bqueue.is_closed q);
  Alcotest.(check bool) "push refused" false (Bqueue.try_push q 1);
  Alcotest.(check bool) "pop still None" true (Bqueue.pop q = None)

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_framing_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = Framing.reader b in
  Framing.write_line a "first";
  Framing.write_line a "second with spaces";
  (* One syscall carrying several frames, a CRLF line, and a final
     unterminated fragment — the reader must split and finish them all. *)
  let chunk = "third\nfourth\r\nfifth-unterminated" in
  let n = Unix.write_substring a chunk 0 (String.length chunk) in
  Alcotest.(check int) "chunk written" (String.length chunk) n;
  Unix.close a;
  let expect what s = Alcotest.(check (option string)) what s (Framing.read_line r) in
  expect "line 1" (Some "first");
  expect "line 2" (Some "second with spaces");
  expect "line 3" (Some "third");
  expect "CR stripped" (Some "fourth");
  expect "final unterminated line" (Some "fifth-unterminated");
  expect "eof" None;
  Unix.close b

let test_framing_line_too_long () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = Framing.reader ~max_line_bytes:64 b in
  Framing.write_line a (String.make 100 'x');
  Unix.close a;
  Alcotest.check_raises "oversized line rejected" Framing.Line_too_long (fun () ->
      ignore (Framing.read_line r));
  Unix.close b

(* The length limit applies to the logical line, after the CR strip: a
   CRLF peer gets the same capacity as an LF one, and a bare "\r\n" is a
   blank line (which the server skips), not a framing error. *)
let test_framing_crlf_at_limit () =
  let roundtrip raw =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let r = Framing.reader ~max_line_bytes:64 b in
    let n = Unix.write_substring a raw 0 (String.length raw) in
    Alcotest.(check int) "written" (String.length raw) n;
    Unix.close a;
    let lines = try Ok (List.init 2 (fun _ -> Framing.read_line r)) with e -> Error e in
    Unix.close b;
    lines
  in
  let full = String.make 64 'x' in
  (match roundtrip (full ^ "\r\n") with
   | Ok [ first; eof ] ->
     Alcotest.(check (option string)) "64 bytes + CRLF accepted" (Some full) first;
     Alcotest.(check (option string)) "then EOF" None eof
   | _ -> Alcotest.fail "CRLF line at the limit must be accepted");
  (match roundtrip (full ^ "y\r\n") with
   | Error Framing.Line_too_long -> ()
   | _ -> Alcotest.fail "65-byte CRLF line must be rejected");
  (* Unterminated CRLF lines at the limit: the partial-line buffer must
     tolerate the pending CR until EOF resolves it. *)
  (match roundtrip (full ^ "\r") with
   | Ok [ first; eof ] ->
     Alcotest.(check (option string)) "64 bytes + dangling CR accepted" (Some full) first;
     Alcotest.(check (option string)) "then EOF" None eof
   | _ -> Alcotest.fail "dangling CR at the limit must be accepted");
  match roundtrip "\r\nok\r\n" with
  | Ok [ blank; second ] ->
    Alcotest.(check (option string)) "bare CRLF is a blank line" (Some "") blank;
    Alcotest.(check (option string)) "following line intact" (Some "ok") second
  | _ -> Alcotest.fail "bare CRLF must read as a blank line"

(* Retry backoff: decorrelated jitter in [base, 3 * prev] capped, with a
   server retry_after_ms hint as a hard floor — even above the cap. *)
let test_client_backoff_hint_floor () =
  let rng = Prng.create 7 in
  for _ = 1 to 200 do
    let s = Client.backoff_ms ~base_ms:25.0 ~cap_ms:2000.0 rng ~prev_ms:100.0 in
    Alcotest.(check bool) "jitter within [base, 3*prev]" true (s >= 25.0 && s <= 300.0);
    let s = Client.backoff_ms ~base_ms:25.0 ~cap_ms:2000.0 ~hint_ms:500 rng ~prev_ms:100.0 in
    Alcotest.(check bool) "hint floors the sleep" true (s >= 500.0);
    let s = Client.backoff_ms ~base_ms:25.0 ~cap_ms:2000.0 ~hint_ms:5000 rng ~prev_ms:9e9 in
    Alcotest.(check (float 1e-9)) "hint above cap wins over the cap" 5000.0 s
  done

(* ------------------------------------------------------------------ *)
(* Live server *)

let temp_sock () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp_test_%d_%d.sock" (Unix.getpid ()) (Random.int 1_000_000))

let instance_text seed n =
  let rng = Prng.create seed in
  Io.prec_to_string (Generators.random_prec rng ~n ~k:8 ~h_den:4 ~shape:`Series_parallel)

let check_solve_reply text (r : Protocol.solve_reply) =
  match Io.parse_string text with
  | Io.Release _ -> Alcotest.fail "test corpus is precedence-only"
  | Io.Prec inst -> (
    match Io.parse_placement ~rects:inst.I.Prec.rects r.Protocol.placement with
    | exception Failure msg -> Alcotest.failf "reply placement does not parse: %s" msg
    | p ->
      Alcotest.(check int)
        (Printf.sprintf "reply from %s validates" r.Protocol.source)
        0
        (List.length (Validate.check_prec inst p)))

let with_server ?(workers = 2) ?(queue_depth = 16) f =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let srv =
    Server.start
      { Server.frontend = Spp_server.Frontend.default address; workers; queue_depth;
        engine = Engine.create (); default_budget_ms = Some 2000.0; solve_workers = Some 1;
        slow_ms = None; retry_after_ms = Server.default_retry_after_ms;
        max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f address srv)

let test_server_concurrent_clients () =
  with_server (fun address _srv ->
      let corpus = [| instance_text 31 8; instance_text 32 7; instance_text 33 9 |] in
      let failures = Bqueue.create ~capacity:64 in
      let clients = 4 and per_client = 6 in
      let threads =
        List.init clients (fun ci ->
            Thread.create
              (fun () ->
                Client.with_connection address (fun c ->
                    for r = 0 to per_client - 1 do
                      let text = corpus.((ci + r) mod Array.length corpus) in
                      match
                        Client.request c
                          (Protocol.Solve
                             { instance = text; budget_ms = None; deadline_ms = None;
                               algos = None; trace_id = None })
                      with
                      | Protocol.Solve_ok reply -> check_solve_reply text reply
                      | other ->
                        ignore
                          (Bqueue.try_push failures (Protocol.encode_response other))
                    done))
              ())
      in
      List.iter Thread.join threads;
      Bqueue.close failures;
      (match Bqueue.pop failures with
       | Some bad -> Alcotest.failf "unexpected reply: %s" bad
       | None -> ());
      (* 3 distinct instances, 24 requests: the shared cache must have
         served the repeats. *)
      match Client.with_connection address (fun c -> Client.request c Protocol.Metrics) with
      | Protocol.Metrics_ok m ->
        Alcotest.(check int) "distinct instances computed" 3 m.Protocol.cache.Protocol.size;
        (* The engine does not coalesce concurrent misses of the same
           fingerprint, so the exact split is racy; but each client can
           compute each instance at most once, so at least
           total - clients*instances requests were served from cache. *)
        Alcotest.(check bool)
          (Printf.sprintf "repeats were cache hits (%d)" m.Protocol.cache.Protocol.hits)
          true
          (m.Protocol.cache.Protocol.hits >= (clients * per_client) - (clients * 3)
           && m.Protocol.cache.Protocol.hits > 0);
        Alcotest.(check int) "workers reported" 2 m.Protocol.workers
      | other -> Alcotest.failf "unexpected metrics reply: %s" (Protocol.encode_response other))

let test_server_junk_and_errors () =
  with_server (fun address _srv ->
      (* Raw junk bytes on the wire: the server must answer an error reply
         on the same connection, not drop it or crash. *)
      let fd = Framing.connect address in
      Framing.write_line fd "this is { not json";
      let r = Framing.reader fd in
      (match Framing.read_line r with
       | None -> Alcotest.fail "connection dropped on junk input"
       | Some line -> (
         match Protocol.decode_response line with
         | Ok (Protocol.Error { code = Protocol.Parse; _ }) -> ()
         | _ -> Alcotest.failf "expected a parse error reply, got %s" line));
      (* The connection survives and still serves. *)
      Framing.write_line fd (Protocol.encode_request Protocol.Health);
      (match Framing.read_line r with
       | Some line ->
         Alcotest.(check bool) "health after junk" true
           (match Protocol.decode_response line with
            | Ok (Protocol.Health_ok h) -> h.Protocol.uptime_s >= 0. && h.Protocol.cache_capacity > 0
            | _ -> false)
       | None -> Alcotest.fail "connection closed after junk");
      Unix.close fd;
      Client.with_connection address (fun c ->
          (match
             Client.request c
               (Protocol.Solve
                  { instance = "rect nope"; budget_ms = None; deadline_ms = None; algos = None;
                    trace_id = None })
           with
           | Protocol.Error { code = Protocol.Bad_instance; _ } -> ()
           | other ->
             Alcotest.failf "expected bad_instance, got %s" (Protocol.encode_response other));
          match
            Client.request c
              (Protocol.Solve
                 { instance = instance_text 41 6; budget_ms = None; deadline_ms = None;
                   algos = Some [ "no-such-algorithm" ]; trace_id = None })
          with
          | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
          | other ->
            Alcotest.failf "expected bad_request, got %s" (Protocol.encode_response other)))

let test_server_graceful_shutdown () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let srv =
    Server.start
      { Server.frontend = Spp_server.Frontend.default address; workers = 1; queue_depth = 4;
        engine = Engine.create (); default_budget_ms = Some 2000.0; solve_workers = Some 1;
        slow_ms = None; retry_after_ms = Server.default_retry_after_ms;
        max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  (* An in-flight request must complete and its reply arrive even though
     stop() lands while it is being served. *)
  let text = instance_text 51 10 in
  let result = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Client.with_connection address (fun c ->
            Atomic.set result
              (Some
                 (Client.request c
                    (Protocol.Solve
                       { instance = text; budget_ms = None; deadline_ms = None; algos = None;
                         trace_id = None })))))
      ()
  in
  Thread.delay 0.02;
  Server.stop srv;
  Thread.join th;
  (match Atomic.get result with
   | Some (Protocol.Solve_ok reply) -> check_solve_reply text reply
   | Some other -> Alcotest.failf "in-flight request lost: %s" (Protocol.encode_response other)
   | None -> Alcotest.fail "client got no reply");
  Server.wait srv;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists sock);
  (match Client.connect address with
   | c ->
     Client.close c;
     Alcotest.fail "connect succeeded after shutdown"
   | exception Client.Error { kind = Client.Connect_failed; _ } -> ());
  (* stop/wait are idempotent. *)
  Server.stop srv;
  Server.wait srv

let test_server_shutdown_request () =
  let sock = temp_sock () in
  let address = Framing.Unix_sock sock in
  let srv =
    Server.start
      { Server.frontend = Spp_server.Frontend.default address; workers = 1; queue_depth = 4;
        engine = Engine.create (); default_budget_ms = None; solve_workers = Some 1;
        slow_ms = None; retry_after_ms = Server.default_retry_after_ms;
        max_worker_restarts = None;
        deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  let resp = Client.with_connection address (fun c -> Client.request c Protocol.Shutdown) in
  Alcotest.(check bool) "acknowledged" true (resp = Protocol.Shutdown_ok);
  Server.wait srv;
  Alcotest.(check bool) "drained after shutdown op" false (Sys.file_exists sock)

let test_server_wont_make_it () =
  with_server (fun address _srv ->
      (* A request arriving with its deadline below the admission floor is
         fast-failed before parsing, with a retry hint — not queued. *)
      match
        Client.with_connection address (fun c ->
            Client.request c
              (Protocol.Solve
                 { instance = instance_text 81 6; budget_ms = None;
                   deadline_ms = Some 1.0; algos = None; trace_id = None }))
      with
      | Protocol.Error { code = Protocol.Wont_make_it; retry_after_ms; _ } ->
        Alcotest.(check bool) "carries a retry hint" true (retry_after_ms <> None)
      | other ->
        Alcotest.failf "expected wont_make_it, got %s" (Protocol.encode_response other))

let test_server_degraded_reply () =
  with_server (fun address _srv ->
      let text = instance_text 82 8 in
      let solve ~budget_ms =
        Client.with_connection address (fun c ->
            Client.request c
              (Protocol.Solve
                 { instance = text; budget_ms; deadline_ms = None;
                   algos = Some [ "bb"; "order" ]; trace_id = None }))
      in
      (* Exact members under a zero budget: the reply is the anytime
         incumbent, flagged degraded, still a valid packing, and carries
         the exact-rational bound and gap. *)
      (match solve ~budget_ms:(Some 0.0) with
       | Protocol.Solve_ok r ->
         Alcotest.(check bool) "flagged degraded" true r.Protocol.degraded;
         check_solve_reply text r;
         (match (r.Protocol.lower_bound, r.Protocol.gap) with
          | Some lb, Some gap ->
            let q s = Spp_num.Rat.of_string s in
            Alcotest.(check bool) "gap is nonnegative" true
              (Spp_num.Rat.compare (q gap) Spp_num.Rat.zero >= 0);
            Alcotest.(check bool) "height = lower_bound + gap" true
              (Spp_num.Rat.compare (q r.Protocol.height)
                 (Spp_num.Rat.add (q lb) (q gap))
               = 0)
          | _ -> Alcotest.fail "degraded reply must carry lower_bound and gap")
       | other ->
         Alcotest.failf "expected degraded Solve_ok, got %s" (Protocol.encode_response other));
      (* Degraded answers are not cached: a roomy retry recomputes and
         comes back full quality. *)
      match solve ~budget_ms:(Some 2000.0) with
      | Protocol.Solve_ok r ->
        Alcotest.(check bool) "retry not degraded" false r.Protocol.degraded;
        Alcotest.(check string) "retry recomputed" "computed" r.Protocol.source
      | other ->
        Alcotest.failf "expected full Solve_ok, got %s" (Protocol.encode_response other))

let () =
  Alcotest.run "spp_server"
    [
      ( "json",
        [
          Alcotest.test_case "basics" `Quick test_json_basics;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "random round-trip" `Quick test_json_random_roundtrip;
          Alcotest.test_case "junk never raises" `Quick test_json_junk_never_raises;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_protocol_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_protocol_response_roundtrip;
          Alcotest.test_case "junk is an error, not a crash" `Quick test_protocol_junk_is_error;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "bounds and order" `Quick test_bqueue_bounds_and_order;
          Alcotest.test_case "blocking pop" `Quick test_bqueue_blocking_pop;
          Alcotest.test_case "close wakes blocked poppers" `Quick
            test_bqueue_close_wakes_blocked;
        ] );
      ( "framing",
        [
          Alcotest.test_case "socketpair framing" `Quick test_framing_socketpair;
          Alcotest.test_case "line too long" `Quick test_framing_line_too_long;
          Alcotest.test_case "CRLF lines at the length limit" `Quick
            test_framing_crlf_at_limit;
        ] );
      ( "client",
        [
          Alcotest.test_case "backoff honors retry_after hint" `Quick
            test_client_backoff_hint_floor;
        ] );
      ( "server",
        [
          Alcotest.test_case "concurrent clients share the cache" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "junk and error replies" `Quick test_server_junk_and_errors;
          Alcotest.test_case "graceful shutdown under load" `Quick test_server_graceful_shutdown;
          Alcotest.test_case "shutdown request drains" `Quick test_server_shutdown_request;
          Alcotest.test_case "wont_make_it below the floor" `Quick test_server_wont_make_it;
          Alcotest.test_case "degraded anytime reply" `Quick test_server_degraded_reply;
        ] );
    ]
