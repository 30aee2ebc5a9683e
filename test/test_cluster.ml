(* Tests for Spp_cluster: ring determinism across processes (golden MD5
   values), bounded key movement on membership changes, coalescing under
   a concurrent hammer, and an in-process proxy over live backends —
   routing, the warm cache, coalesced upstream solves, and failover past
   a killed backend. *)

module Prng = Spp_util.Prng
module Fault = Spp_util.Fault
module Io = Spp_core.Io
module I = Spp_core.Instance
module Validate = Spp_core.Validate
module Generators = Spp_workloads.Generators
module Engine = Spp_engine.Engine
module Metrics = Spp_obs.Metrics
module Framing = Spp_server.Framing
module Json = Spp_util.Json
module Protocol = Spp_server.Protocol
module Server = Spp_server.Server
module Client = Spp_server.Client
module Ring = Spp_cluster.Ring
module Coalesce = Spp_cluster.Coalesce
module Proxy = Spp_cluster.Proxy

(* ------------------------------------------------------------------ *)
(* Ring *)

(* Golden values pin the hash to "first 8 bytes of MD5, big-endian": a
   process restart, another machine, or an accidental reimplementation
   must route keys identically or backend caches go cold fleet-wide. *)
let test_ring_deterministic () =
  Alcotest.(check int64) "hash golden (spp)" 0x5566919ceb387560L (Ring.hash "spp");
  Alcotest.(check int64) "hash golden (empty)" 0xd41d8cd98f00b204L (Ring.hash "");
  let ring = Ring.create [ "a"; "b"; "c" ] in
  let routes = List.map (fun k -> Ring.route ring k) [ "spp"; "alpha"; "beta"; "gamma"; "delta" ] in
  Alcotest.(check (list (option string)))
    "route goldens"
    [ Some "b"; Some "a"; Some "c"; Some "a"; Some "b" ]
    routes;
  (* Layout is a pure function of the member set: insertion order and the
     add/remove path taken to reach it are irrelevant. *)
  let shuffled = Ring.create [ "c"; "a"; "b"; "a" ] in
  let via_add = Ring.remove (Ring.add (Ring.create [ "b"; "c"; "x" ]) "a") "x" in
  let keys = List.init 200 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "shuffled agrees" (Ring.route ring k) (Ring.route shuffled k);
      Alcotest.(check (option string)) "add/remove path agrees" (Ring.route ring k) (Ring.route via_add k))
    keys

let test_ring_empty_and_members () =
  let empty = Ring.create [] in
  Alcotest.(check (option string)) "empty routes nowhere" None (Ring.route empty "k");
  Alcotest.(check (list string)) "empty has no successors" [] (Ring.successors empty "k");
  let ring = Ring.create ~replicas:16 [ "b"; "a"; "c"; "b" ] in
  Alcotest.(check (list string)) "members sorted, deduped" [ "a"; "b"; "c" ] (Ring.members ring);
  Alcotest.(check int) "size" 3 (Ring.size ring);
  Alcotest.(check bool) "mem" true (Ring.mem ring "b");
  Alcotest.check_raises "replicas >= 1" (Invalid_argument "Ring.create: replicas must be >= 1")
    (fun () -> ignore (Ring.create ~replicas:0 [ "a" ]))

let test_ring_successors () =
  let members = List.init 5 (fun i -> Printf.sprintf "m%d" i) in
  let ring = Ring.create members in
  for i = 0 to 99 do
    let key = Printf.sprintf "key-%d" i in
    let succ = Ring.successors ring key in
    Alcotest.(check int) "covers every member" 5 (List.length succ);
    Alcotest.(check (list string)) "distinct" (List.sort_uniq compare succ |> List.sort compare)
      (List.sort compare succ);
    Alcotest.(check (option string)) "head is the route" (Ring.route ring key)
      (match succ with s :: _ -> Some s | [] -> None)
  done

(* The point of consistent hashing: a membership change of one node moves
   only that node's arcs. Leaving: every moved key was owned by the
   leaver. Joining: every moved key lands on the joiner. Either way the
   moved fraction is ~1/n; we assert <= 2/n to leave room for vnode
   variance without ever accepting a rehash-everything regression. *)
let test_ring_key_movement () =
  let n_keys = 2000 in
  let keys = List.init n_keys (fun i -> Printf.sprintf "instance-%d" i) in
  let members = List.init 5 (fun i -> Printf.sprintf "m%d" i) in
  let five = Ring.create members in
  let owner r k = Option.get (Ring.route r k) in
  (* m2 leaves *)
  let four = Ring.remove five "m2" in
  let moved =
    List.filter
      (fun k ->
        let before = owner five k and after = owner four k in
        if before <> after then begin
          Alcotest.(check string) "only the leaver's keys move" "m2" before;
          true
        end
        else false)
      keys
  in
  Alcotest.(check bool)
    (Printf.sprintf "leave moves <= 2/5 of keys (moved %d)" (List.length moved))
    true
    (List.length moved * 5 <= 2 * n_keys);
  Alcotest.(check bool) "leave moves > 0 keys" true (moved <> []);
  (* m5 joins *)
  let six = Ring.add five "m5" in
  let moved =
    List.filter
      (fun k ->
        let before = owner five k and after = owner six k in
        if before <> after then begin
          Alcotest.(check string) "moved keys land on the joiner" "m5" after;
          true
        end
        else false)
      keys
  in
  Alcotest.(check bool)
    (Printf.sprintf "join moves <= 2/6 of keys (moved %d)" (List.length moved))
    true
    (List.length moved * 6 <= 2 * n_keys);
  Alcotest.(check bool) "join moves > 0 keys" true (moved <> [])

(* ------------------------------------------------------------------ *)
(* Coalesce *)

let test_coalesce_hammer () =
  let c = Coalesce.create () in
  let computes = Atomic.make 0 in
  let led = Atomic.make 0 and joined = Atomic.make 0 in
  let work () =
    Atomic.incr computes;
    Unix.sleepf 0.2;
    42
  in
  let runner () =
    match Coalesce.run c "fp" work with
    | `Led (v, _) ->
      Alcotest.(check int) "leader value" 42 v;
      Atomic.incr led
    | `Joined v ->
      Alcotest.(check int) "joined value" 42 v;
      Atomic.incr joined
  in
  let leader = Thread.create runner () in
  Unix.sleepf 0.05;
  Alcotest.(check int) "flight open while leader runs" 1 (Coalesce.in_flight c);
  let followers = List.init 11 (fun _ -> Thread.create runner ()) in
  Thread.join leader;
  List.iter Thread.join followers;
  Alcotest.(check int) "exactly one compute" 1 (Atomic.get computes);
  Alcotest.(check int) "one leader" 1 (Atomic.get led);
  Alcotest.(check int) "eleven joiners" 11 (Atomic.get joined);
  Alcotest.(check int) "no flight left open" 0 (Coalesce.in_flight c);
  (* A request arriving after publication starts a fresh flight. *)
  (match Coalesce.run c "fp" (fun () -> Atomic.incr computes; 7) with
   | `Led (7, 0) -> ()
   | _ -> Alcotest.fail "post-publication request must lead its own flight");
  Alcotest.(check int) "fresh flight recomputes" 2 (Atomic.get computes)

exception Boom

let test_coalesce_leader_failure () =
  let c = Coalesce.create () in
  let outcomes = Array.make 6 `Pending in
  let runner i () =
    outcomes.(i) <-
      (try
         match Coalesce.run c "fp" (fun () -> Unix.sleepf 0.15; raise Boom) with
         | `Led _ | `Joined _ -> `Value
       with Boom -> `Boom)
  in
  let leader = Thread.create (runner 0) () in
  Unix.sleepf 0.05;
  let followers = List.init 5 (fun i -> Thread.create (runner (i + 1)) ()) in
  Thread.join leader;
  List.iter Thread.join followers;
  Array.iteri
    (fun i o ->
      Alcotest.(check bool)
        (Printf.sprintf "thread %d saw the leader's exception" i)
        true (o = `Boom))
    outcomes;
  Alcotest.(check int) "failed flight removed" 0 (Coalesce.in_flight c)

(* ------------------------------------------------------------------ *)
(* Proxy over live in-process backends *)

let temp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp_cluster_%s_%d_%d.sock" tag (Unix.getpid ()) (Random.int 1_000_000))

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

let start_backend () =
  let sock = temp_sock "backend" in
  let address = Framing.Unix_sock sock in
  let srv =
    Server.start
      { Server.frontend = Spp_server.Frontend.default address; workers = 1; queue_depth = 16;
        engine = Engine.create (); default_budget_ms = Some 2000.0; solve_workers = Some 1;
        slow_ms = None; retry_after_ms = Server.default_retry_after_ms;
        max_worker_restarts = None; deadline_floor_ms = Server.default_deadline_floor_ms }
  in
  (address, srv)

let with_cluster ?(backends = 2) ?(cache_capacity = 64) ?(failover = 1) ?(fail_after = 3)
    ?(probe_interval_ms = 200.0) f =
  let started = List.init backends (fun _ -> start_backend ()) in
  let registry = Metrics.create () in
  let cfg =
    { (Proxy.default_config ~address:(Framing.Unix_sock (temp_sock "proxy"))
         ~backends:(List.map fst started) ())
      with
      Proxy.cache_capacity; failover; fail_after; probe_interval_ms;
      upstream_timeout_ms = Some 2_000.0; registry; revive_after = 1; seed = 42 }
  in
  let px = Proxy.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Proxy.stop px;
      Proxy.wait px;
      List.iter
        (fun (_, srv) ->
          Server.stop srv;
          Server.wait srv)
        started)
    (fun () -> f cfg px (List.map snd started))

let solve_via ?algos addr text =
  Client.with_connection ~timeout_ms:5_000.0 addr (fun c ->
      Client.request c
        (Protocol.Solve
           { instance = text; budget_ms = None; deadline_ms = None; algos; trace_id = None }))

let test_proxy_routes_and_caches () =
  with_cluster (fun cfg _px _srvs ->
      let corpus = List.init 6 (fun i -> instance_text (100 + i) (5 + (i mod 3))) in
      List.iter
        (fun text ->
          match solve_via cfg.Proxy.frontend.address text with
          | Protocol.Solve_ok r ->
            check_solve_reply text r;
            Alcotest.(check bool) "first pass is not proxy-cached" true
              (r.Protocol.source <> "cache.proxy")
          | other ->
            Alcotest.failf "expected solve_ok, got %s" (Protocol.encode_response other))
        corpus;
      (* The same instances again: answered at the proxy, backends idle. *)
      List.iter
        (fun text ->
          match solve_via cfg.Proxy.frontend.address text with
          | Protocol.Solve_ok r ->
            check_solve_reply text r;
            Alcotest.(check string) "second pass hits the warm cache" "cache.proxy"
              r.Protocol.source
          | other ->
            Alcotest.failf "expected solve_ok, got %s" (Protocol.encode_response other))
        corpus;
      let hits = Metrics.find_counter cfg.Proxy.registry "spp_proxy_cache_hits_total" in
      Alcotest.(check (option int)) "cache hits counted" (Some 6) hits;
      (* Local ops: health and metrics answered by the proxy itself. *)
      (match
         Client.with_connection cfg.Proxy.frontend.address (fun c ->
             Client.request c Protocol.Health)
       with
       | Protocol.Health_ok h ->
         Alcotest.(check int) "health reports cache capacity" 64 h.Protocol.cache_capacity
       | _ -> Alcotest.fail "health must answer locally");
      match
        Client.with_connection cfg.Proxy.frontend.address (fun c ->
            Client.request c Protocol.Metrics)
      with
      | Protocol.Metrics_ok m ->
        Alcotest.(check int) "workers reports live backends" 2 m.Protocol.workers
      | _ -> Alcotest.fail "metrics must answer locally")

let test_proxy_coalesces_concurrent_duplicates () =
  (* Cache off so every request must go upstream; a 150 ms engine delay
     (deterministic fault injection) holds the leader's flight open long
     enough that the other threads must join it. The portfolio is pinned
     to the sub-millisecond [dc] member so the flight's duration is the
     injected delay, not solver runtime — the exact solvers can burn most
     of the 2 s budget on a slow machine and trip the upstream timeout. *)
  with_cluster ~backends:1 ~cache_capacity:0 (fun cfg _px _srvs ->
      (match Fault.configure "engine.solve=delay150" with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "fault spec: %s" msg);
      Fun.protect ~finally:Fault.clear (fun () ->
          let text = instance_text 7 6 in
          let replies = Array.make 8 None in
          let runner i () =
            replies.(i) <- Some (solve_via ~algos:[ "dc" ] cfg.Proxy.frontend.address text)
          in
          let leader = Thread.create (runner 0) () in
          Unix.sleepf 0.05;
          let rest = List.init 7 (fun i -> Thread.create (runner (i + 1)) ()) in
          Thread.join leader;
          List.iter Thread.join rest;
          let heights =
            Array.to_list replies
            |> List.map (function
                 | Some (Protocol.Solve_ok r) -> check_solve_reply text r; r.Protocol.height
                 | Some other -> Alcotest.failf "expected solve_ok, got %s" (Protocol.encode_response other)
                 | None -> Alcotest.fail "reply missing")
          in
          (match heights with
           | h :: rest -> List.iter (Alcotest.(check string) "all sharers get one answer" h) rest
           | [] -> assert false);
          let coalesced =
            Option.value ~default:0
              (Metrics.find_counter cfg.Proxy.registry "spp_proxy_coalesced_total")
          in
          Alcotest.(check bool)
            (Printf.sprintf "coalesced > 0 (got %d)" coalesced)
            true (coalesced > 0)))

let test_proxy_failover_past_dead_backend () =
  (* fail_after 1: the first transport error evicts; failover 1 lets the
     request complete on the ring successor in the same call. *)
  with_cluster ~backends:3 ~cache_capacity:0 ~fail_after:1 ~failover:2
    (fun cfg px srvs ->
      let corpus = List.init 8 (fun i -> instance_text (200 + i) 5) in
      (* Kill one backend outright. *)
      (match srvs with
       | victim :: _ ->
         Server.stop victim;
         Server.wait victim
       | [] -> assert false);
      List.iter
        (fun text ->
          match solve_via cfg.Proxy.frontend.address text with
          | Protocol.Solve_ok r -> check_solve_reply text r
          | other ->
            Alcotest.failf "expected solve_ok after failover, got %s"
              (Protocol.encode_response other))
        corpus;
      (* The dead backend's keys re-route: it is out of the ring (either
         from passive failures above or the next probe cycle). *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec settle () =
        if List.length (Proxy.live_backends px) <= 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "dead backend never left the ring"
        else (Thread.yield (); Unix.sleepf 0.05; settle ())
      in
      settle ();
      Alcotest.(check int) "ring settles on the survivors" 2
        (List.length (Proxy.live_backends px)))

let test_proxy_serves_from_cache_when_all_backends_die () =
  with_cluster ~backends:2 ~fail_after:1 (fun cfg _px srvs ->
      let text = instance_text 9 6 in
      (match solve_via cfg.Proxy.frontend.address text with
       | Protocol.Solve_ok r -> check_solve_reply text r
       | other -> Alcotest.failf "warmup failed: %s" (Protocol.encode_response other));
      List.iter
        (fun srv ->
          Server.stop srv;
          Server.wait srv)
        srvs;
      (* The snooped reply outlives the whole backend fleet. *)
      (match solve_via cfg.Proxy.frontend.address text with
       | Protocol.Solve_ok r ->
         Alcotest.(check string) "served from the proxy cache" "cache.proxy" r.Protocol.source
       | other -> Alcotest.failf "expected cache hit, got %s" (Protocol.encode_response other));
      (* A never-seen instance now has nowhere to go: a structured
         overloaded reply with a retry hint, not a hang or a reset. *)
      match solve_via cfg.Proxy.frontend.address (instance_text 10 5) with
      | Protocol.Error { code = Protocol.Overloaded; retry_after_ms; _ } ->
        Alcotest.(check bool) "carries a retry hint" true (retry_after_ms <> None)
      | other ->
        Alcotest.failf "expected overloaded, got %s" (Protocol.encode_response other))

(* End-to-end trace stitching: the proxy forwards the client's trace id
   on the upstream solve, the backend embeds its span tree in the reply,
   and the proxy grafts that tree under its own [upstream] span — so the
   client sees one trace, under one id, spanning both processes. *)
let test_proxy_stitches_backend_trace () =
  with_cluster ~backends:1 ~cache_capacity:4 (fun cfg _px _srvs ->
      let text = instance_text 55 6 in
      let trace_id = "feedfacecafef00d" in
      let solve () =
        Client.with_connection ~timeout_ms:5_000.0 cfg.Proxy.frontend.address (fun c ->
            Client.request c
              (Protocol.Solve
                 { instance = text; budget_ms = None; deadline_ms = None; algos = None;
                   trace_id = Some trace_id }))
      in
      let span_name j =
        match Json.member "name" j with Some (Json.String s) -> Some s | _ -> None
      in
      let children j =
        match Json.member "spans" j with Some (Json.List l) -> l | _ -> []
      in
      let find name l = List.find_opt (fun s -> span_name s = Some name) l in
      let start s =
        match Json.member "start_ms" s with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> -1.0
      in
      (match solve () with
       | Protocol.Solve_ok r ->
         check_solve_reply text r;
         Alcotest.(check (option string)) "trace id echoed" (Some trace_id)
           r.Protocol.trace_id;
         let tr =
           match r.Protocol.trace with
           | Some t -> t
           | None -> Alcotest.fail "traced reply must embed the stitched tree"
         in
         Alcotest.(check (option string)) "stitched tree carries the client's id"
           (Some trace_id)
           (Option.bind (Json.member "trace_id" tr) Json.get_string);
         let root =
           match Json.member "root" tr with
           | Some t -> t
           | None -> Alcotest.fail "stitched tree has no root"
         in
         Alcotest.(check (option string)) "root is the proxy" (Some "proxy")
           (span_name root);
         let kids = children root in
         Alcotest.(check bool) "proxy recorded a route span" true
           (find "route" kids <> None);
         let upstream =
           match find "upstream" kids with
           | Some u -> u
           | None -> Alcotest.fail "proxy recorded no upstream span"
         in
         let request =
           match find "request" (children upstream) with
           | Some r -> r
           | None -> Alcotest.fail "backend tree not grafted under upstream"
         in
         Alcotest.(check bool) "backend race span grafted" true
           (find "race" (children request) <> None);
         (* Grafting rebases the backend's relative offsets onto the
            proxy's timeline: the request starts no earlier than the
            upstream call that carried it. *)
         Alcotest.(check bool) "grafted start rebased onto proxy timeline" true
           (start request >= start upstream)
       | other -> Alcotest.failf "expected solve_ok, got %s" (Protocol.encode_response other));
      (* A cache hit replays the answer but never the stale backend tree:
         the reply's trace is the proxy's own spans only. *)
      match solve () with
      | Protocol.Solve_ok r ->
        Alcotest.(check string) "second pass is proxy-cached" "cache.proxy"
          r.Protocol.source;
        let tr =
          match r.Protocol.trace with
          | Some t -> t
          | None -> Alcotest.fail "cached traced reply still embeds the proxy trace"
        in
        let root =
          match Json.member "root" tr with
          | Some t -> t
          | None -> Alcotest.fail "cached trace has no root"
        in
        Alcotest.(check bool) "no upstream span on a cache hit" true
          (find "upstream" (children root) = None)
      | other -> Alcotest.failf "expected solve_ok, got %s" (Protocol.encode_response other))

(* ------------------------------------------------------------------ *)
(* Breaker: the full state machine under the frozen clock — no sleeps. *)

module Breaker = Spp_cluster.Breaker
module Clock = Spp_util.Clock

let with_frozen_clock f =
  Clock.freeze ();
  Fun.protect ~finally:Clock.thaw f

let test_breaker_trips_within_window () =
  let b = Breaker.create ~window:8 ~threshold:5 ~cooldown_ms:1000.0 () in
  Alcotest.(check string) "starts closed" "closed" (Breaker.state_to_string (Breaker.state b));
  (* Failures interleaved with successes — the exact pattern consecutive-
     streak health counters are blind to. 4 failures in the window: still
     closed; the 5th trips it. *)
  List.iter
    (fun ok -> Breaker.record b ~ok)
    [ false; true; false; true; false; true; false ];
  Alcotest.(check bool) "4-of-8 stays closed" true (Breaker.allow b);
  Breaker.record b ~ok:false;
  Alcotest.(check string) "5-of-8 opens" "open" (Breaker.state_to_string (Breaker.state b));
  Alcotest.(check bool) "open refuses" false (Breaker.allow b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check (float 0.0)) "gauge encodes open" 2.0 (Breaker.state_value b)

let test_breaker_cooldown_and_probe () =
  with_frozen_clock (fun () ->
      let b = Breaker.create ~window:4 ~threshold:2 ~cooldown_ms:500.0 () in
      Breaker.record b ~ok:false;
      Breaker.record b ~ok:false;
      Alcotest.(check bool) "tripped" false (Breaker.allow b);
      (* Outcomes recorded while open are stragglers from the pre-trip
         era: they must not change state or consume the probe. *)
      Breaker.record b ~ok:true;
      Alcotest.(check string) "straggler ignored" "open"
        (Breaker.state_to_string (Breaker.state b));
      ignore (Clock.advance 499.0);
      Alcotest.(check bool) "still cooling" false (Breaker.allow b);
      ignore (Clock.advance 1.0);
      (* Cooldown over: exactly one caller gets the half-open probe. *)
      Alcotest.(check bool) "probe granted" true (Breaker.allow b);
      Alcotest.(check (float 0.0)) "gauge encodes half-open" 1.0 (Breaker.state_value b);
      Alcotest.(check bool) "second caller refused while probing" false (Breaker.allow b);
      (* Probe fails: back to open, cooldown restarts from now. *)
      Breaker.record b ~ok:false;
      Alcotest.(check bool) "reopened" false (Breaker.allow b);
      Alcotest.(check int) "second trip counted" 2 (Breaker.trips b);
      ignore (Clock.advance 500.0);
      Alcotest.(check bool) "second probe granted" true (Breaker.allow b);
      (* Probe succeeds: closed with a clean window — the next single
         failure must not re-trip off stale history. *)
      Breaker.record b ~ok:true;
      Alcotest.(check string) "probe ok closes" "closed"
        (Breaker.state_to_string (Breaker.state b));
      Breaker.record b ~ok:false;
      Alcotest.(check string) "window was reset" "closed"
        (Breaker.state_to_string (Breaker.state b)))

let test_breaker_create_guards () =
  List.iter
    (fun mk ->
      match mk () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad breaker config accepted")
    [ (fun () -> Breaker.create ~window:0 ());
      (fun () -> Breaker.create ~window:4 ~threshold:0 ());
      (fun () -> Breaker.create ~window:4 ~threshold:5 ());
      (fun () -> Breaker.create ~cooldown_ms:0.0 ()) ]

(* ------------------------------------------------------------------ *)
(* Hedging: a slow backend loses the race to its ring successor. *)

module Fingerprint = Spp_engine.Fingerprint

(* A line relay in front of a real backend that stalls every request by
   [delay_ms] before forwarding — "a slow backend" built from a fast
   one, without touching the process-global fault registry. *)
type slow_gateway = { gw_addr : Framing.address; gw_listener : Unix.file_descr }

let start_slow_gateway ~delay_ms target =
  let sock = temp_sock "slowgw" in
  let addr = Framing.Unix_sock sock in
  let listener = Framing.listen addr in
  let relay client =
    let upstream = Framing.connect target in
    let from_client = Framing.reader client and from_backend = Framing.reader upstream in
    let rec pump () =
      match Framing.read_line from_client with
      | None -> ()
      | Some line ->
        Thread.delay (delay_ms /. 1000.0);
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
          | exception Unix.Unix_error _ -> ()  (* listener closed: drain *)
        in
        loop ())
      ()
  in
  { gw_addr = addr; gw_listener = listener }

let stop_slow_gateway gw = try Unix.close gw.gw_listener with Unix.Unix_error _ -> ()

(* An instance whose fingerprint routes to [want] first on the same ring
   the proxy will build — so the slow gateway is deterministically the
   leader and the fast backend the hedge target. *)
let instance_routed_to ~names ~want =
  let ring = Ring.create names in
  let rec hunt seed =
    if seed > 10_000 then Alcotest.fail "no instance routed to the slow backend"
    else
      let text = instance_text seed 6 in
      let fp = Fingerprint.parsed (Io.parse_string text) in
      match Ring.successors ring fp with
      | first :: _ when first = want -> text
      | _ -> hunt (seed + 1)
  in
  hunt 9_000

let test_proxy_hedge_beats_slow_backend () =
  let fast_addr, fast_srv = start_backend () in
  let slow_addr, slow_srv = start_backend () in
  let gw = start_slow_gateway ~delay_ms:400.0 slow_addr in
  let registry = Metrics.create () in
  let backends = [ gw.gw_addr; fast_addr ] in
  let cfg =
    { (Proxy.default_config ~address:(Framing.Unix_sock (temp_sock "proxy")) ~backends ())
      with
      Proxy.failover = 1; probe_interval_ms = 10_000.0; registry; seed = 42;
      upstream_timeout_ms = Some 5_000.0; hedge = Proxy.Hedge_fixed 40.0 }
  in
  let px = Proxy.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Proxy.stop px;
      Proxy.wait px;
      stop_slow_gateway gw;
      List.iter
        (fun srv ->
          Server.stop srv;
          Server.wait srv)
        [ fast_srv; slow_srv ])
    (fun () ->
      let text =
        instance_routed_to
          ~names:(List.map Framing.address_to_string backends)
          ~want:(Framing.address_to_string gw.gw_addr)
      in
      let t0 = Spp_util.Clock.now_ms () in
      (match solve_via cfg.Proxy.frontend.address text with
       | Protocol.Solve_ok reply ->
         check_solve_reply text reply;
         (* The gateway stalls 400 ms; a winning hedge answers well
            before the stalled leader possibly could. *)
         Alcotest.(check bool) "reply beat the stall" true
           (Spp_util.Clock.elapsed_ms t0 < 390.0)
       | other -> Alcotest.failf "expected Solve_ok, got %s" (Protocol.encode_response other));
      Alcotest.(check bool) "a hedge was fired" true
        (match Metrics.find_counter registry "spp_hedges_total" with
         | Some n -> n >= 1
         | None -> false);
      Alcotest.(check bool) "the hedge won" true
        (match Metrics.find_counter registry "spp_hedge_wins_total" with
         | Some n -> n >= 1
         | None -> false))

(* ------------------------------------------------------------------ *)
(* Deadlines at the proxy *)

let test_proxy_deadline_fastfail_but_cache_serves () =
  with_cluster (fun cfg _px _srvs ->
      let text = instance_text 321 6 in
      (* No time left and nothing cached: fast-fail without an upstream
         call. *)
      (match
         Client.with_connection ~timeout_ms:5_000.0 cfg.Proxy.frontend.address (fun c ->
             Client.request c
               (Protocol.Solve
                  { instance = text; budget_ms = None; deadline_ms = Some 0.0; algos = None;
                    trace_id = None }))
       with
       | Protocol.Error { code = Protocol.Wont_make_it; retry_after_ms; _ } ->
         Alcotest.(check bool) "carries a retry hint" true (retry_after_ms <> None)
       | other ->
         Alcotest.failf "expected wont_make_it, got %s" (Protocol.encode_response other));
      Alcotest.(check (option int)) "counted as a proxy deadline reject" (Some 1)
        (Metrics.find_counter cfg.Proxy.registry
           ~labels:[ ("stage", "proxy") ]
           "spp_deadline_rejects_total");
      (* Warm the cache with an unbounded solve, then repeat the
         impossible deadline: the answer in hand is served anyway. *)
      (match solve_via cfg.Proxy.frontend.address text with
       | Protocol.Solve_ok r -> check_solve_reply text r
       | other -> Alcotest.failf "warming solve failed: %s" (Protocol.encode_response other));
      match
        Client.with_connection ~timeout_ms:5_000.0 cfg.Proxy.frontend.address (fun c ->
            Client.request c
              (Protocol.Solve
                 { instance = text; budget_ms = None; deadline_ms = Some 0.0; algos = None;
                   trace_id = None }))
      with
      | Protocol.Solve_ok r ->
        Alcotest.(check string) "cache hit beats wont_make_it" "cache.proxy"
          r.Protocol.source
      | other -> Alcotest.failf "expected cached Solve_ok, got %s"
                   (Protocol.encode_response other))

let () =
  Random.self_init ();
  Alcotest.run "spp_cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic across processes" `Quick test_ring_deterministic;
          Alcotest.test_case "empty ring and membership" `Quick test_ring_empty_and_members;
          Alcotest.test_case "successors cover the ring" `Quick test_ring_successors;
          Alcotest.test_case "bounded key movement on leave/join" `Quick
            test_ring_key_movement;
        ] );
      ( "coalesce",
        [
          Alcotest.test_case "concurrent hammer shares one flight" `Quick
            test_coalesce_hammer;
          Alcotest.test_case "leader failure propagates to joiners" `Quick
            test_coalesce_leader_failure;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "routes, validates, and warm-caches" `Quick
            test_proxy_routes_and_caches;
          Alcotest.test_case "coalesces concurrent duplicates" `Quick
            test_proxy_coalesces_concurrent_duplicates;
          Alcotest.test_case "fails over past a dead backend" `Quick
            test_proxy_failover_past_dead_backend;
          Alcotest.test_case "cache outlives every backend" `Quick
            test_proxy_serves_from_cache_when_all_backends_die;
          Alcotest.test_case "stitches the backend trace under one id" `Quick
            test_proxy_stitches_backend_trace;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips on failures within the window" `Quick
            test_breaker_trips_within_window;
          Alcotest.test_case "cooldown, half-open probe, reset" `Quick
            test_breaker_cooldown_and_probe;
          Alcotest.test_case "create guards" `Quick test_breaker_create_guards;
        ] );
      ( "hedge",
        [
          Alcotest.test_case "hedge beats a slow backend" `Quick
            test_proxy_hedge_beats_slow_backend;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "fast-fail, but a warm cache still serves" `Quick
            test_proxy_deadline_fastfail_but_cache_serves;
        ] );
    ]
