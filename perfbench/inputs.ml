(* Seeded inputs for the four workloads. Everything here is a pure
   function of the seed: the same seed gives byte-identical request
   streams, which [digest] pins. The program under test only ever sees
   these generated instances. *)

module G = Spp_workloads.Generators
module Prng = Spp_util.Prng
module Io = Spp_core.Io
module Protocol = Spp_server.Protocol

type item = { text : string; parsed : Io.parsed }

let prec_item inst = { text = Io.prec_to_string inst; parsed = Io.Prec inst }
let release_item inst = { text = Io.release_to_string inst; parsed = Io.Release inst }

(* An independent stream per (seed, purpose), so adding draws to one
   purpose never shifts another. *)
let rng ~seed tag =
  let d = Digest.string (Printf.sprintf "%d/%s" seed tag) in
  Prng.create (Int64.to_int (String.get_int64_le d 0) land max_int)

(* Draw instances until [n] distinct ones (by the engine's own cache
   key) exist: a repeat would turn a never-seen request into a hit. *)
let distinct ~seen n draw =
  let rec go acc k =
    if k = n then Array.of_list (List.rev acc)
    else
      let it = draw () in
      let fp = Spp_engine.Fingerprint.parsed it.parsed in
      if Hashtbl.mem seen fp then go acc k
      else begin
        Hashtbl.add seen fp ();
        go (it :: acc) (k + 1)
      end
  in
  go [] 0

let solve_line text =
  Protocol.encode_request
    (Protocol.Solve
       { instance = text; budget_ms = None; deadline_ms = None; algos = None; trace_id = None })

(* A request stream for a daemon workload: distinct instances, the
   request line of each, and the order in which ops send them. *)
type stream = {
  items : item array;
  lines : string array;
  order : int array;
  warm : int array;  (** instances answered once during set-up *)
  digest : string;
}

(* Streams are drawn op by op, so a longer window extends a shorter
   one; the digest covers a fixed-length prefix and so does not depend
   on the window's length. *)
let digest_prefix = 200

let digest_of ~lines ~order =
  let b = Buffer.create (16 * digest_prefix) in
  Array.iteri
    (fun k i -> if k < digest_prefix then Buffer.add_string b (Digest.string lines.(i)))
    order;
  Digest.to_hex (Digest.string (Buffer.contents b))

let make_stream items order ~warm =
  let lines = Array.map (fun it -> solve_line it.text) items in
  { items; lines; order; warm; digest = digest_of ~lines ~order }

(* serve_hot: 48 distinct n=200 layered instances — all of them fit
   the default 128-entry LRU and are warmed, so every timed op hits. The
   corpus size is fixed rather than drawn from the seed: set-up warms
   every instance, and a drawn size of 32..64 moved set-up time between
   1.3 and 3.1 s from seed to seed. *)
let serve_hot_corpus = 48

let serve_hot ?(quick = false) ~seed ~ops () =
  let r = rng ~seed "serve_hot" in
  let n_distinct = if quick then 4 else serve_hot_corpus in
  let n = if quick then 30 else 200 in
  let items =
    distinct ~seen:(Hashtbl.create 64) n_distinct (fun () ->
        prec_item (G.random_prec r ~n ~k:8 ~h_den:4 ~shape:`Layered))
  in
  let o = rng ~seed "serve_hot.order" in
  let order = Array.init ops (fun _ -> Prng.int o n_distinct) in
  make_stream items order ~warm:(Array.init n_distinct Fun.id)

(* proxy_mix: n=40; about 3 in 4 ops repeat one of 32 warmed hot
   instances, the rest are never-seen instances. *)
let proxy_mix_hot = 32
let proxy_mix_repeat_share = 0.75

let proxy_mix ?(quick = false) ~seed ~ops () =
  let r = rng ~seed "proxy_mix" in
  let n = if quick then 12 else 40 in
  let shapes = [| `Layered; `Series_parallel |] in
  let k = ref 0 in
  let draw () =
    incr k;
    prec_item (G.random_prec r ~n ~k:8 ~h_den:4 ~shape:shapes.(!k land 1))
  in
  let seen = Hashtbl.create 1024 in
  let hot = distinct ~seen proxy_mix_hot draw in
  let o = rng ~seed "proxy_mix.order" in
  let fresh = ref [] in
  let next_fresh = ref proxy_mix_hot in
  (* Drawn op by op, so a longer stream extends a shorter one. *)
  let order =
    Array.init ops (fun _ ->
        if Prng.float o 1.0 < proxy_mix_repeat_share then Prng.int o proxy_mix_hot
        else begin
          fresh := (distinct ~seen 1 draw).(0) :: !fresh;
          incr next_fresh;
          !next_fresh - 1
        end)
  in
  make_stream (Array.append hot (Array.of_list (List.rev !fresh))) order
    ~warm:(Array.init proxy_mix_hot Fun.id)

(* cold_race: never-repeated small instances in a fixed rotation of
   four kinds, so every run sees the same mix whatever its length. Each
   kind keeps exact members in the race (bb applies at n <= 7, order at
   n <= 10) while one solve stays near 10 ms, so a run solves about a
   thousand instances: at n = 7 on a wide strip a single layered
   instance can keep bb busy for 30 s, and a run would then measure a
   handful of instances and its median would move with the seed. *)
let cold_race ?(quick = false) ~seed ~ops () =
  let r = rng ~seed "cold_race" in
  let shrink = if quick then 2 else 0 in
  let n k = k - shrink in
  let draw = function
    | 0 -> prec_item (G.random_prec r ~n:(n 5) ~k:8 ~h_den:4 ~shape:`Layered)
    | 1 -> prec_item (G.random_prec r ~n:(n 7) ~k:2 ~h_den:2 ~shape:`Series_parallel)
    | 2 -> prec_item (G.random_uniform_prec r ~n:(n 8) ~k:4 ~shape:`Fork_join)
    | _ -> release_item (G.random_release r ~n:(n 7) ~k:2 ~h_den:4 ~r_den:2 ~load:1.3)
  in
  let seen = Hashtbl.create 1024 in
  let rec next kind =
    let it = draw kind in
    let fp = Spp_engine.Fingerprint.parsed it.parsed in
    if Hashtbl.mem seen fp then next kind
    else begin
      Hashtbl.add seen fp ();
      it
    end
  in
  Array.init ops (fun i -> next (i mod 4))

(* sim_stream: a pool of ~1500-task arrival traces on k=8 columns,
   Poisson near and above saturation (mean task area 0.35, so about
   2.9 tasks per unit time fill the strip) plus bursts. A replay's cost
   grows with the rate; closely spaced rates keep the cost distribution
   continuous, so its median does not sit in a gap between regimes. *)
let sim_specs =
  Spp_sim.Arrivals.
    [| Poisson 2.8; Poisson 3.0; Poisson 3.2; Poisson 3.4; Burst { burst_len = 24; idle_gap = 6.0 } |]

let sim_tasks = 1500

let sim_stream ?(quick = false) ~seed ~traces () =
  let r = rng ~seed "sim_stream" in
  let n = if quick then 60 else sim_tasks in
  Array.init traces (fun i ->
      let trace_seed = Prng.int r 1_000_000_000 in
      Spp_sim.Arrivals.trace ~n ~k:8 ~seed:trace_seed sim_specs.(i mod Array.length sim_specs))

let items_digest texts =
  Array.sub texts 0 (min digest_prefix (Array.length texts))
  |> Array.to_list |> String.concat "\x00" |> Digest.string |> Digest.to_hex
