module Clock = Spp_util.Clock
module Prng = Spp_util.Prng
module Json = Spp_util.Json

type span = {
  s_name : string;
  s_start_ms : float;  (* relative to the trace epoch *)
  mutable s_dur_ms : float option;
  mutable s_fields : (string * Json.t) list;
  mutable s_children : span list;  (* newest first *)
}

type t = {
  trace_id : string;
  epoch_ms : float;
  s_root : span;
  lock : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* Trace-id generation: one process-wide PRNG, seeded from wall clock
   and pid so concurrent daemons do not collide. *)

let id_rng =
  lazy
    (let seed =
       (int_of_float (Unix.gettimeofday () *. 1e6) lxor (Unix.getpid () lsl 20)) land max_int
     in
     (Mutex.create (), Prng.create seed))

let gen_id () =
  let lock, rng = Lazy.force id_rng in
  Mutex.lock lock;
  let bits = Prng.bits64 rng in
  Mutex.unlock lock;
  Printf.sprintf "%016Lx" bits

(* ------------------------------------------------------------------ *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?id ~name () =
  let trace_id = match id with Some i when i <> "" -> i | _ -> gen_id () in
  { trace_id;
    epoch_ms = Clock.now_ms ();
    s_root = { s_name = name; s_start_ms = 0.0; s_dur_ms = None; s_fields = []; s_children = [] };
    lock = Mutex.create () }

let id t = t.trace_id
let root t = t.s_root

let span t ~parent name =
  let start = Clock.elapsed_ms t.epoch_ms in
  let s =
    { s_name = name; s_start_ms = start; s_dur_ms = None; s_fields = []; s_children = [] }
  in
  locked t (fun () -> parent.s_children <- s :: parent.s_children);
  s

let finish ?(fields = []) t s =
  let now = Clock.elapsed_ms t.epoch_ms in
  locked t (fun () ->
      (match s.s_dur_ms with
       | None -> s.s_dur_ms <- Some (Float.max 0.0 (now -. s.s_start_ms))
       | Some _ -> ());
      if fields <> [] then s.s_fields <- s.s_fields @ fields)

let with_span t ~parent name f =
  let s = span t ~parent name in
  match f s with
  | v ->
    finish t s;
    v
  | exception e ->
    finish ~fields:[ ("outcome", Json.String "raised") ] t s;
    raise e

let add_fields t s fields = locked t (fun () -> s.s_fields <- s.s_fields @ fields)
let start_ms s = s.s_start_ms

(* ------------------------------------------------------------------ *)
(* Grafting: adopt a span tree recorded by another process (the
   backend's reply-embedded trace) under one of our spans. Imported
   offsets are relative to the *remote* trace's epoch; [offset_ms]
   rebases them onto this trace's timeline — callers pass the start of
   the span that covers the remote call, so the foreign tree nests
   inside it chronologically even though the two clocks never met. *)

type imported = {
  i_name : string;
  i_start_ms : float;
  i_dur_ms : float option;
  i_fields : (string * Json.t) list;
  i_children : imported list;  (* chronological *)
}

let graft t ~parent ~offset_ms imp =
  let rec build i =
    { s_name = i.i_name;
      s_start_ms = offset_ms +. i.i_start_ms;
      s_dur_ms = i.i_dur_ms;
      s_fields = i.i_fields;
      (* children are stored newest-first *)
      s_children = List.rev_map build i.i_children }
  in
  let s = build imp in
  locked t (fun () -> parent.s_children <- s :: parent.s_children)

let close ?fields t = finish ?fields t t.s_root

let total_ms t =
  match t.s_root.s_dur_ms with
  | Some d -> d
  | None -> Clock.elapsed_ms t.epoch_ms

(* ------------------------------------------------------------------ *)
(* The JSON tree, both directions. Children are stored newest-first;
   emit chronological. *)

let json t =
  let rec node s =
    Json.Obj
      ((("name", Json.String s.s_name) :: ("start_ms", Json.Float s.s_start_ms)
        :: (match s.s_dur_ms with Some d -> [ ("ms", Json.Float d) ] | None -> []))
       @ (match s.s_fields with [] -> [] | fs -> [ ("fields", Json.Obj fs) ])
       @
       match s.s_children with
       | [] -> []
       | cs -> [ ("spans", Json.List (List.rev_map node cs)) ])
  in
  locked t (fun () -> Json.Obj [ ("trace_id", Json.String t.trace_id); ("root", node t.s_root) ])

let to_json t = Json.to_string (json t)

let imported_of_json j =
  let rec node j =
    match Json.member "name" j with
    | Some (Json.String name) ->
      let num k = Option.bind (Json.member k j) Json.get_float in
      Some
        { i_name = name;
          i_start_ms = Option.value (num "start_ms") ~default:0.0;
          i_dur_ms = num "ms";
          i_fields = (match Json.member "fields" j with Some (Json.Obj fs) -> fs | _ -> []);
          i_children =
            List.filter_map node
              (Option.value (Option.bind (Json.member "spans" j) Json.get_list) ~default:[]) }
    | _ -> None
  in
  Option.bind (Json.member "root" j) node

let render t =
  let buf = Buffer.create 512 in
  let field_text (k, v) =
    Printf.sprintf "%s=%s"
      k
      (match v with
       | Json.String s -> s
       | Json.Float f -> Printf.sprintf "%.6g" f
       | v -> Json.to_string v)
  in
  let rec emit prefix is_last s =
    let dur =
      match s.s_dur_ms with Some d -> Printf.sprintf "%.2fms" d | None -> "(open)"
    in
    let fields =
      match s.s_fields with
      | [] -> ""
      | fs -> "  [" ^ String.concat " " (List.map field_text fs) ^ "]"
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s %-24s %8s @%.2fms%s\n" prefix
         (if prefix = "" then "" else if is_last then "`- " else "|- ")
         s.s_name dur s.s_start_ms fields);
    let children = List.rev s.s_children in
    let n = List.length children in
    List.iteri
      (fun i c ->
        let child_prefix =
          if prefix = "" then "  " else prefix ^ (if is_last then "   " else "|  ")
        in
        emit child_prefix (i = n - 1) c)
      children
  in
  locked t (fun () ->
      Buffer.add_string buf (Printf.sprintf "trace %s  total %.2fms\n" t.trace_id (total_ms t));
      emit "" true t.s_root);
  Buffer.contents buf
