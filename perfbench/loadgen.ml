(* Closed-loop client for the daemon workloads. Request lines are built
   before the timed window; each connection takes the next stream
   position, sends its line, waits for the reply and records it raw.
   Nothing is decoded or validated inside the window. *)

module Framing = Spp_server.Framing

type op = { pos : int; latency_ms : float; end_ms : float; reply : Check.reply }
(* [end_ms] is the reply's arrival, relative to the window's start. *)

type run = { ops : op array; elapsed_ms : float }

let reply_timeout_ms = 30_000.0

let drive ~address ~(lines : string array) ~(order : int array) ~conns ~seconds =
  let next = Atomic.make 0 in
  let start = Measure.now_ms () in
  let deadline = start +. (seconds *. 1000.0) in
  let last = Atomic.make start in
  let worker results () =
    let conn = ref None in
    let connect () =
      match !conn with
      | Some c -> c
      | None ->
        let fd = Framing.connect ~timeout_ms:5000.0 address in
        let c = (fd, Framing.reader fd) in
        conn := Some c;
        c
    in
    let drop () =
      Option.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) !conn;
      conn := None
    in
    let rec loop () =
      if Measure.now_ms () < deadline then begin
        let pos = Atomic.fetch_and_add next 1 in
        if pos < Array.length order then begin
          let t0 = Measure.now_ms () in
          let reply =
            match
              let fd, rd = connect () in
              Framing.write_line fd lines.(order.(pos));
              Framing.read_line ~idle_timeout_ms:reply_timeout_ms rd
            with
            | Some line -> Check.Reply line
            | None -> drop (); Check.Transport "connection closed"
            | exception e -> drop (); Check.Transport (Printexc.to_string e)
          in
          let t1 = Measure.now_ms () in
          results := { pos; latency_ms = t1 -. t0; end_ms = t1 -. start; reply } :: !results;
          let rec bump () =
            let l = Atomic.get last in
            if t1 > l && not (Atomic.compare_and_set last l t1) then bump ()
          in
          bump ();
          loop ()
        end
      end
    in
    loop ();
    drop ()
  in
  let results = List.init conns (fun _ -> ref []) in
  let threads = List.map (fun r -> Thread.create (worker r) ()) results in
  List.iter Thread.join threads;
  let ops = Array.of_list (List.concat_map (fun r -> !r) results) in
  Array.sort (fun a b -> compare a.pos b.pos) ops;
  { ops; elapsed_ms = Atomic.get last -. start }

(* One request at a time on one connection — the set-up warm-up. *)
let sequential ~address lines =
  let fd = Framing.connect ~timeout_ms:5000.0 address in
  let rd = Framing.reader fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Array.map
        (fun line ->
          match
            Framing.write_line fd line;
            Framing.read_line ~idle_timeout_ms:reply_timeout_ms rd
          with
          | Some l -> Check.Reply l
          | None -> Check.Transport "connection closed"
          | exception e -> Check.Transport (Printexc.to_string e))
        lines)
