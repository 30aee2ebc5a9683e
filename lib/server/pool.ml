module Log = Spp_obs.Log

type t = {
  supervisors : Thread.t list;
  deaths : int Atomic.t;
  restarts : int Atomic.t;
  live : int Atomic.t;  (* worker slots with a running (or restartable) domain *)
}

exception Pool_dead

let default_max_restarts = 16

let start ?(max_restarts = default_max_restarts) ?on_crash ~workers f q =
  let workers = max 1 workers in
  let deaths = Atomic.make 0 in
  let restarts = Atomic.make 0 in
  let live = Atomic.make workers in
  let crash job exn =
    match on_crash with
    | None -> ()
    | Some g -> ( try g job exn with _ -> ())
  in
  (* Worker domain body: pop until the queue drains. A job that raises
     (or a pool.job fault) first fails its own job via [crash], then lets
     the exception escape the domain so the supervisor sees the death. *)
  let worker () =
    let rec loop () =
      match Bqueue.pop q with
      | None -> ()
      | Some job ->
        (match
           Spp_util.Fault.hit "pool.job";
           f job
         with
         | () -> ()
         | exception exn ->
           crash job exn;
           raise exn);
        loop ()
    in
    loop ()
  in
  (* If every slot has exhausted its restart budget, nobody will ever pop
     again: close the queue (new pushes shed at admission) and fail any
     queued jobs so their clients get an answer instead of a hang. *)
  let drain_dead () =
    Bqueue.close q;
    let rec drain () =
      match Bqueue.pop q with
      | None -> ()
      | Some job ->
        crash job Pool_dead;
        drain ()
    in
    drain ()
  in
  let slot_down () =
    if Atomic.fetch_and_add live (-1) = 1 && not (Bqueue.is_closed q) then begin
      Log.error "worker pool dead: all restart budgets exhausted"
        [ ("workers", Spp_util.Json.Int workers) ];
      drain_dead ()
    end
  in
  (* One supervisor thread per slot: spawn the domain, join it, and on an
     escaped exception restart within the slot's budget. A clean join
     (queue closed and drained) ends the slot. *)
  let supervise slot =
    let rec run spent =
      match Domain.join (Domain.spawn worker) with
      | () -> Atomic.decr live
      | exception exn ->
        Atomic.incr deaths;
        if Bqueue.is_closed q && Bqueue.length q = 0 then Atomic.decr live
        else if spent < max_restarts then begin
          Atomic.incr restarts;
          Log.warn "worker domain died; restarting"
            [ ("slot", Spp_util.Json.Int slot);
              ("error", Spp_util.Json.String (Printexc.to_string exn));
              ("restarts_left", Spp_util.Json.Int (max_restarts - spent - 1)) ];
          run (spent + 1)
        end
        else begin
          Log.error "worker slot out of restart budget"
            [ ("slot", Spp_util.Json.Int slot);
              ("error", Spp_util.Json.String (Printexc.to_string exn)) ];
          slot_down ()
        end
    in
    run 0
  in
  { supervisors = List.init workers (fun slot -> Thread.create supervise slot);
    deaths; restarts; live }

let size t = List.length t.supervisors
let deaths t = Atomic.get t.deaths
let restarts t = Atomic.get t.restarts
let join t = List.iter Thread.join t.supervisors
