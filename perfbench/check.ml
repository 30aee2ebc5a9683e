(* Answer checking, done after the timed window. Every distinct answer
   is validated once with Spp_core.Validate (or Sim.check), its height
   and gap are checked against the exact lower bound, and every repeat
   must carry the first answer's placement and height. *)

module Q = Spp_num.Rat
module Io = Spp_core.Io
module Protocol = Spp_server.Protocol

let lower_bound = function
  | Io.Prec inst -> Spp_core.Lower_bounds.prec inst
  | Io.Release inst -> Spp_core.Lower_bounds.release inst

let rects = function
  | Io.Prec inst -> inst.Spp_core.Instance.Prec.rects
  | Io.Release inst -> Spp_core.Instance.Release.rects inst

let violations parsed placement =
  match parsed with
  | Io.Prec inst -> Spp_core.Validate.check_prec inst placement
  | Io.Release inst -> Spp_core.Validate.check_release inst placement

(* [placement] is valid for [parsed], its height is [height], and the
   height is at least the exact lower bound [lb]. Returns height / lb. *)
let placement_ok parsed ~lb ~height placement =
  violations parsed placement = []
  && Q.equal (Spp_geom.Placement.height placement) height
  && Q.compare height lb >= 0

let ratio height lb = Q.to_float height /. Q.to_float lb

(* A reply as the client saw it. *)
type reply = Transport of string | Reply of string

let q_of_string_opt s = try Some (Q.of_string s) with _ -> None

type answer = { height : string; placement : string; lb : string option; gap : string option }

(* Decode one daemon reply. Error replies, shed requests and degraded
   answers are failures. *)
let decode = function
  | Transport e -> Error ("transport: " ^ e)
  | Reply line -> (
    match Protocol.decode_response line with
    | Error e -> Error ("undecodable reply: " ^ e)
    | Ok (Protocol.Error { code; message; _ }) ->
      Error (Protocol.error_code_to_string code ^ ": " ^ message)
    | Ok (Protocol.Solve_ok r) when r.Protocol.degraded -> Error "degraded reply"
    | Ok (Protocol.Solve_ok r) ->
      Ok
        { height = r.Protocol.height; placement = r.Protocol.placement;
          lb = r.Protocol.lower_bound; gap = r.Protocol.gap }
    | Ok _ -> Error "unexpected reply kind")

(* Validate a decoded answer for [parsed], whose exact lower bound is
   [lb]: a valid placement of the claimed height, with the reply's lower
   bound and gap (when present) equal to the exact ones. *)
let answer_ok parsed ~lb a =
  let same_q s q = match q_of_string_opt s with Some v -> Q.equal v q | None -> false in
  match q_of_string_opt a.height with
  | None -> false
  | Some height -> (
    Option.fold ~none:true ~some:(fun s -> same_q s lb) a.lb
    && Option.fold ~none:true ~some:(fun s -> same_q s (Q.sub height lb)) a.gap
    &&
    match Io.parse_placement ~rects:(rects parsed) a.placement with
    | exception Failure _ -> false
    | p -> placement_ok parsed ~lb ~height p)

(* Check every op of a daemon run. [ops] holds (instance index, reply);
   [first] maps an instance to the (height, placement) it must repeat,
   seeded with the set-up warm answers. Each distinct answer of an
   instance is validated once. Returns (failures, height / lb per op —
   nan for a failed op). *)
let daemon_ops ~(items : Inputs.item array) ~lbs ~first ops =
  let valid = Hashtbl.create 1024 in
  let failures = ref 0 in
  let validated i a =
    let key = (i, a.height, a.placement) in
    match Hashtbl.find_opt valid key with
    | Some v -> v
    | None ->
      let v = answer_ok items.(i).Inputs.parsed ~lb:lbs.(i) a in
      Hashtbl.add valid key v;
      v
  in
  let repeats_first i a =
    match Hashtbl.find_opt first i with
    | None -> Hashtbl.add first i (a.height, a.placement); true
    | Some hp -> hp = (a.height, a.placement)
  in
  let ratios =
    Array.map
      (fun (i, reply) ->
        match decode reply with
        | Ok a when validated i a && repeats_first i a -> ratio (Q.of_string a.height) lbs.(i)
        | Ok _ | Error _ -> incr failures; nan)
      ops
  in
  (!failures, ratios)

(* A reply with its whole placement shifted up by 1/7, so the claimed
   height no longer matches the placement. The self-test plants this
   and expects it to count as a failure. *)
let corrupt_reply line =
  match Protocol.decode_response line with
  | Ok (Protocol.Solve_ok r) ->
    let lines = String.split_on_char '\n' r.Protocol.placement in
    let lines =
      List.map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ "place"; id; x; y ] ->
            String.concat " " [ "place"; id; x; Q.to_string (Q.add (Q.of_string y) (Q.of_ints 1 7)) ]
          | _ -> l)
        lines
    in
    Protocol.encode_response
      (Protocol.Solve_ok { r with Protocol.placement = String.concat "\n" lines })
  | _ -> line
