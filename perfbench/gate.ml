(* The determinism gate, held inside one run: a workload computes its
   record twice from independent passes (the stream drawn again from the
   seed, the height ratio recomputed on a fresh engine, every member's
   exact Profile counts taken again) and the two must agree on every
   key. Nothing is kept between runs, so a change to the program moves
   both records together. *)

type record = (string * string) list

(* Each key whose values differ, or that only one record holds. *)
let diff (a : record) (b : record) =
  let show = Option.value ~default:"(absent)" in
  List.sort_uniq compare (List.map fst a @ List.map fst b)
  |> List.filter_map (fun k ->
         match (List.assoc_opt k a, List.assoc_opt k b) with
         | Some x, Some y when x = y -> None
         | x, y -> Some (Printf.sprintf "%s: %s then %s" k (show x) (show y)))
