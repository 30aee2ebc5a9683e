(* What one benchmark run was asked to do, and what it found. *)

type config = {
  seed : int;
  seconds : float;  (** length of the timed window *)
  trace : bool;  (** the traced run: per-layer metrics instead of end-to-end *)
  quick : bool;  (** tiny sizes for the self-test *)
  spp : string;  (** the built [spp] binary *)
  dir : string;  (** scratch directory for sockets, logs and traces *)
}

type outcome = {
  correct : bool;  (** no wrong answer *)
  attempted : int;
  failed : int;
  metrics : Measure.metric list;
  notes : string list;  (** human-readable lines printed before the result *)
  gate : string list;
      (** the keys on which the two records of the determinism gate
          disagree ({!Gate.diff}); empty when the run is deterministic *)
}
