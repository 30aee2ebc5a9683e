(** Per-request trace span trees.

    A trace is one root span plus nested children, each stamped with a
    start offset and duration on the monotonic {!Spp_util.Clock}. The
    serving stack opens a trace at admission (honouring a client-supplied
    id), threads it through the queue, the worker pool, the engine, and
    each racing algorithm, then renders it — as an ASCII tree for
    [spp trace], or as a JSON tree for replies and the slow-request log.
    This module is the only one that knows the tree's JSON shape: it
    builds it ({!json}) and reads it back ({!imported_of_json}).

    All mutation is under the trace's mutex, so racing domains may open
    and finish sibling spans concurrently. *)

type t
type span

(** A fresh 16-hex-digit id (process-wide PRNG, seeded per process). *)
val gen_id : unit -> string

(** [create ~name ()] starts a trace whose root span [name] begins now.
    [id] overrides the generated trace id (client-supplied propagation);
    an empty [id] is replaced by a generated one. *)
val create : ?id:string -> name:string -> unit -> t

val id : t -> string
val root : t -> span

(** [span t ~parent name] opens a child span starting now. *)
val span : t -> parent:span -> string -> span

(** [finish t s] stamps the duration (first call wins) and appends
    [fields]. *)
val finish : ?fields:(string * Spp_util.Json.t) list -> t -> span -> unit

(** [with_span t ~parent name f] runs [f] inside a fresh span, finishing
    it on the way out ([outcome=raised] is recorded when [f] escapes with
    an exception, which is re-raised). *)
val with_span : t -> parent:span -> string -> (span -> 'a) -> 'a

val add_fields : t -> span -> (string * Spp_util.Json.t) list -> unit

(** Start offset of [s] relative to the trace epoch, in ms. *)
val start_ms : span -> float

(** A span tree recorded by {e another} process, to be adopted into this
    trace — the [root] object of {!json}. [i_children] are
    chronological. *)
type imported = {
  i_name : string;
  i_start_ms : float;  (** relative to the remote trace's epoch *)
  i_dur_ms : float option;
  i_fields : (string * Spp_util.Json.t) list;
  i_children : imported list;
}

(** [graft t ~parent ~offset_ms imp] attaches [imp] (durations and
    fields preserved) under [parent], rebasing every remote start offset
    by [offset_ms] — pass {!start_ms} of the span that covers the remote
    call. This is how the proxy nests a backend's reply-embedded span
    tree under its own [upstream] span. *)
val graft : t -> parent:span -> offset_ms:float -> imported -> unit

(** [close t] finishes the root span. *)
val close : ?fields:(string * Spp_util.Json.t) list -> t -> unit

(** Root duration if closed, else elapsed-so-far. *)
val total_ms : t -> float

(** [imported_of_json j] decodes the [root] of a {!json} tree. Nodes
    without a [name] are dropped with their subtrees: a trace is best
    effort and must never fail the request that carries it. *)
val imported_of_json : Spp_util.Json.t -> imported option

(** The tree as a JSON value: an object with the trace id and the root
    span. Each span is an object with its name, start offset, duration
    in ms (absent while the span is open), its fields, and its child
    spans in chronological order. *)
val json : t -> Spp_util.Json.t

(** [to_json t] is [Json.to_string (json t)]: one line. *)
val to_json : t -> string

(** Human-readable tree with durations, offsets, and span fields. *)
val render : t -> string
