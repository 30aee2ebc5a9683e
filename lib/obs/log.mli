(** Leveled structured logger: one JSON object per line,
    [{"ts":<unix seconds>,"level":...,"msg":...,<fields>}].

    Process-global (a daemon has one log stream), mutex-protected, and
    flushed per line so a crashed daemon's tail is intact. Defaults to
    [stderr] at [Info]; [SPP_LOG=debug|info|warn|error] (see
    {!init_from_env}) and [spp serve --log-file] reconfigure it. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

val set_level : level -> unit
val level : unit -> level

(** [enabled lvl] — would a message at [lvl] be emitted? Use to skip
    expensive payload construction (e.g. rendering a span tree). *)
val enabled : level -> bool

(** Route output to an existing channel (not closed on replacement). *)
val set_channel : out_channel -> unit

(** Append to a file (opened now; closed when the sink is replaced). *)
val set_file : string -> unit

(** Apply [SPP_LOG] if set; warns on stderr about unknown values. *)
val init_from_env : unit -> unit

val emit : level -> string -> (string * Spp_util.Json.t) list -> unit
val debug : string -> (string * Spp_util.Json.t) list -> unit
val info : string -> (string * Spp_util.Json.t) list -> unit
val warn : string -> (string * Spp_util.Json.t) list -> unit
val error : string -> (string * Spp_util.Json.t) list -> unit
