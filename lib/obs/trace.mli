(** The trace handle threaded through the model core.

    [Trace.null] is the default everywhere: with it, every emission point
    is a single pattern match on an immediate — no event is built, no
    field list allocated, and model results are bit-for-bit identical to
    an instrumented run (the same discipline as [MPPM_SANITIZE=1]).
    Attach a {!Sink.t} to make the same run stream typed events. *)

type t
(** A possibly-null event emitter. *)

val null : t
(** The no-op handle: emission points cost one branch. *)

val of_sink : Sink.t -> t
(** A live handle delivering to [sink]. *)

val enabled : t -> bool
(** Whether a sink is attached.  Instrumentation uses this to skip
    building payloads that only exist for the trace. *)

val emit : t -> (unit -> Event.t) -> unit
(** [emit t thunk] forces [thunk] and delivers the event only when a sink
    is attached — the thunk must be side-effect-free on model state. *)

val close : t -> unit
(** Close the underlying sink, if any. *)
