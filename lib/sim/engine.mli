(** Deterministic discrete-event engine with cooperative simulated threads
    ("fibers").

    Fibers are plain OCaml functions executed under an effect handler; they
    block by performing effects ([sleep], [suspend]) and the engine resumes
    them from a virtual-time event queue. Event order is total — (time,
    insertion sequence) — so simulations are deterministic and replayable.

    Events due at the current instant (spawns, wake-ups, yields) wait in a
    FIFO ready queue, later ones in a heap. An event still in the heap
    when the clock reaches its time was scheduled before every entry of
    the ready queue, so it runs first; the ready queue itself is in
    insertion order. The two together run events in exactly (time,
    sequence) order. *)

type t
(** An engine instance: virtual clock + event queue + fiber bookkeeping. *)

exception Deadlock of string
(** Raised by {!run} when fibers remain blocked but no event is pending.
    The message lists each blocked fiber and what it is waiting on. *)

exception Fiber_failure of string * exn
(** A fiber raised: carries the fiber name and the original exception. *)

type fiber
(** Handle to a spawned fiber. *)

val create : unit -> t

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val events_dispatched : t -> int
(** Events run so far, from the event heap and the ready queue together.
    A {!sleep} that advanced the clock in place is not one. *)

val in_place_advances : t -> int
(** Sleeps so far that advanced the clock in place (see {!sleep}); each
    would have been one more event through the queue. *)

val current_fid : t -> int
(** Id of the currently running fiber, or -1 outside fiber context. Used by
    {!Trace} to attribute events to simulated threads. *)

val set_advance_hook : t -> (int64 -> int -> unit) option -> unit
(** Install (or clear) a hook called as [hook delta fid] just before the
    virtual clock advances by [delta] > 0 nanoseconds. [fid] is the fiber
    whose wakeup event causes the advance, or -1 when the advance is caused
    by an unowned callback or by {!run_until} padding the clock out to its
    deadline. Since virtual time only moves here, a hook that charges every
    delta somewhere accounts for the whole run exactly — the basis of
    {!Profile}. *)

val set_lock_wait_hook : t -> (string -> int64 -> unit) option -> unit
(** Install (or clear) a hook called as [hook lock_name wait_ns] from a
    fiber that just resumed after blocking for [wait_ns] > 0 virtual
    nanoseconds on a named synchronisation primitive. Blocked time is
    invisible to the advance hook (advances are charged to the fiber that
    causes them, never to waiters), so contention profiling needs this
    separate channel — see {!Profile}. *)

val set_fiber_exit_hook : t -> (int -> unit) option -> unit
(** Install (or clear) a hook called with the fid of each fiber whose body
    returns normally, while that fiber is still current. Fibers that exit
    by raising are skipped — the exception already reports the failure.
    Used by {!Trace}'s debug mode to detect unbalanced spans. *)

(** {1 Request context}

    A request id is an engine-unique [int64] (0 = none) carried by each
    fiber and inherited by fibers it spawns — so the identity of "the
    request being served" follows the work across async hops (handler
    fiber to device completion fiber) with no call-site plumbing. {!Trace}
    stamps it on every event, which is what lets a causal trace be
    reassembled per request. *)

val current_req : t -> int64
(** Request context of the currently running fiber (0 outside a fiber or
    when none was set). *)

val set_current_req : t -> int64 -> unit
(** Set (or, with 0, clear) the current fiber's request context. No-op
    outside fiber context. *)

val next_req_id : t -> int64
(** Mint a fresh engine-unique request id (never 0). *)

val schedule_at : t -> int64 -> (unit -> unit) -> unit
(** Run a callback at an absolute virtual time (>= [now t]). *)

val spawn : ?name:string -> t -> (unit -> unit) -> fiber
(** Start a new fiber at the current virtual time. The [name] appears in
    failure and deadlock reports. *)

val run : t -> unit
(** Drain the event queue. Raises {!Fiber_failure} if any fiber raised and
    {!Deadlock} if blocked fibers remain with an empty queue. *)

val run_until : t -> int64 -> unit
(** Process events up to and including [deadline]; later events stay
    queued. Blocked fibers are not treated as a deadlock. *)

(** {1 Operations available inside a fiber} *)

val sleep : int64 -> unit
(** Suspend the calling fiber for a duration of virtual time.

    When the wake-up would be the very next event anyway, the clock
    advances in place and the fiber carries on without a trip through the
    queue. That is the case when the wake-up time is no later than the
    deadline of the {!run}/{!run_until} in progress, no event is due at
    the current instant, and every queued event is strictly later than
    the wake-up. Each queued event then runs after the wake-up either
    way, and nothing else could run in between, so the event order —
    (time, insertion sequence) — is the same as through the queue. The
    advance hook is called with the sleeper's fid, as for a queued
    wake-up. *)

val yield : unit -> unit
(** Reschedule the calling fiber behind events at the current instant. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] blocks the calling fiber; [register] receives a
    waker that, when invoked (exactly once), resumes the fiber at the
    waking moment. The building block of all synchronisation primitives. *)

val self_engine : unit -> t
(** The engine running the calling fiber: the engine of the innermost
    {!run}/{!run_until} in progress, read without performing an effect.
    Outside every run it performs an effect no handler catches, so it
    raises [Effect.Unhandled]. *)

val now_here : unit -> int64
(** [now] of the calling fiber's engine. *)

(** {1 Blocked-fiber diagnostics} *)

val wait : string -> string -> ((unit -> unit) -> unit) -> unit
(** [wait kind name register] is {!suspend}, with what the calling fiber
    waits on — [kind] "mutex", [name] "c-log" ("" for none) — kept on the
    fiber until it is woken. {!Deadlock} lists this for the engine's own
    blocked fibers; nothing is formatted on the blocking path. Called by
    the [Sync] and {!Resource} primitives. *)

val note_lock_wait : string -> int64 -> unit
(** Report a measured lock wait to the calling fiber's engine hook (no-op
    when no hook is installed or the wait was zero). Called by the [Sync]
    primitives. *)
