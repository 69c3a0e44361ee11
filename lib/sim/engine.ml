(** Deterministic discrete-event engine with cooperative simulated threads.

    Threads ("fibers") are ordinary OCaml functions run under an effect
    handler. They block by performing the [Sleep] / [Suspend] effects; the
    engine resumes them from its virtual-time event queue. Because events
    run in (time, insertion sequence) order, a simulation with a fixed seed
    is fully deterministic and replayable — the property all of the
    benchmark results rely on.

    Three fast paths keep that order while skipping the queue: events due
    at the current instant go to a FIFO ready queue instead of the heap, a
    [sleep] that would be the very next event advances the clock in place,
    and the engine being run is held in [current] so fibers reach it
    without performing an effect. *)

exception Deadlock of string
exception Fiber_failure of string * exn

type fiber = {
  fid : int;
  name : string;
  mutable req : int64;
      (** request context: the causal request id the fiber is working on
          behalf of, inherited by fibers it spawns; 0 = none *)
  mutable wait_kind : string;
  mutable wait_name : string;
      (** what the fiber is suspended on — kind "mutex", name "c-log" —
          for {!Deadlock} reports; kind "" while it runs or waits
          anonymously. Formatted only when a report is raised. *)
  mutable prev : fiber;
  mutable next : fiber;
      (** neighbours in the engine's ring of live fibers *)
}

type t = {
  mutable now : int64;
  events : Heap.t;
      (** events after [now]; each carries the fid of the fiber it will
          resume (-1 for unowned callbacks), so a profiler can attribute
          the virtual time that elapses up to the event *)
  mutable ready : (unit -> unit) array;
      (** ring buffer (power-of-two size) of the events scheduled at [now],
          in scheduling order; free slots hold [ignore] *)
  mutable ready_head : int;
  mutable ready_len : int;
  mutable seq : int;
  mutable next_fid : int;
  live : fiber;
      (** sentinel of the ring of spawned fibers that have not yet
          returned or raised — what a {!Deadlock} report walks. Also the
          value of [running] when no fiber runs: its fid is -1, its
          request context stays 0. *)
  mutable running : fiber;
  mutable deadline : int64;
      (** last virtual instant the [run]/[run_until] in progress may
          reach *)
  mutable failure : (string * exn * Printexc.raw_backtrace) option;
  mutable on_advance : (int64 -> int -> unit) option;
      (** called with (delta, owner fid) just before [now] advances *)
  mutable on_lock_wait : (string -> int64 -> unit) option;
      (** called as [hook lock_name wait_ns] when a fiber resumes after
          blocking on a named synchronisation primitive *)
  mutable next_req : int64;
      (** request-id mint; ids are engine-unique and never reused *)
  mutable on_fiber_exit : (int -> unit) option;
      (** called with the fid of a fiber whose body returned normally,
          while the fiber is still current — used by [Trace] to detect
          spans begun but never ended *)
  mutable dispatched : int;  (** events run from the heap or ready queue *)
  mutable in_place : int;  (** sleeps that advanced the clock in place *)
  handler : (unit, unit) Effect.Deep.handler;
      (** the effect handler of every fiber body: a fiber runs only while
          it is [running], so one handler serves them all *)
}

type _ Effect.t +=
  | Sleep : int64 -> unit Effect.t
  | Suspend : string * string * ((unit -> unit) -> unit) -> unit Effect.t
  | Get_engine : t Effect.t
      (** performed by {!self_engine} only outside every run, where no
          handler catches it *)

(* The engine whose [run]/[run_until] is in progress (the innermost one
   when runs nest); [None] outside every run. *)
let current : t option ref = ref None

let now t = t.now
let events_dispatched t = t.dispatched
let in_place_advances t = t.in_place
let set_advance_hook t hook = t.on_advance <- hook
let set_lock_wait_hook t hook = t.on_lock_wait <- hook
let set_fiber_exit_hook t hook = t.on_fiber_exit <- hook

(** Request context of the currently running fiber (0 = none). New fibers
    inherit the spawner's context, so a request's identity follows the
    work across async hops — server handler to device completion fiber —
    without any call-site plumbing. *)
let current_req t = t.running.req

let set_current_req t r = if t.running != t.live then t.running.req <- r

(** Mint a fresh engine-unique request id (never 0). *)
let next_req_id t =
  t.next_req <- Int64.add t.next_req 1L;
  t.next_req

(* Fire the advance hook for a move of the clock to [time] on behalf of
   fiber [fid]. Zero-delta moves are skipped: only real time needs owners. *)
let note_advance t time fid =
  match t.on_advance with
  | Some hook when Int64.compare time t.now > 0 ->
      hook (Int64.sub time t.now) fid
  | _ -> ()

(** Fiber id of the currently running fiber, or -1 outside fiber context
    (used by the tracer to attribute events to threads). *)
let current_fid t = t.running.fid

let ready_push t f =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let a = Array.make (2 * cap) ignore in
    for i = 0 to cap - 1 do
      a.(i) <- t.ready.((t.ready_head + i) land (cap - 1))
    done;
    t.ready <- a;
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + t.ready_len) land (Array.length t.ready - 1)) <- f;
  t.ready_len <- t.ready_len + 1

let ready_pop t =
  let f = t.ready.(t.ready_head) in
  t.ready.(t.ready_head) <- ignore;
  t.ready_head <- (t.ready_head + 1) land (Array.length t.ready - 1);
  t.ready_len <- t.ready_len - 1;
  f

(* An event at [now] gets a later sequence number than every queued one,
   so it runs after all of them: the tail of the ready queue. *)
let schedule_owned t ~fid time f =
  match Int64.compare time t.now with
  | 0 -> ready_push t f
  | c when c > 0 ->
      t.seq <- t.seq + 1;
      Heap.push t.events ~time ~seq:t.seq ~owner:fid f
  | _ -> invalid_arg "Engine.schedule_at: time in the past"

let schedule_at t time f = schedule_owned t ~fid:(-1) time f

(* Resume [fiber]'s continuation [k] as the running fiber. *)
let resume t fiber k =
  let saved = t.running in
  t.running <- fiber;
  Effect.Deep.continue k ();
  t.running <- saved

(* A fiber leaves the live ring when its body returns or raises. *)
let exit_fiber fiber =
  fiber.prev.next <- fiber.next;
  fiber.next.prev <- fiber.prev

(* The three cases of [handler]. Each runs while the fiber it serves is
   still [running]. *)
let fiber_returned t =
  let fiber = t.running in
  (match t.on_fiber_exit with Some hook -> hook fiber.fid | None -> ());
  exit_fiber fiber

let fiber_raised t exn =
  let fiber = t.running in
  exit_fiber fiber;
  if t.failure = None then
    t.failure <- Some (fiber.name, exn, Printexc.get_raw_backtrace ())

let fiber_effect (type a) t (eff : a Effect.t) :
    ((a, unit) Effect.Deep.continuation -> unit) option =
  match eff with
  | Sleep d ->
      Some
        (fun k ->
          let fiber = t.running in
          schedule_owned t ~fid:fiber.fid (Int64.add t.now d) (fun () ->
              resume t fiber k))
  | Suspend (kind, name, register) ->
      Some
        (fun k ->
          let fiber = t.running in
          fiber.wait_kind <- kind;
          fiber.wait_name <- name;
          let fired = ref false in
          register (fun () ->
              if !fired then invalid_arg "Engine: waker invoked twice";
              fired := true;
              ready_push t (fun () ->
                  fiber.wait_kind <- "";
                  resume t fiber k)))
  | _ -> None

let create () =
  let rec live =
    {
      fid = -1;
      name = "";
      req = 0L;
      wait_kind = "";
      wait_name = "";
      prev = live;
      next = live;
    }
  in
  let rec t =
    {
      now = 0L;
      events = Heap.create ();
      ready = Array.make 16 ignore;
      ready_head = 0;
      ready_len = 0;
      seq = 0;
      next_fid = 0;
      live;
      running = live;
      deadline = Int64.max_int;
      failure = None;
      on_advance = None;
      on_lock_wait = None;
      next_req = 0L;
      on_fiber_exit = None;
      dispatched = 0;
      in_place = 0;
      handler =
        {
          retc = (fun () -> fiber_returned t);
          exnc = (fun exn -> fiber_raised t exn);
          effc = (fun eff -> fiber_effect t eff);
        };
    }
  in
  t

(* Run [f] as a fiber body under the engine's effect handler. *)
let start_fiber t fiber f =
  let saved = t.running in
  t.running <- fiber;
  (try Effect.Deep.match_with f () t.handler
   with exn ->
     t.running <- saved;
     raise exn);
  t.running <- saved

let spawn ?(name = "fiber") t f =
  let live = t.live in
  let fiber =
    {
      fid = t.next_fid;
      name;
      req = t.running.req;
      wait_kind = "";
      wait_name = "";
      prev = live.prev;
      next = live;
    }
  in
  live.prev.next <- fiber;
  live.prev <- fiber;
  t.next_fid <- t.next_fid + 1;
  ready_push t (fun () -> start_fiber t fiber f);
  fiber

let check_failure t =
  match t.failure with
  | Some (name, exn, bt) ->
      t.failure <- None;
      Printexc.raise_with_backtrace (Fiber_failure (name, exn)) bt
  | None -> ()

(* Run the next event due by [t.deadline]; false when there is none. A
   heap event due at [now] was scheduled before the clock reached [now],
   so it precedes every ready-queue entry (all scheduled at [now]). *)
let dispatch t =
  let ev = t.events in
  if
    t.ready_len > 0
    && Int64.compare t.now t.deadline <= 0
    && (Heap.is_empty ev || Int64.compare (Heap.peek ev).time t.now > 0)
  then begin
    (ready_pop t) ();
    true
  end
  else if
    (not (Heap.is_empty ev)) && Int64.compare (Heap.peek ev).time t.deadline <= 0
  then begin
    let e = Heap.pop ev in
    note_advance t e.time e.owner;
    t.now <- e.time;
    e.run ();
    true
  end
  else false

(* Dispatch events up to [deadline] with [t] as the current engine, then
   restore the enclosing run's engine and deadline, also on a raise. *)
let drain t deadline =
  let outer = !current and outer_deadline = t.deadline in
  current := Some t;
  t.deadline <- deadline;
  match
    while dispatch t do
      t.dispatched <- t.dispatched + 1;
      check_failure t
    done
  with
  | () ->
      current := outer;
      t.deadline <- outer_deadline
  | exception exn ->
      current := outer;
      t.deadline <- outer_deadline;
      raise exn

(** Run until the event queue drains. Raises [Fiber_failure] if any fiber
    raised, [Deadlock] if fibers remain blocked with no pending event. *)
let run t =
  drain t Int64.max_int;
  if t.live.next != t.live then begin
    let rec scan f n acc =
      if f == t.live then (n, acc)
      else if f.wait_kind = "" then scan f.next (n + 1) acc
      else
        let reason =
          if f.wait_name = "" then f.wait_kind
          else f.wait_kind ^ " " ^ f.wait_name
        in
        scan f.next (n + 1)
          (Printf.sprintf "%s#%d waiting on %s" f.name f.fid reason :: acc)
    in
    let n, reasons = scan t.live.next 0 [] in
    raise
      (Deadlock
         (Printf.sprintf "%d fiber(s) still blocked at t=%Ldns [%s]" n t.now
            (reasons |> List.sort compare |> String.concat "; ")))
  end

(** Run events up to and including virtual time [deadline]. Events after the
    deadline stay queued; blocked fibers are not a deadlock here. *)
let run_until t deadline =
  drain t deadline;
  if Int64.compare t.now deadline < 0 then begin
    note_advance t deadline (-1);
    t.now <- deadline
  end

(* ------------------------------------------------------------------ *)
(* Operations usable from inside a fiber.                              *)

let self_engine () =
  match !current with Some t -> t | None -> Effect.perform Get_engine

(* The sleeper's wake-up would be the very next event: nothing else is due
   at [now], the earliest heap event is strictly later, and the run may
   reach that instant. *)
let next_in_line t wake =
  t.ready_len = 0
  && Int64.compare wake t.deadline <= 0
  && (Heap.is_empty t.events || Int64.compare wake (Heap.peek t.events).time < 0)

let sleep d =
  if Int64.compare d 0L < 0 then invalid_arg "Engine.sleep: negative";
  if Int64.compare d 0L > 0 then
    match !current with
    | Some t when t.running != t.live ->
        let wake = Int64.add t.now d in
        if next_in_line t wake then begin
          note_advance t wake t.running.fid;
          t.now <- wake;
          t.in_place <- t.in_place + 1
        end
        else Effect.perform (Sleep d)
    | _ -> Effect.perform (Sleep d)

let yield () = Effect.perform (Sleep 0L)

(** [suspend register] blocks the current fiber. [register] receives a waker
    which, when invoked (exactly once), reschedules the fiber at the waking
    moment. *)
let suspend register = Effect.perform (Suspend ("", "", register))

(** [suspend], recording what the fiber waits on until it is woken so that
    a {!Deadlock} report can name it. *)
let wait kind name register =
  Effect.perform (Suspend (kind, name, register))

let now_here () = (self_engine ()).now

(** Report a measured lock wait to the engine's hook (a no-op when none is
    installed). Called by the [Sync] primitives from the waiting fiber,
    right after it resumes, so the hook can see the fiber's context. *)
let note_lock_wait name wait_ns =
  let t = self_engine () in
  match t.on_lock_wait with
  | Some hook when Int64.compare wait_ns 0L > 0 -> hook name wait_ns
  | _ -> ()
