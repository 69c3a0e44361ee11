(** The /dev/fuse pipe: encoded requests flow from the kernel driver to the
    userspace daemon, replies flow back, correlated by unique id.

    Each direction charges the crossing cost and a copy of the payload at
    the FUSE copy bandwidth — the per-request overhead FUSE pays that an
    in-kernel file system does not (§2.2, §7.1). *)

type t = {
  machine : Kernel.Machine.t;
  requests : Bytes.t Sim.Sync.Channel.t;
  pending : (int, Bytes.t Sim.Sync.Ivar.t) Hashtbl.t;
  mutable next_unique : int;
  mutable closed : bool;
  stats : Sim.Stats.t;
  tracer : Sim.Trace.t;
  rtt : Sim.Stats.Histogram.t;  (** kernel-side round-trip per request *)
  crossings : Sim.Stats.Counter.t;
      (** machine-wide user/kernel crossing count, one per direction —
          the paper's explanatory metric for FUSE overhead *)
  n_requests : Sim.Stats.Counter.t Lazy.t;
  n_replies : Sim.Stats.Counter.t Lazy.t;
}

exception Connection_closed

let create machine =
  let stats = Sim.Stats.create () in
  (* Expose requests/replies in machine-wide counter snapshots. *)
  Kernel.Machine.register_stats machine ~prefix:"fuse" stats;
  {
    machine;
    requests = Sim.Sync.Channel.create ();
    pending = Hashtbl.create 64;
    next_unique = 1;
    closed = false;
    stats;
    tracer = Kernel.Machine.tracer machine;
    rtt = Kernel.Machine.histogram machine "fuse_rtt";
    crossings = Kernel.Machine.counter machine "fuse_crossings";
    n_requests = Sim.Stats.lazy_counter stats "requests";
    n_replies = Sim.Stats.lazy_counter stats "replies";
  }

let machine t = t.machine
let stats t = t.stats

let fresh_unique t =
  let u = t.next_unique in
  t.next_unique <- t.next_unique + 1;
  u

let charge_crossing t nbytes =
  let c = Kernel.Machine.cost t.machine in
  Kernel.Machine.cpu_work t.machine
    (Int64.add c.Kernel.Cost.fuse_request
       (Kernel.Cost.copy_time ~bw:c.Kernel.Cost.fuse_copy_bw nbytes))

(** Kernel side: send a request and block until the daemon replies. *)
let call t (req : Proto.request) : Proto.reply =
  if t.closed then raise Connection_closed;
  let unique = fresh_unique t in
  let msg = Proto.encode_request ~unique req in
  Sim.Stats.bump t.n_requests;
  Sim.Stats.Counter.incr t.crossings;
  (* The crossing charge runs under the "fuse-transport" frame; the wait
     for the reply is attributed to whatever the daemon is doing. *)
  Kernel.Machine.with_layer t.machine "fuse-transport" @@ fun () ->
  Sim.Trace.span_begin t.tracer ~cat:"fuse" "fuse:call";
  let t0 = Kernel.Machine.now t.machine in
  charge_crossing t (Bytes.length msg);
  let ivar = Sim.Sync.Ivar.create () in
  Hashtbl.replace t.pending unique ivar;
  Sim.Sync.Channel.send t.requests msg;
  let reply_bytes = Sim.Sync.Ivar.read ivar in
  Hashtbl.remove t.pending unique;
  Sim.Stats.Histogram.record t.rtt
    (Int64.sub (Kernel.Machine.now t.machine) t0);
  Sim.Trace.span_end t.tracer ~cat:"fuse" "fuse:call";
  let unique', reply = Proto.decode_reply reply_bytes in
  if unique' <> unique then raise (Proto.Malformed "unique mismatch");
  reply

(** Daemon side: block for the next request. Returns [None] once the
    connection is closed and drained. *)
let next t : Bytes.t option =
  match Sim.Sync.Channel.recv t.requests with
  | msg -> Some msg
  | exception Sim.Sync.Channel.Closed -> None

(** Daemon side: reply to a request by unique id. *)
let reply t ~unique (r : Proto.reply) =
  let msg = Proto.encode_reply ~unique r in
  Sim.Stats.bump t.n_replies;
  Sim.Stats.Counter.incr t.crossings;
  Kernel.Machine.with_layer t.machine "fuse-transport" (fun () ->
      charge_crossing t (Bytes.length msg));
  match Hashtbl.find_opt t.pending unique with
  | Some ivar -> Sim.Sync.Ivar.fill ivar msg
  | None -> () (* request was abandoned *)

let close t =
  t.closed <- true;
  Sim.Sync.Channel.close t.requests
