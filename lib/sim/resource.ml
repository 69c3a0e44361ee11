(** A k-server resource with FIFO admission: models CPU cores and device
    channels. A fiber [use]s the resource for a duration of virtual time;
    at most [capacity] fibers are inside at once, the rest queue. *)

type t = {
  name : string;
  capacity : int;
  mutable in_use : int;
  waiters : (unit -> unit) Queue.t;
  mutable busy_ns : int64; (* total occupied server-time, for utilisation *)
  mutable admissions : int;
}

let create ?(name = "resource") capacity =
  if capacity < 1 then invalid_arg "Resource.create";
  {
    name;
    capacity;
    in_use = 0;
    waiters = Queue.create ();
    busy_ns = 0L;
    admissions = 0;
  }

let acquire t =
  if t.in_use < t.capacity && Queue.is_empty t.waiters then
    t.in_use <- t.in_use + 1
  else begin
    Engine.wait "resource" t.name (fun w -> Queue.push w t.waiters)
  end;
  t.admissions <- t.admissions + 1

let release t =
  if t.in_use <= 0 then invalid_arg ("Resource.release: " ^ t.name);
  match Queue.take_opt t.waiters with
  | Some w -> w () (* handoff: in_use unchanged *)
  | None -> t.in_use <- t.in_use - 1

(** Hold an already-[acquire]d server for [dur] of virtual time, counting
    it as busy. Lets callers split the queueing wait from the service time
    (e.g. to attribute them to different profiler frames). *)
let busy_sleep t dur =
  Engine.sleep dur;
  t.busy_ns <- Int64.add t.busy_ns dur

(** Occupy one server for [dur] of virtual time. *)
let use t dur =
  acquire t;
  busy_sleep t dur;
  release t

let in_use t = t.in_use
let capacity t = t.capacity
let queued t = Queue.length t.waiters
let busy_ns t = t.busy_ns
let admissions t = t.admissions

let utilisation t ~elapsed =
  if Int64.compare elapsed 0L <= 0 then 0.
  else
    Int64.to_float t.busy_ns
    /. (Int64.to_float elapsed *. float_of_int t.capacity)
