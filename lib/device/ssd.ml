(** NVMe SSD model.

    The model reproduces the device-side phenomena the Bento evaluation
    depends on:

    - per-command latency = fixed base + size / bandwidth, so batching many
      contiguous blocks into one command ([writepages]) beats issuing one
      command per block ([writepage]);
    - internal parallelism: [channels] commands can be in flight at once,
      which is what lets 32-thread filebench runs outscore 1-thread runs;
    - a volatile write cache: writes complete fast but are not durable until
      a FLUSH, whose cost grows with the amount of unflushed data — the
      mechanism behind fsync-bound workloads (varmail, create/delete);
    - crash semantics: on [crash], unflushed writes are lost (optionally a
      random subset survives, modelling reordered internal writeback), which
      the journal/log recovery tests exercise.

    All timing is virtual; data is held in memory. *)

type config = {
  read_base : int64;  (** per-command read latency floor *)
  write_base : int64;  (** per-command write latency floor (cache hit) *)
  flush_base : int64;  (** FLUSH floor *)
  read_bw : float;  (** bytes/sec streaming read *)
  write_bw : float;  (** bytes/sec streaming write into cache *)
  flush_bw : float;  (** bytes/sec draining cache to flash on FLUSH *)
  channels : int;  (** parallel in-flight commands *)
  cache_blocks : int;  (** volatile cache capacity; exceeding it forces
                            background drain at flush_bw *)
}

(** Loosely calibrated to a Samsung PM981-class NVMe SSD (the paper's
    testbed device): ~80 us 4K random read, fast buffered writes, ~3.2/2.4
    GB/s streaming read/write, costly FLUSH. *)
let default_config =
  {
    read_base = 70_000L;
    write_base = 6_000L;
    flush_base = 15_000L;
    read_bw = 3.2e9;
    write_bw = 2.4e9;
    flush_bw = 1.2e9;
    channels = 8;
    cache_blocks = 4096;
  }

type cmd = Cmd_read | Cmd_write | Cmd_flush

type t = {
  engine : Sim.Engine.t;
  config : config;
  block_size : int;
  nblocks : int;
  stable : Bytes.t option array;  (** durable contents, [None] = zeroes *)
  zero : Bytes.t;
      (** the device's one all-zero block: every stored block that is all
          zeroes is this one, and so is a read of a block never written *)
  volatile : (int, Bytes.t) Hashtbl.t;  (** written, not yet flushed *)
  write_order : int Queue.t;
      (** volatile-cache insertion order (oldest first). May contain stale
          entries for blocks since flushed or evicted; consumers skip
          anything no longer in [volatile]. *)
  channels : Sim.Resource.t;
  flush_lock : Sim.Sync.Mutex.t;
  stats : Sim.Stats.t;
  tracer : Sim.Trace.t;
  profile : Sim.Profile.t;  (** owns the "device-queue"/"device-io" frames *)
  read_lat : Sim.Stats.Histogram.t;  (** command service incl. queueing *)
  write_lat : Sim.Stats.Histogram.t;
  read_cmds : Sim.Stats.Counter.t Lazy.t;
  blocks_read : Sim.Stats.Counter.t Lazy.t;
  write_cmds : Sim.Stats.Counter.t Lazy.t;
  blocks_written : Sim.Stats.Counter.t Lazy.t;
  flushes : Sim.Stats.Counter.t Lazy.t;
  flush_lat : Sim.Stats.Histogram.t Lazy.t;
  mutable failed : bool;  (** set by [crash]: all subsequent I/O fails *)
  mutable stable_epoch : int;  (** bumped whenever stable contents change *)
  mutable on_command : (cmd -> unit) option;
      (** crash-point enumeration hook, fired after each completed command *)
}

exception Out_of_range of int
exception Device_failed

let create ?(config = default_config) ?tracer ?profile ~nblocks ~block_size
    engine =
  if nblocks <= 0 || block_size <= 0 then invalid_arg "Ssd.create";
  let stats = Sim.Stats.create () in
  {
    engine;
    config;
    block_size;
    nblocks;
    stable = Array.make nblocks None;
    zero = Bytes.make block_size '\000';
    volatile = Hashtbl.create 1024;
    write_order = Queue.create ();
    channels = Sim.Resource.create ~name:"ssd-channels" config.channels;
    flush_lock = Sim.Sync.Mutex.create ~name:"ssd-flush" ();
    stats;
    tracer =
      (match tracer with Some tr -> tr | None -> Sim.Trace.create engine);
    profile =
      (match profile with Some p -> p | None -> Sim.Profile.create engine);
    read_lat = Sim.Stats.histogram stats "cmd_read_lat";
    write_lat = Sim.Stats.histogram stats "cmd_write_lat";
    read_cmds = Sim.Stats.lazy_counter stats "read_cmds";
    blocks_read = Sim.Stats.lazy_counter stats "blocks_read";
    write_cmds = Sim.Stats.lazy_counter stats "write_cmds";
    blocks_written = Sim.Stats.lazy_counter stats "blocks_written";
    flushes = Sim.Stats.lazy_counter stats "flushes";
    flush_lat = lazy (Sim.Stats.histogram stats "cmd_flush_lat");
    failed = false;
    stable_epoch = 0;
    on_command = None;
  }

let stable_epoch t = t.stable_epoch
let set_command_hook t hook = t.on_command <- hook

let notify t cmd =
  match t.on_command with None -> () | Some f -> f cmd

(* Everything stored in [stable] is replace-only (writers always install a
   fresh copy or the shared zero block), so a shallow copy of the array is a faithful snapshot of
   what an immediate power failure would leave behind. Callers must treat
   the payloads as read-only, as they must the blocks a read returns. *)
let crash_view t = Array.copy t.stable

let block_size t = t.block_size
let nblocks t = t.nblocks
let stats t = t.stats

let check t block =
  if t.failed then raise Device_failed;
  if block < 0 || block >= t.nblocks then raise (Out_of_range block)

let xfer_time ~base ~bw ~bytes =
  Int64.add base (Sim.Time.of_bandwidth ~bytes ~bytes_per_sec:bw)

(* Sample the in-flight + queued command count as a Perfetto counter
   track (no-op while tracing is disabled). *)
let sample_inflight t =
  Sim.Trace.counter t.tracer ~cat:"device" "ssd:inflight"
    (Int64.of_int (Sim.Resource.in_use t.channels + Sim.Resource.queued t.channels))

let sample_dirty t =
  Sim.Trace.counter t.tracer ~cat:"device" "ssd:dirty_blocks"
    (Int64.of_int (Hashtbl.length t.volatile))

(* One command's occupancy of a device channel, split into the queueing
   wait ("device-queue") and the transfer itself ("device-io") so the
   profiler can attribute them separately. *)
let channel_io t dur =
  Sim.Profile.with_frame t.profile "device-queue" (fun () ->
      Sim.Resource.acquire t.channels);
  sample_inflight t;
  Fun.protect
    ~finally:(fun () ->
      Sim.Resource.release t.channels;
      sample_inflight t)
    (fun () ->
      Sim.Profile.with_frame t.profile "device-io" (fun () ->
          Sim.Resource.busy_sleep t.channels dur))

(* The stored durable-or-volatile contents of [block], shared rather than
   copied: every stored block is immutable (writers install a fresh copy
   or the shared zero block), so a read can hand it out as a read-only
   view. A block never written
   reads as the shared zero block. *)
let stored t block =
  match Hashtbl.find_opt t.volatile block with
  | Some b -> b
  | None -> ( match t.stable.(block) with Some b -> b | None -> t.zero)

(* The immutable block the device stores for a caller's payload: the
   shared zero block when the payload is all zeroes (mkfs zeroes whole
   inode tables and logs), a private copy otherwise. [Bytes.equal] is a
   memcmp that stops at the first nonzero byte, cheaper than the copy it
   saves. *)
let own t data = if Bytes.equal data t.zero then t.zero else Bytes.copy data

(* One read command covering [count] consecutive blocks (fiber-blocking). *)
let read_cmd t ~start ~count =
  check t start;
  check t (start + count - 1);
  Sim.Stats.bump t.read_cmds;
  Sim.Stats.bump ~by:count t.blocks_read;
  let bytes = count * t.block_size in
  let dur = xfer_time ~base:t.config.read_base ~bw:t.config.read_bw ~bytes in
  Sim.Trace.span_begin t.tracer ~cat:"device" "ssd:read";
  let t0 = Sim.Engine.now t.engine in
  channel_io t dur;
  Sim.Stats.Histogram.record t.read_lat
    (Int64.sub (Sim.Engine.now t.engine) t0);
  Sim.Trace.span_end t.tracer ~cat:"device" "ssd:read";
  if t.failed then raise Device_failed;
  let result = Array.init count (fun i -> stored t (start + i)) in
  notify t Cmd_read;
  result

(* Record block contents in the volatile cache (timing handled by caller).
   A block keeps its original queue position across rewrites, so eviction
   order is strict FIFO on first insertion. *)
let store_volatile t block data =
  if Bytes.length data <> t.block_size then
    invalid_arg "Ssd.write: bad block size";
  if not (Hashtbl.mem t.volatile block) then Queue.push block t.write_order;
  Hashtbl.replace t.volatile block (own t data)

(* If the volatile cache overflows, the device stalls the command while it
   drains the overflow to flash at flush bandwidth. Victims leave in FIFO
   insertion order — the oldest cached blocks become durable first, the way
   a real device's internal writeback empties its ring. *)
let drain_overflow t =
  let excess = Hashtbl.length t.volatile - t.config.cache_blocks in
  if excess > 0 then begin
    let bytes = excess * t.block_size in
    let dur =
      Sim.Time.of_bandwidth ~bytes ~bytes_per_sec:t.config.flush_bw
    in
    Sim.Profile.with_frame t.profile "device-io" (fun () ->
        Sim.Engine.sleep dur);
    let moved = ref 0 in
    while !moved < excess && not (Queue.is_empty t.write_order) do
      let blk = Queue.pop t.write_order in
      (* Skip stale queue entries (block flushed or evicted since). *)
      match Hashtbl.find_opt t.volatile blk with
      | None -> ()
      | Some data ->
          t.stable.(blk) <- Some data;
          Hashtbl.remove t.volatile blk;
          incr moved
    done;
    if !moved > 0 then t.stable_epoch <- t.stable_epoch + 1
  end

(* One write command covering consecutive blocks (fiber-blocking). *)
let write_cmd t ~start bufs =
  let count = Array.length bufs in
  check t start;
  check t (start + count - 1);
  Sim.Stats.bump t.write_cmds;
  Sim.Stats.bump ~by:count t.blocks_written;
  let bytes = count * t.block_size in
  let dur = xfer_time ~base:t.config.write_base ~bw:t.config.write_bw ~bytes in
  Sim.Trace.span_begin t.tracer ~cat:"device" "ssd:write";
  let t0 = Sim.Engine.now t.engine in
  channel_io t dur;
  Sim.Stats.Histogram.record t.write_lat
    (Int64.sub (Sim.Engine.now t.engine) t0);
  Sim.Trace.span_end t.tracer ~cat:"device" "ssd:write";
  if t.failed then raise Device_failed;
  Array.iteri (fun i data -> store_volatile t (start + i) data) bufs;
  drain_overflow t;
  sample_dirty t;
  notify t Cmd_write

(* ------------------------------------------------------------------ *)
(* Asynchronous submission: each submitted command runs on a short-lived
   device fiber, so the submitter keeps going (and can keep all
   [config.channels] busy) while commands queue, transfer and complete.
   The completion carries either the command's result or its exception,
   re-raised at [await] — a fire-and-forget submitter (readahead) simply
   never observes a late failure.

   Each async hop is bracketed by tracer flow edges: submitter -> device
   fiber at submit, device fiber -> awaiter at completion. The device
   fiber inherits the submitter's request context at spawn, so every
   event it emits carries the right reqid, and the flow edges are what
   let [Trace.Causal] stitch the request back into one connected DAG. *)

type completion = {
  c_ivar : (Bytes.t array, exn) result Sim.Sync.Ivar.t;
  c_tracer : Sim.Trace.t;
  mutable c_flow : int64;
      (** flow edge opened by the device fiber when it fills the ivar,
          closed by the awaiter; 0 until completion (or while tracing is
          off) *)
}

let submit t ~name run =
  let c = { c_ivar = Sim.Sync.Ivar.create (); c_tracer = t.tracer; c_flow = 0L } in
  let submit_edge = Sim.Trace.flow_begin t.tracer ~cat:"device" name in
  ignore
    (Sim.Engine.spawn ~name t.engine (fun () ->
         Sim.Trace.flow_end t.tracer ~cat:"device" name submit_edge;
         let r = match run () with v -> Ok v | exception e -> Error e in
         c.c_flow <- Sim.Trace.flow_begin t.tracer ~cat:"device" (name ^ ":done");
         Sim.Sync.Ivar.fill c.c_ivar r));
  c

let submit_read t ~start ~count =
  if count <= 0 then invalid_arg "Ssd.submit_read: empty";
  check t start;
  check t (start + count - 1);
  submit t ~name:"ssd-read" (fun () -> read_cmd t ~start ~count)

let submit_write t ~start bufs =
  let count = Array.length bufs in
  if count = 0 then invalid_arg "Ssd.write_contig: empty";
  check t start;
  check t (start + count - 1);
  submit t ~name:"ssd-write" (fun () ->
      write_cmd t ~start bufs;
      [||])

let await c =
  let r = Sim.Sync.Ivar.read c.c_ivar in
  Sim.Trace.flow_end c.c_tracer ~cat:"device" "ssd:done" c.c_flow;
  match r with Ok v -> v | Error e -> raise e

let is_complete c = Sim.Sync.Ivar.is_full c.c_ivar

(** Read [count] contiguous blocks as one device command. *)
let read_contig t ~start ~count = await (submit_read t ~start ~count)

let read t block =
  match read_contig t ~start:block ~count:1 with
  | [| b |] -> b
  | _ -> assert false

(** Write [count] contiguous blocks as one device command. *)
let write_contig t ~start bufs =
  ignore (await (submit_write t ~start bufs))

let write t block data = write_contig t ~start:block [| data |]

(** Durability barrier: drain the volatile cache to flash. Cost grows with
    the amount of dirty data — this is what makes frequent small fsyncs so
    expensive for the FUSE baseline. *)
let flush t =
  if t.failed then raise Device_failed;
  Sim.Trace.with_span t.tracer ~cat:"device" "ssd:flush" (fun () ->
      (* Lock contention counts as queueing; the drain itself as I/O. *)
      Sim.Profile.with_frame t.profile "device-queue" (fun () ->
          Sim.Sync.Mutex.with_lock t.flush_lock (fun () ->
              Sim.Stats.bump t.flushes;
              let dirty = Hashtbl.length t.volatile in
              let bytes = dirty * t.block_size in
              let dur =
                Int64.add t.config.flush_base
                  (Sim.Time.of_bandwidth ~bytes
                     ~bytes_per_sec:t.config.flush_bw)
              in
              Sim.Profile.with_frame t.profile "device-io" (fun () ->
                  Sim.Engine.sleep dur);
              Sim.Stats.Histogram.record (Lazy.force t.flush_lat) dur;
              if t.failed then raise Device_failed;
              if Hashtbl.length t.volatile > 0 then begin
                Hashtbl.iter
                  (fun blk data -> t.stable.(blk) <- Some data)
                  t.volatile;
                t.stable_epoch <- t.stable_epoch + 1
              end;
              Hashtbl.reset t.volatile;
              Queue.clear t.write_order;
              sample_dirty t)));
  notify t Cmd_flush

let dirty_blocks t = Hashtbl.length t.volatile

(* A caller that mutates a read view of a never-written or all-zero block
   would corrupt every such block on the device at once; this catches it. *)
let check_invariants t =
  if not (Bytes.for_all (fun c -> c = '\000') t.zero) then
    failwith "Ssd.check_invariants: the shared zero block was mutated"

(* Sorted for determinism; payloads are replace-only, hence safely shared. *)
let volatile_view t =
  Hashtbl.fold (fun blk data acc -> (blk, data) :: acc) t.volatile []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Simulate power loss. Unflushed writes are dropped, except that each
    volatile block independently survives with probability [survive] (the
    device may have started writing it back on its own) — this models
    arbitrary write reordering for crash-recovery tests. Afterwards the
    device keeps working on the surviving state. *)
let crash ?(survive = 0.0) ?rng t =
  let survivors = ref 0 in
  let keep blk data =
    let lucky =
      match rng with
      | Some r -> Sim.Rng.float r < survive
      | None -> false
    in
    if lucky then begin
      t.stable.(blk) <- Some data;
      incr survivors
    end
  in
  Hashtbl.iter keep t.volatile;
  Hashtbl.reset t.volatile;
  Queue.clear t.write_order;
  if !survivors > 0 then t.stable_epoch <- t.stable_epoch + 1

(** Mark the device failed: every subsequent command raises
    [Device_failed]. Used for fault-injection tests. *)
let fail t = t.failed <- true

(* Direct, non-timed access for mkfs/fsck-style offline tools and tests. *)
module Offline = struct
  let read t block =
    check t block;
    Bytes.copy (stored t block)

  let write t block data =
    check t block;
    if Bytes.length data <> t.block_size then invalid_arg "Offline.write";
    t.stable.(block) <- Some (own t data);
    t.stable_epoch <- t.stable_epoch + 1;
    Hashtbl.remove t.volatile block

  let stable_read t block =
    check t block;
    Bytes.copy (match t.stable.(block) with Some b -> b | None -> t.zero)
end
