(** NVMe SSD model: multi-channel command service, a volatile write cache
    with FLUSH, streaming bandwidth, and crash semantics.

    All timing is virtual (the calling fiber sleeps); data is in memory.
    The phenomena the Bento evaluation depends on are modelled explicitly:
    per-command latency floors (batching wins), channel parallelism
    (threads win), flush cost growing with dirty data (fsync-bound
    workloads), and loss of unflushed writes on power failure (crash
    recovery testing, including partial survival).

    {b Block ownership.} A stored block is immutable: a write copies the
    caller's payload into a fresh block when the command completes, and
    later writes replace that block rather than change it. Reads, FLUSH,
    cache drains and crashes move these blocks by reference. A read
    therefore returns the stored block itself, a read-only view that no
    later write, flush or crash of the same block changes; callers must
    never mutate it, and copy it where they need a private buffer (the
    buffer caches blit it into their own payloads). {!Offline.read} and
    {!Offline.stable_read} still return private copies.

    Every all-zero block is one block: the device keeps a single shared
    zero block and stores it, not a copy, whenever a written payload is
    all zeroes, and a read of a block never written returns it too. An
    ext4 mkfs thus stores one zero block instead of some 32,000. A caller
    that mutated a read view would now corrupt every zero block at once;
    {!check_invariants} detects that. The one copy that remains on the
    device side is the one per written nonzero block at command
    completion. *)

type config = {
  read_base : int64;  (** per-command read latency floor (ns) *)
  write_base : int64;  (** per-command write latency floor (cache hit) *)
  flush_base : int64;  (** FLUSH floor *)
  read_bw : float;  (** bytes/sec streaming read *)
  write_bw : float;  (** bytes/sec streaming write into the cache *)
  flush_bw : float;  (** bytes/sec draining the cache on FLUSH *)
  channels : int;  (** parallel in-flight commands *)
  cache_blocks : int;  (** volatile cache capacity before forced drain *)
}

val default_config : config
(** Loosely calibrated to the paper's Samsung PM981-class device; see
    EXPERIMENTS.md for the calibration discussion. *)

type t

type cmd = Cmd_read | Cmd_write | Cmd_flush
(** Device command classes, as reported to the {!set_command_hook}. *)

exception Out_of_range of int
exception Device_failed

val create :
  ?config:config ->
  ?tracer:Sim.Trace.t ->
  ?profile:Sim.Profile.t ->
  nblocks:int ->
  block_size:int ->
  Sim.Engine.t ->
  t
(** [tracer] (e.g. the machine's) receives per-command spans; without one
    the device keeps a private disabled tracer. [profile] (e.g. the
    machine's) receives "device-queue"/"device-io" attribution frames;
    without one the device keeps a private disabled profiler. Command
    service latencies (queueing included) land in the [cmd_read_lat] /
    [cmd_write_lat] / [cmd_flush_lat] histograms of [stats]. *)

val block_size : t -> int
val nblocks : t -> int
val stats : t -> Sim.Stats.t

type completion
(** Handle for an in-flight submitted command. *)

val submit_read : t -> start:int -> count:int -> completion
(** Issue one read command covering [count] consecutive blocks without
    blocking the calling fiber: the command queues for a channel, transfers
    and completes on its own device fiber. Range errors raise immediately
    at submission; service-time errors ({!Device_failed}) surface at
    {!await}. *)

val submit_write : t -> start:int -> Bytes.t array -> completion
(** Issue one write command covering consecutive blocks without blocking.
    The payload is copied at command completion, not submission — callers
    must not mutate the buffers until the command completes. *)

val await : completion -> Bytes.t array
(** Block until the command completes; returns the blocks read (read-only
    views; [[||]] for writes) or re-raises the command's failure. May be
    called any number of times (idempotent once complete). *)

val is_complete : completion -> bool

val read_contig : t -> start:int -> count:int -> Bytes.t array
(** One device command covering [count] consecutive blocks. Blocks the
    calling fiber for the command's service time (sugar for
    {!submit_read} + {!await}). *)

val read : t -> int -> Bytes.t
(** One single-block read command; the result is a read-only view. *)

val write_contig : t -> start:int -> Bytes.t array -> unit
(** One command writing consecutive blocks into the volatile cache
    (sugar for {!submit_write} + {!await}). *)

val write : t -> int -> Bytes.t -> unit

val flush : t -> unit
(** Durability barrier: drain the volatile cache to stable media. Cost =
    [flush_base] + dirty bytes / [flush_bw]. *)

val dirty_blocks : t -> int

val check_invariants : t -> unit
(** Raise [Failure] if the shared zero block is no longer all zeroes —
    the sign that some caller mutated a read-only view. *)

val crash_view : t -> Bytes.t option array
(** Snapshot of what an immediate power failure would leave behind: the
    stable contents only ([None] = zeroes), excluding the volatile cache.
    Shallow — treat the payload [Bytes.t] values as read-only. Stable
    payloads are replace-only internally, so the snapshot stays faithful
    even as the device keeps running. *)

val volatile_view : t -> (int * Bytes.t) list
(** The unflushed write cache as sorted (block, contents) pairs — the
    blocks at stake in a crash right now. Shallow like {!crash_view}. *)

val stable_epoch : t -> int
(** Monotonic counter bumped whenever stable contents change (flush, cache
    overflow drain, crash survivors, offline writes). Two equal epochs ⇒
    identical {!crash_view}; the crash checker uses it to deduplicate
    crash points. *)

val set_command_hook : t -> (cmd -> unit) option -> unit
(** Install a callback fired after every completed device command, on the
    fiber that serviced it (the per-command device fiber for reads and
    writes, the caller for flushes). The crash-point enumerator uses this
    to snapshot device state at every command boundary — with concurrent
    submissions the boundaries fall {e inside} partially-completed
    batches. The callback must not issue device commands. *)

val crash : ?survive:float -> ?rng:Sim.Rng.t -> t -> unit
(** Power failure: unflushed writes are dropped, except that each block
    independently survives with probability [survive] (models internal
    writeback reordering). The device keeps serving afterwards. *)

val fail : t -> unit
(** Hard failure: every subsequent command raises {!Device_failed}. *)

(** Non-timed access for offline tools (mkfs inspection, fsck, tests). *)
module Offline : sig
  val read : t -> int -> Bytes.t
  (** Current contents: volatile cache if present, else stable. A private
      copy. *)

  val write : t -> int -> Bytes.t -> unit
  (** Write straight to stable storage (image surgery in tests). *)

  val stable_read : t -> int -> Bytes.t
  (** Only what would survive a crash right now. A private copy. *)
end
