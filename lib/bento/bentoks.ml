(** BentoKS — the kernel services API (§4.5–§4.7).

    A Bento file system never touches kernel objects directly: it receives a
    [KSERVICES] module whose values are *capabilities*. The module types are
    abstract, so file-system code cannot forge a superblock or a buffer, and
    the buffer wrapper enforces the borrow discipline at runtime (in Rust
    the compiler proves it; here violating it raises, and the test suite's
    fault-injection checks exercise exactly the bug classes of Table 1:
    use-after-free, double free, leaks).

    Two implementations exist: [kernel_services] below wraps the kernel
    buffer cache and device barrier (the in-kernel Bento runtime), and
    [Bento_user] provides the same signature over user-level I/O for the
    §4.9 userspace debugging runtime. *)

exception Use_after_release of string
exception Double_release of string

(** The services signature a Bento file system is compiled against. *)
module type KSERVICES = sig
  (** An exclusively-held disk block (the BufferHead capability). Obtained
      from [bread]/[getblk]; must be released exactly once. *)
  module Buffer : sig
    type t

    val block : t -> int

    val data : t -> Bytes.t
    (** Borrow the 4 KB contents. Raises [Use_after_release] if the buffer
        was released — the runtime analogue of Rust's borrow check. *)

    val mark_dirty : t -> unit
    (** The owner (typically the log) will write this block later. *)
  end

  val bread : int -> Buffer.t
  (** Read block into the cache and return it locked ([sb_bread]). *)

  val getblk : int -> Buffer.t
  (** Locked buffer without reading the device (will be overwritten). *)

  val bread_multi : int list -> Buffer.t list
  (** Batched [bread] of distinct blocks, returned in input order. The
      kernel runtime merges the cache misses into contiguous device
      commands read concurrently across channels (the bio read path);
      the single-threaded userspace runtime reads them one at a time. *)

  val bwrite : Buffer.t -> unit
  (** Write through to the device's volatile cache. *)

  val bwrite_seq : Buffer.t list -> unit
  (** Write several buffers, batching contiguous block runs into single
      device commands. *)

  val bwrite_all : Buffer.t list -> unit
  (** Write a set of buffers with maximum parallelism: contiguous runs are
      batched into single commands and distinct runs are submitted
      concurrently across the device's channels, then all completions are
      awaited (the kernel block layer's async submit path). *)

  (** The block layer's plug/unplug protocol over held buffers, for
      callers that accumulate scattered writes incrementally instead of
      in one list. [add] stages, [unplug] dispatches what is staged
      (merged into contiguous commands, concurrent across device
      channels in the kernel runtime; the single-threaded userspace
      runtime defers to [wait]), [wait] is the completion barrier. *)
  module Bio : sig
    type plug

    val plug : unit -> plug

    val add : plug -> Buffer.t -> unit
    (** Stage a held buffer for writeback. The buffer must stay held and
        unmutated until [wait] returns. *)

    val unplug : plug -> unit
    (** Dispatch everything staged so far without waiting. *)

    val wait : plug -> unit
    (** Implicit [unplug], then block until every staged write has
        completed; clears the staged buffers' dirty bits. *)
  end

  val brelse : Buffer.t -> unit
  (** Unlock and drop the reference. Raises [Double_release] on misuse. *)

  val raw_write_scatter : (int * Bytes.t) list -> unit
  (** Install committed (block, data) images straight to the device,
      bypassing the cached buffers — which may already hold newer,
      uncommitted contents that must not be overwritten or flushed home
      early. The kernel runtime merges adjacent blocks into contiguous
      commands dispatched concurrently across the device's channels; the
      userspace runtime writes them one pwrite(2) at a time. Duplicate
      blocks must not appear. *)

  val pin : Buffer.t -> unit
  (** Raise the underlying cache reference so the block cannot be evicted
      (xv6 [bpin]; the log pins modified blocks until they are installed). *)

  val unpin : Buffer.t -> unit
  (** Drop a pin reference ([bunpin]). *)

  val with_bread : int -> (Buffer.t -> 'a) -> 'a
  (** Scoped read: releases on all paths (the Rust [Drop] idiom). *)

  val with_getblk : int -> (Buffer.t -> 'a) -> 'a

  val flush : unit -> unit
  (** Durability barrier: volatile device cache to stable media. *)

  val block_size : int
  val nblocks : int

  val cpu : int64 -> unit
  (** Account CPU work (directory scans, checksums, ...). *)

  val costs : Kernel.Cost.t
  (** The machine's calibration constants, for fs-side CPU accounting. *)

  val now : unit -> int64

  (** Kernel sleeping locks (semaphores) for fs-internal synchronisation. *)
  module Kmutex : sig
    type t

    val create : ?name:string -> unit -> t
    val lock : t -> unit
    val unlock : t -> unit
    val with_lock : t -> (unit -> 'a) -> 'a
  end

  module Kcondvar : sig
    type t

    val create : unit -> t
    val wait : t -> Kmutex.t -> unit
    val signal : t -> unit
    val broadcast : t -> unit
  end

  val counter : string -> unit -> unit
  (** Counters for fs-side statistics: [counter name] looks the machine
      counter up once and returns its increment. *)

  val counter_add : string -> int -> unit
  (** Add to a machine counter by name (e.g. journal commit block counts). *)

  val profile : string -> (unit -> 'a) -> 'a
  (** Run under a machine profiler layer frame ("log", "fs", ...); just
      the call while profiling is disabled. Lets functor-packaged fs code
      participate in per-layer attribution in both runtimes. *)

  val trace_counter : string -> int -> unit
  (** Sample a counter time-series on the machine tracer (e.g. log free
      space) for Perfetto counter tracks. *)

  val register_inspector : string -> (unit -> (string * int) list) -> unit
  (** Expose live fs-internal state (log free blocks, outstanding ops,
      ...) under a name in the machine's inspect dump
      ([bento_cli inspect]). The probe runs only when a dump is taken. *)

  val printk : string -> unit
  (** Kernel log line (dmesg), tagged with the machine's virtual time. *)

  val pushdown : Kernel.Pushdown.t
  (** The machine's pushdown registry ({!Kernel.Pushdown}): where clients
      register validated programs and the fs invokes filter pushdowns. *)
end

(** Build the in-kernel services over a machine's buffer cache. The
    returned module closes over the kernel objects — holding the module is
    the capability. [nblocks_cap] caps the device size the file system
    sees, reserving the tail (e.g. for a {!Kernel.Cas} region) — the fs
    never allocates past it. *)
let kernel_services ?nblocks_cap (machine : Kernel.Machine.t)
    (bc : Kernel.Bcache.t) : (module KSERVICES) =
  let stats = Kernel.Machine.stats machine in
  (* Fs → kernel crossing counters, cached so the hot buffer path pays one
     increment rather than a hash lookup per call. *)
  let ks_bread = Kernel.Machine.counter machine "bentoks_bread" in
  let ks_getblk = Kernel.Machine.counter machine "bentoks_getblk" in
  let ks_bwrite = Kernel.Machine.counter machine "bentoks_bwrite" in
  (module struct
    module Buffer = struct
      type t = { bh : Kernel.Bcache.buf; mutable released : bool }

      let block b = b.bh.Kernel.Bcache.block

      let data b =
        if b.released then
          raise (Use_after_release (Printf.sprintf "block %d" (block b)));
        b.bh.Kernel.Bcache.data

      let mark_dirty b =
        if b.released then
          raise (Use_after_release (Printf.sprintf "block %d" (block b)));
        Kernel.Bcache.mark_dirty b.bh
    end

    let bread n =
      Sim.Stats.Counter.incr ks_bread;
      { Buffer.bh = Kernel.Bcache.bread bc n; released = false }

    let getblk n =
      Sim.Stats.Counter.incr ks_getblk;
      { Buffer.bh = Kernel.Bcache.getblk bc n; released = false }

    let bread_multi blocks =
      Sim.Stats.Counter.incr ~by:(List.length blocks) ks_bread;
      List.map
        (fun bh -> { Buffer.bh; released = false })
        (Kernel.Bcache.bread_scatter bc blocks)

    let bwrite (b : Buffer.t) =
      if b.Buffer.released then
        raise (Use_after_release (Printf.sprintf "block %d" (Buffer.block b)));
      Sim.Stats.Counter.incr ks_bwrite;
      Kernel.Bcache.bwrite bc b.Buffer.bh

    let check_live ctx bs =
      List.iter
        (fun (b : Buffer.t) ->
          if b.Buffer.released then raise (Use_after_release ctx))
        bs

    (* Group consecutive block runs into contiguous device commands
       (the bio merge step). *)
    let runs_of bs =
      List.map snd (Kernel.Bio.runs (List.map (fun b -> (Buffer.block b, b)) bs))

    let bwrite_seq bs =
      check_live "bwrite_seq" bs;
      Sim.Stats.Counter.incr ks_bwrite;
      List.iter
        (fun run ->
          Kernel.Bcache.bwrite_contig bc (List.map (fun b -> b.Buffer.bh) run))
        (runs_of bs)

    let bwrite_all bs =
      check_live "bwrite_all" bs;
      Sim.Stats.Counter.incr ks_bwrite;
      Kernel.Bcache.bwrite_scatter bc (List.map (fun b -> b.Buffer.bh) bs)

    module Bio = struct
      type plug = { kp : Kernel.Bio.t; mutable staged : Buffer.t list }

      let plug () =
        { kp = Kernel.Bio.plug (Kernel.Machine.disk machine); staged = [] }

      let add p (b : Buffer.t) =
        if b.Buffer.released then raise (Use_after_release "Bio.add");
        p.staged <- b :: p.staged;
        Kernel.Bio.add p.kp ~block:(Buffer.block b)
          b.Buffer.bh.Kernel.Bcache.data

      let unplug p = Kernel.Bio.unplug p.kp

      let wait p =
        Sim.Stats.Counter.incr ks_bwrite;
        let cmds = Kernel.Bio.wait p.kp in
        List.iter
          (fun (b : Buffer.t) -> b.Buffer.bh.Kernel.Bcache.dirty <- false)
          p.staged;
        p.staged <- [];
        Sim.Stats.Counter.incr ~by:cmds
          (Sim.Stats.counter (Kernel.Bcache.stats bc) "disk_writes")
    end

    let brelse (b : Buffer.t) =
      if b.Buffer.released then
        raise (Double_release (Printf.sprintf "block %d" (Buffer.block b)));
      b.Buffer.released <- true;
      Kernel.Bcache.brelse bc b.Buffer.bh

    let raw_write_scatter pairs = Kernel.Bcache.raw_write_scatter bc pairs

    let pin (b : Buffer.t) =
      if b.Buffer.released then raise (Use_after_release "pin");
      Kernel.Bcache.bpin bc b.Buffer.bh

    let unpin (b : Buffer.t) =
      if b.Buffer.released then raise (Use_after_release "unpin");
      Kernel.Bcache.bunpin bc b.Buffer.bh

    let with_bread n f =
      let b = bread n in
      match f b with
      | v ->
          brelse b;
          v
      | exception exn ->
          brelse b;
          raise exn

    let with_getblk n f =
      let b = getblk n in
      match f b with
      | v ->
          brelse b;
          v
      | exception exn ->
          brelse b;
          raise exn

    let flush () = Kernel.Bcache.flush bc
    let block_size = Kernel.Bcache.block_size bc
    let nblocks =
      let total = Device.Ssd.nblocks (Kernel.Machine.disk machine) in
      match nblocks_cap with Some n -> min n total | None -> total
    let cpu ns = Kernel.Machine.cpu_work machine ns
    let costs = Kernel.Machine.cost machine
    let now () = Kernel.Machine.now machine

    module Kmutex = struct
      type t = Sim.Sync.Mutex.t

      let create ?name () = Sim.Sync.Mutex.create ?name ()
      let lock = Sim.Sync.Mutex.lock
      let unlock = Sim.Sync.Mutex.unlock
      let with_lock = Sim.Sync.Mutex.with_lock
    end

    module Kcondvar = struct
      type t = Sim.Sync.Condvar.t

      let create () = Sim.Sync.Condvar.create ()
      let wait = Sim.Sync.Condvar.wait
      let signal = Sim.Sync.Condvar.signal
      let broadcast = Sim.Sync.Condvar.broadcast
    end

    let counter name =
      let c = Sim.Stats.lazy_counter stats name in
      fun () -> Sim.Stats.bump c

    let counter_add name n =
      Sim.Stats.Counter.incr ~by:n (Sim.Stats.counter stats name)

    let profile layer f = Kernel.Machine.with_layer machine layer f

    let trace_counter name v =
      Sim.Trace.counter (Kernel.Machine.tracer machine) ~cat:"fs" name
        (Int64.of_int v)

    let register_inspector name probe =
      Kernel.Machine.register_inspector machine ~name (fun () ->
          Util.Json.Obj
            (List.map (fun (k, v) -> (k, Util.Json.Int v)) (probe ())))

    let printk msg = Kernel.Printk.info machine "%s" msg
    let pushdown = Kernel.Pushdown.registry machine
  end)
