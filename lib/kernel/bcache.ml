(** Kernel buffer cache, following the Linux `sb_bread`/`brelse` protocol
    that BentoKS wraps (§4.5 of the paper) and that the C-VFS baseline
    calls directly.

    A [buf] is the in-kernel image of one disk block. [bread] returns the
    buffer with its sleeplock held and its reference count raised; the
    caller must [brelse] it (BentoKS turns this into a scoped wrapper so
    "buffer management has the same properties as memory management in
    Rust"). [bwrite] writes the buffer through to the device's volatile
    cache; durability requires a separate [flush] barrier.

    The cache is sharded by block number: each shard has its own hash
    table, intrusive LRU free list, lock, and statistics, so concurrent
    lookups of different blocks do not serialise behind one cache lock —
    the many-core behaviour the paper's Fig. 2 scaling columns measure.
    Within a shard, unreferenced buffers sit on the free list in release
    order (head = least recently released), so eviction is O(1). Dirty
    victims are written back with the shard lock released — only the
    victim's own sleeplock and a temporary reference pin it — so a slow
    eviction write does not stall unrelated lookups even within the
    shard.

    The races the sharding must not reintroduce: [getbuf] raises the
    refcount *before* the shard lock is dropped, so a buffer handed to
    [bread] can never be evicted (and its slot recycled for a different
    block) between lookup and sleeplock acquisition — [bread] asserts
    this. Small caches collapse to a single shard, preserving exact
    whole-cache LRU order where tests depend on it. *)

type buf = {
  block : int;
  data : Bytes.t;
  lock : Sim.Sync.Mutex.t;  (** sleeplock: held between bread and brelse *)
  mutable valid : bool;  (** contents read from disk / written by owner *)
  mutable dirty : bool;
  mutable refcount : int;
  mutable lru_prev : buf option;  (** free-list links; set only while unreferenced *)
  mutable lru_next : buf option;
  mutable on_lru : bool;
}

(* One shard: hash + LRU + lock + counters, all private to the shard so
   the hot path touches no shared mutable state. Counters merge on read. *)
type shard = {
  sid : int;
  cap : int;  (** this shard's slice of the total capacity *)
  table : (int, buf) Hashtbl.t;
  slock : Sim.Sync.Mutex.t;
  mutable lru_head : buf option;  (** least recently released *)
  mutable lru_tail : buf option;  (** most recently released *)
  sstats : Sim.Stats.t;
  hits : Sim.Stats.Counter.t Lazy.t;
  misses : Sim.Stats.Counter.t Lazy.t;
  evictions : Sim.Stats.Counter.t Lazy.t;
  writeback_evictions : Sim.Stats.Counter.t Lazy.t;
  disk_reads : Sim.Stats.Counter.t Lazy.t;
  disk_writes : Sim.Stats.Counter.t Lazy.t;
}

type t = {
  machine : Machine.t;
  dev : Device.Ssd.t;
  tracer : Sim.Trace.t;
  capacity : int;
  nshards : int;
  shards : shard array;
  gstats : Sim.Stats.t;  (** whole-cache ops: flushes, raw writes *)
  raw_reads : Sim.Stats.Counter.t Lazy.t;
  raw_writes : Sim.Stats.Counter.t Lazy.t;
  flushes : Sim.Stats.Counter.t Lazy.t;
  merged : Sim.Stats.t;  (** refreshed snapshot returned by {!stats} *)
}

exception No_buffers

(* Shard count scales with capacity but collapses to one for small
   caches: tests that assert exact whole-cache LRU eviction order use
   capacities of a handful of blocks, and a 4-block cache split 16 ways
   would be all remainder. 64 blocks per shard keeps eviction local. *)
let default_shards capacity = min 16 (max 1 (capacity / 64))

let create ?(capacity = 8192) ?shards machine =
  if capacity < 1 then invalid_arg "Bcache.create: capacity";
  let nshards =
    max 1 (min capacity (Option.value shards ~default:(default_shards capacity)))
  in
  let base = capacity / nshards and rem = capacity mod nshards in
  let mk sid =
    let sstats = Sim.Stats.create () in
    (* Every shard registers under the same prefix: machine-wide counter
       snapshots (the source of the bench hit-ratio metric) sum duplicate
       names, so "bcache.hits" is automatically the whole-cache total. *)
    Machine.register_stats machine ~prefix:"bcache" sstats;
    {
      sid;
      cap = (base + if sid < rem then 1 else 0);
      table = Hashtbl.create (2 * (base + 1));
      slock = Sim.Sync.Mutex.create ~name:"bcache" ();
      lru_head = None;
      lru_tail = None;
      sstats;
      hits = Sim.Stats.lazy_counter sstats "hits";
      misses = Sim.Stats.lazy_counter sstats "misses";
      evictions = Sim.Stats.lazy_counter sstats "evictions";
      writeback_evictions = Sim.Stats.lazy_counter sstats "writeback_evictions";
      disk_reads = Sim.Stats.lazy_counter sstats "disk_reads";
      disk_writes = Sim.Stats.lazy_counter sstats "disk_writes";
    }
  in
  let gstats = Sim.Stats.create () in
  Machine.register_stats machine ~prefix:"bcache" gstats;
  let t =
    {
      machine;
      dev = Machine.disk machine;
      tracer = Machine.tracer machine;
      capacity;
      nshards;
      shards = Array.init nshards mk;
      gstats;
      raw_reads = Sim.Stats.lazy_counter gstats "raw_reads";
      raw_writes = Sim.Stats.lazy_counter gstats "raw_writes";
      flushes = Sim.Stats.lazy_counter gstats "flushes";
      merged = Sim.Stats.create ();
    }
  in
  (* Live residency probe: how full (and how dirty) each shard is right
     now — the view `bento_cli inspect` dumps. *)
  Machine.register_inspector machine ~name:"bcache" (fun () ->
      let open Util.Json in
      let shard s =
        let dirty = ref 0 in
        Hashtbl.iter (fun _ b -> if b.dirty then incr dirty) s.table;
        Obj
          [
            ("cap", Int s.cap);
            ("resident", Int (Hashtbl.length s.table));
            ("dirty", Int !dirty);
          ]
      in
      Obj
        [
          ("capacity", Int t.capacity);
          ("shards", List (Array.to_list (Array.map shard t.shards)));
        ]);
  t

let shard_of t block = t.shards.(block mod t.nshards)
let block_size t = Device.Ssd.block_size t.dev

(** Whole-cache statistics: the per-shard counters summed by name into a
    stable registry, refreshed on every call. *)
let stats t =
  let totals : (string, int64) Hashtbl.t = Hashtbl.create 32 in
  let accum st =
    Sim.Stats.iter_counters st (fun name c ->
        let prev = Option.value ~default:0L (Hashtbl.find_opt totals name) in
        Hashtbl.replace totals name (Int64.add prev (Sim.Stats.Counter.get c)))
  in
  accum t.gstats;
  Array.iter (fun s -> accum s.sstats) t.shards;
  Hashtbl.iter
    (fun name total ->
      let c = Sim.Stats.counter t.merged name in
      Sim.Stats.Counter.reset c;
      Sim.Stats.Counter.add64 c total)
    totals;
  t.merged

(* All externally-called cache operations run under the "bcache" profiler
   frame; time spent below, in the device, lands in its own frames. *)
let layer t f = Machine.with_layer t.machine "bcache" f

(* ------------------------------------------------------------------ *)
(* Intrusive free list. All list operations run under the shard lock; a
   buffer is on its shard's list iff its refcount is zero.             *)

let lru_append s b =
  b.on_lru <- true;
  b.lru_prev <- s.lru_tail;
  b.lru_next <- None;
  (match s.lru_tail with
  | Some tl -> tl.lru_next <- Some b
  | None -> s.lru_head <- Some b);
  s.lru_tail <- Some b

let lru_remove s b =
  if b.on_lru then begin
    (match b.lru_prev with
    | Some p -> p.lru_next <- b.lru_next
    | None -> s.lru_head <- b.lru_next);
    (match b.lru_next with
    | Some n -> n.lru_prev <- b.lru_prev
    | None -> s.lru_tail <- b.lru_prev);
    b.lru_prev <- None;
    b.lru_next <- None;
    b.on_lru <- false
  end

let ref_inc s b =
  if b.refcount = 0 then lru_remove s b;
  b.refcount <- b.refcount + 1

let ref_dec s b =
  b.refcount <- b.refcount - 1;
  if b.refcount = 0 then lru_append s b

(* Evict one unreferenced buffer from the shard, least recently released
   first, and return its payload for the caller to reuse. Called with the
   shard lock held. A clean victim unhooks in O(1); a dirty victim is
   written back with the shard lock *released* — the victim is pinned by
   a temporary reference and its own sleeplock meanwhile — so other
   lookups proceed during the I/O. If someone starts using the victim
   while it is being written back, it is left cached and another victim
   is taken. *)
let rec evict_one t s =
  match s.lru_head with
  | None -> raise No_buffers
  | Some b ->
      lru_remove s b;
      if not b.dirty then begin
        Hashtbl.remove s.table b.block;
        Sim.Trace.instant t.tracer ~cat:"bcache" "bcache:evict";
        Sim.Stats.bump s.evictions;
        b.data
      end
      else begin
        b.refcount <- 1;
        Sim.Sync.Mutex.unlock s.slock;
        Sim.Sync.Mutex.lock b.lock;
        if b.dirty then begin
          Device.Ssd.write t.dev b.block b.data;
          b.dirty <- false;
          Sim.Stats.bump s.writeback_evictions
        end;
        Sim.Sync.Mutex.unlock b.lock;
        Sim.Sync.Mutex.lock s.slock;
        b.refcount <- b.refcount - 1;
        if b.refcount = 0 then begin
          Hashtbl.remove s.table b.block;
          Sim.Trace.instant t.tracer ~cat:"bcache" "bcache:evict";
          Sim.Stats.bump s.evictions;
          b.data
        end
        else
          (* Raced with a new user: the block is hot again. *)
          evict_one t s
      end

(* Find-or-create the buffer for [block]; returns it with refcount raised
   but NOT locked and possibly not valid. The raised refcount is what
   makes the handoff to [bread] safe: eviction skips referenced buffers,
   so the buf cannot be recycled between here and the caller taking its
   sleeplock. Eviction may release and re-acquire the shard lock, so the
   lookup restarts afterwards, carrying the victim's payload: a new buffer
   takes it over instead of allocating one. *)
let getbuf t block =
  let s = shard_of t block in
  Sim.Sync.Mutex.with_lock s.slock (fun () ->
      Machine.cpu_work t.machine (Machine.cost t.machine).Cost.buffer_lookup;
      let rec find spare =
        match Hashtbl.find_opt s.table block with
        | Some b ->
            Sim.Stats.bump s.hits;
            Sim.Trace.instant t.tracer ~cat:"bcache" "bcache:hit";
            ref_inc s b;
            b
        | None ->
            if Hashtbl.length s.table >= s.cap then find (Some (evict_one t s))
            else begin
              Sim.Stats.bump s.misses;
              Sim.Trace.instant t.tracer ~cat:"bcache" "bcache:miss";
              let b =
                {
                  block;
                  data =
                    (match spare with
                    | Some d -> d
                    | None -> Bytes.make (block_size t) '\000');
                  lock = Sim.Sync.Mutex.create ~name:"buf" ();
                  valid = false;
                  dirty = false;
                  refcount = 1;
                  lru_prev = None;
                  lru_next = None;
                  on_lru = false;
                }
              in
              Hashtbl.add s.table block b;
              b
            end
      in
      find None)

(** Return a locked buffer containing the current contents of [block],
    reading from the device on a miss (xv6 [bread], Linux [sb_bread]). *)
let bread t block =
  layer t (fun () ->
      let b = getbuf t block in
      Sim.Sync.Mutex.lock b.lock;
      (* Regression guard for the lookup/lock handoff race: the refcount
         taken under the shard lock must have kept this exact block's
         buffer alive across the sleeplock acquisition. *)
      assert (b.block = block && b.refcount > 0);
      if not b.valid then begin
        let data = Device.Ssd.read t.dev block in
        Bytes.blit data 0 b.data 0 (Bytes.length data);
        b.valid <- true;
        Sim.Stats.bump (shard_of t block).disk_reads
      end;
      b)

(** Batched [bread]: find-or-create every block's buffer, then fetch all
    the invalid ones in one pass through the bio layer — adjacent blocks
    merge into contiguous read commands and distinct runs go out
    concurrently across the device's channels, instead of one serial
    single-block read per buffer. Buffers are locked in ascending block
    order (one global order across all shards, so concurrent batched
    reads cannot deadlock) and returned in input order, each held exactly
    as by [bread]. Blocks must be distinct. *)
let bread_scatter t blocks =
  layer t (fun () ->
      let sorted = List.sort_uniq compare blocks in
      if List.length sorted <> List.length blocks then
        invalid_arg "Bcache.bread_scatter: duplicate blocks";
      let bufs =
        List.map
          (fun blk ->
            let b = getbuf t blk in
            Sim.Sync.Mutex.lock b.lock;
            assert (b.block = blk && b.refcount > 0);
            b)
          sorted
      in
      let missing = List.filter (fun b -> not b.valid) bufs in
      (if missing <> [] then
         match Bio.read_scatter t.dev (List.map (fun b -> b.block) missing) with
         | pairs, cmds ->
             List.iter2
               (fun b (blk, data) ->
                 assert (b.block = blk);
                 Bytes.blit data 0 b.data 0 (Bytes.length data);
                 b.valid <- true)
               missing pairs;
             (match missing with
             | m :: _ -> Sim.Stats.bump ~by:cmds (shard_of t m.block).disk_reads
             | [] -> ())
         | exception e ->
             (* Release everything we hold before propagating. *)
             List.iter
               (fun b ->
                 Sim.Sync.Mutex.unlock b.lock;
                 let s = shard_of t b.block in
                 Sim.Sync.Mutex.lock s.slock;
                 ref_dec s b;
                 Sim.Sync.Mutex.unlock s.slock)
               bufs;
             raise e);
      let by_block = Hashtbl.create 16 in
      List.iter (fun b -> Hashtbl.replace by_block b.block b) bufs;
      List.map (fun blk -> Hashtbl.find by_block blk) blocks)

(** Like [bread] but without reading the device: for blocks the caller will
    fully overwrite (Linux [getblk] + wait-free path). *)
let getblk t block =
  layer t (fun () ->
      let b = getbuf t block in
      Sim.Sync.Mutex.lock b.lock;
      assert (b.block = block && b.refcount > 0);
      if not b.valid then begin
        Bytes.fill b.data 0 (Bytes.length b.data) '\000';
        b.valid <- true
      end;
      b)

(** Write the buffer through to the device (volatile cache). The buffer
    must be held (locked). *)
let bwrite t b =
  if not (Sim.Sync.Mutex.locked b.lock) then
    invalid_arg "Bcache.bwrite: buffer not locked";
  layer t (fun () ->
      Device.Ssd.write t.dev b.block b.data;
      b.dirty <- false;
      Sim.Stats.bump (shard_of t b.block).disk_writes)

(** Write a set of held buffers with maximum parallelism: sort and merge
    adjacent block numbers into contiguous commands and dispatch the
    merged runs concurrently across the device's channels (bio
    plug/unplug), then wait for every completion. *)
let bwrite_scatter t bufs =
  match bufs with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun b ->
          if not (Sim.Sync.Mutex.locked b.lock) then
            invalid_arg "Bcache.bwrite_scatter: buffer not locked")
        bufs;
      layer t (fun () ->
          let cmds =
            Bio.write_scatter t.dev (List.map (fun b -> (b.block, b.data)) bufs)
          in
          List.iter (fun b -> b.dirty <- false) bufs;
          Sim.Stats.bump ~by:cmds (shard_of t first.block).disk_writes)

(** Write several held buffers as one contiguous device command when their
    block numbers are consecutive (sorted by block); otherwise fall back
    to {!bwrite_scatter}, which splits the set into maximal contiguous
    runs and dispatches them concurrently. *)
let bwrite_contig t bufs =
  match bufs with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun b ->
          if not (Sim.Sync.Mutex.locked b.lock) then
            invalid_arg "Bcache.bwrite_contig: buffer not locked")
        bufs;
      let arr = Array.of_list bufs in
      let contiguous =
        let ok = ref true in
        Array.iteri
          (fun i b -> if b.block <> first.block + i then ok := false)
          arr;
        !ok
      in
      if contiguous then
        layer t (fun () ->
            Device.Ssd.write_contig t.dev ~start:first.block
              (Array.map (fun b -> b.data) arr);
            Array.iter (fun b -> b.dirty <- false) arr;
            Sim.Stats.bump (shard_of t first.block).disk_writes)
      else bwrite_scatter t bufs

(** Mark dirty without writing; the owner (e.g. the log) will write later. *)
let mark_dirty b = b.dirty <- true

(** Release: unlock and drop the reference (xv6 [brelse]). *)
let brelse t b =
  if not (Sim.Sync.Mutex.locked b.lock) then
    invalid_arg "Bcache.brelse: buffer not locked";
  Sim.Sync.Mutex.unlock b.lock;
  let s = shard_of t b.block in
  Sim.Sync.Mutex.lock s.slock;
  if b.refcount <= 0 then begin
    Sim.Sync.Mutex.unlock s.slock;
    invalid_arg "Bcache.brelse: refcount underflow"
  end;
  ref_dec s b;
  Sim.Sync.Mutex.unlock s.slock

(** Raise the refcount of a held buffer (xv6 [bpin], used by the log to keep
    blocks in cache until the transaction commits). *)
let bpin t b =
  let s = shard_of t b.block in
  Sim.Sync.Mutex.with_lock s.slock (fun () -> ref_inc s b)

let bunpin t b =
  let s = shard_of t b.block in
  Sim.Sync.Mutex.with_lock s.slock (fun () ->
      if b.refcount <= 0 then invalid_arg "Bcache.bunpin";
      ref_dec s b)

(** Drop a pin reference located by block number (jbd2 checkpointing, which
    holds data copies rather than buffers). *)
let bunpin_block t block =
  let s = shard_of t block in
  Sim.Sync.Mutex.with_lock s.slock (fun () ->
      match Hashtbl.find_opt s.table block with
      | Some b ->
          if b.refcount <= 0 then invalid_arg "Bcache.bunpin_block";
          ref_dec s b
      | None -> invalid_arg "Bcache.bunpin_block: not cached")

(** Write data for [block] straight to the device without disturbing the
    cached buffer — used by checkpointing to install a *committed* version
    while the cache may already hold newer, uncommitted contents. *)
let raw_write t block data =
  layer t (fun () ->
      Device.Ssd.write t.dev block data;
      Sim.Stats.bump t.raw_writes)

(** Scatter version of {!raw_write}: install many committed (block, data)
    pairs at once, merged into contiguous commands and dispatched
    concurrently through the bio layer. *)
let raw_write_scatter t pairs =
  match pairs with
  | [] -> ()
  | _ ->
      layer t (fun () ->
          ignore (Bio.write_scatter t.dev pairs);
          Sim.Stats.bump ~by:(List.length pairs) t.raw_writes)

(** Read a block straight from the device without admitting it to the
    cache — the CAS store's dedup-aware admission policy: content-addressed
    blocks are cached once in the refcounted shared-page table above, so
    admitting them here as well would duplicate them in memory. *)
let raw_read t block =
  layer t (fun () ->
      let data = Device.Ssd.read t.dev block in
      Sim.Stats.bump t.raw_reads;
      data)

(** Scatter version of {!raw_read}: fetch many blocks, merged into
    contiguous commands dispatched concurrently through the bio layer,
    none of them admitted to the cache. Returns (block, data) pairs in
    unspecified order. *)
let raw_read_scatter t blocks =
  match blocks with
  | [] -> []
  | _ ->
      layer t (fun () ->
          let pairs, _cmds = Bio.read_scatter t.dev blocks in
          Sim.Stats.bump ~by:(List.length blocks) t.raw_reads;
          pairs)

(** Durability barrier on the underlying device. *)
let flush t =
  layer t (fun () ->
      Device.Ssd.flush t.dev;
      Sim.Stats.bump t.flushes)

let cached_blocks t =
  Array.fold_left (fun n s -> n + Hashtbl.length s.table) 0 t.shards

(* Invariant checks used by the test suite: per-shard table/refcount/LRU
   consistency plus the sharding invariant itself (every key hashes to
   the shard holding it). *)
let check_invariants t =
  Array.iter
    (fun s ->
      Hashtbl.iter
        (fun block b ->
          if b.block <> block then failwith "bcache: key/block mismatch";
          if block mod t.nshards <> s.sid then
            failwith "bcache: block in wrong shard";
          if b.refcount < 0 then failwith "bcache: negative refcount";
          if b.refcount = 0 && not b.on_lru then
            failwith "bcache: unreferenced buffer off the free list";
          if b.refcount > 0 && b.on_lru then
            failwith "bcache: referenced buffer on the free list")
        s.table;
      if Hashtbl.length s.table > s.cap then failwith "bcache: over capacity";
      (* Walk the free list and check link consistency both ways. *)
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some x, Some y -> x == y
        | _ -> false
      in
      let count = ref 0 in
      let rec walk prev = function
        | None ->
            if not (same s.lru_tail prev) then
              failwith "bcache: lru tail mismatch"
        | Some b ->
            Stdlib.incr count;
            if not b.on_lru then failwith "bcache: off-list buffer linked";
            if b.refcount <> 0 then failwith "bcache: referenced buffer on lru";
            (match Hashtbl.find_opt s.table b.block with
            | Some b' when b' == b -> ()
            | _ -> failwith "bcache: lru node not in table");
            if not (same b.lru_prev prev) then
              failwith "bcache: lru prev link broken";
            if !count > Hashtbl.length s.table then
              failwith "bcache: lru list cycle";
            walk (Some b) b.lru_next
      in
      walk None s.lru_head;
      let unref =
        Hashtbl.fold (fun _ b n -> if b.refcount = 0 then n + 1 else n) s.table 0
      in
      if unref <> !count then failwith "bcache: lru length mismatch")
    t.shards
