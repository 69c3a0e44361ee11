(** Kernel buffer cache with the Linux/xv6 [sb_bread]/[brelse] protocol
    that BentoKS wraps and the C baseline calls directly.

    A [buf] is the in-kernel image of one disk block: [bread] returns it
    with its sleeplock held and reference taken; the holder must [brelse].
    [bwrite] writes through to the device's volatile cache; durability
    needs a separate {!flush} barrier. Pinning ([bpin]) keeps a block
    cached while a log holds it staged.

    {b Payload ownership.} A buffer's [data] belongs to the cache: the
    holder may read and write it between [bread]/[getblk] and [brelse],
    and must not keep it afterwards, because eviction hands the victim's
    payload to the next block that misses instead of allocating a new
    one. A payload never aliases a device block: a fill blits the
    device's read-only view into it, and a write is copied by the device.
    {!raw_read} and {!raw_read_scatter} return the device's read-only
    views unchanged; their callers must not mutate them. The copies left
    on this path are the fill (device → buffer) and the device's copy of
    each written block. *)

type buf = {
  block : int;
  data : Bytes.t;
  lock : Sim.Sync.Mutex.t;  (** sleeplock held between bread and brelse *)
  mutable valid : bool;
  mutable dirty : bool;
  mutable refcount : int;
  mutable lru_prev : buf option;
      (** intrusive free-list links, maintained by the cache: a buffer is
          linked exactly while its refcount is zero *)
  mutable lru_next : buf option;
  mutable on_lru : bool;
}

type t

exception No_buffers
(** Eviction found no unreferenced, unpinned buffer in the block's shard. *)

val create : ?capacity:int -> ?shards:int -> Machine.t -> t
(** The cache is sharded by block number (per-shard hash + LRU + lock +
    counters) so concurrent lookups of different blocks do not serialise.
    [shards] defaults to a count derived from [capacity] that collapses to
    1 for small caches, preserving exact whole-cache LRU order there; it
    is clamped to [1, capacity]. *)

val stats : t -> Sim.Stats.t
(** Whole-cache statistics: the per-shard counters merged by name,
    refreshed on every call. *)

val block_size : t -> int

val bread : t -> int -> buf
(** Locked buffer with the block's current contents (device read on
    miss). *)

val bread_scatter : t -> int list -> buf list
(** Batched [bread] of distinct blocks: the misses are merged into
    contiguous read commands dispatched concurrently across the device's
    channels (the bio read path). Buffers come back in input order, each
    held exactly as by [bread]. *)

val getblk : t -> int -> buf
(** Locked buffer without reading the device — for full overwrites. *)

val bwrite : t -> buf -> unit
(** Write through to the device (volatile). The buffer must be held. *)

val bwrite_contig : t -> buf list -> unit
(** One device command when the held buffers are consecutive by block
    number (sorted); otherwise falls back to {!bwrite_scatter}. *)

val bwrite_scatter : t -> buf list -> unit
(** Write held buffers in any block order: merges adjacent blocks into
    contiguous commands and dispatches the merged runs concurrently
    across the device's channels, waiting for all completions (the bio
    plug/unplug path). *)

val mark_dirty : buf -> unit

val brelse : t -> buf -> unit
(** Unlock and drop the reference. *)

val bpin : t -> buf -> unit
(** Extra reference so eviction cannot take the block (xv6 [bpin]). *)

val bunpin : t -> buf -> unit

val bunpin_block : t -> int -> unit
(** Drop a pin located by block number (jbd2 checkpointing holds copies,
    not buffers). *)

val raw_write : t -> int -> Bytes.t -> unit
(** Write data for a block straight to the device without touching the
    cached buffer — installing a committed version while the cache holds
    newer uncommitted contents. *)

val raw_write_scatter : t -> (int * Bytes.t) list -> unit
(** Scatter version of {!raw_write}: merge and dispatch the pairs
    concurrently through the bio layer, then wait for all completions.
    Duplicate blocks must not appear. *)

val raw_read : t -> int -> Bytes.t
(** Read a block straight from the device without admitting it to the
    cache. Used by the CAS store, whose blocks are cached once in the
    refcounted shared-page table instead (dedup-aware admission). *)

val raw_read_scatter : t -> int list -> (int * Bytes.t) list
(** Scatter version of {!raw_read}: merged into contiguous commands and
    dispatched concurrently; nothing is admitted to the cache. *)

val flush : t -> unit
(** Device durability barrier. *)

val cached_blocks : t -> int

val check_invariants : t -> unit
(** Raises on violated internal invariants (tests). *)
