(** User-level buffer cache over the O_DIRECT disk file — the userspace
    replacement for the kernel buffer cache (O_DIRECT bypasses kernel
    caches, so the daemon must cache blocks itself).

    Eviction is O(1) in the common case: unreferenced buffers sit on an
    intrusive free list in release order, and a miss in a full cache
    evicts the least recently released buffer that is not pinned. The
    victim's payload is reused for the new block, so a buffer's [data]
    must not be used after its {!brelse}. *)

type buf = {
  block : int;
  data : Bytes.t;
  mutable valid : bool;
  mutable refcount : int;
  mutable pinned : int;
  mutable lru_prev : buf option;
      (** intrusive free-list links, maintained by the cache: a buffer is
          linked exactly while its refcount is zero *)
  mutable lru_next : buf option;
  mutable on_lru : bool;
}

type t

exception No_buffers
(** A miss found the cache full of referenced or pinned buffers. *)

val create : ?capacity:int -> Ufile.t -> t
val stats : t -> Sim.Stats.t

val bread : t -> int -> buf
(** Read-through: pread(2) on the disk file on a miss. *)

val getblk : t -> int -> buf

val bwrite : t -> buf -> unit
(** Write-through: pwrite(2) with O_DIRECT (volatile until {!flush}). *)

val raw_write : t -> int -> Bytes.t -> unit
(** Write data for a block straight to the disk file without touching the
    cached buffer — installing a committed version while the cache may
    hold newer uncommitted contents. *)

val raw_read : t -> int -> Bytes.t
(** Read a block without admitting it to the cache — the CAS store's
    shared-page table is the only cache its blocks get. *)

val brelse : t -> buf -> unit
val pin : buf -> unit
val unpin : buf -> unit

val flush : t -> unit
(** fsync(2) on the whole disk file — the only durability tool userspace
    has, and FUSE's downfall in the evaluation. *)

val cached_blocks : t -> int

val mem : t -> int -> bool
(** Whether the block is cached right now. *)

val check_invariants : t -> unit
(** Raises on violated internal invariants (tests). *)
