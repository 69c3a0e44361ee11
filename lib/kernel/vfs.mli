(** The simulated Linux VFS layer.

    A kernel file system registers an {!fs_ops} table of function pointers.
    The VFS owns the machinery the paper's stacks share: the per-file page
    cache, dirty accounting, writeback (with the [wb_batch] lever that
    distinguishes `writepage` from `writepages`), page reclaim, and the
    dentry cache. *)

type file_kind = Reg | Dir | Symlink

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_size : int;
  st_nlink : int;
}

type dirent = { d_name : string; d_ino : int; d_kind : file_kind }

type statfs = {
  f_blocks : int;
  f_bfree : int;
  f_files : int;
  f_ffree : int;
}

type 'e res = ('e, Errno.t) result

(** The function-pointer table a file system registers (function pointers,
    exactly as in Linux). [write_pages] receives a contiguous run of dirty
    pages — at most [wb_batch] of them per call, so [wb_batch = 1] is
    `writepage` and larger values are `writepages`. *)
type fs_ops = {
  fs_name : string;
  root_ino : int;
  lookup : dir:int -> string -> stat res;
  getattr : int -> stat res;
  create : dir:int -> string -> stat res;
  mkdir : dir:int -> string -> stat res;
  unlink : dir:int -> string -> unit res;
  rmdir : dir:int -> string -> unit res;
  rename : olddir:int -> oldname:string -> newdir:int -> newname:string -> unit res;
  link : ino:int -> dir:int -> string -> stat res;
  symlink : dir:int -> string -> target:string -> stat res;
  readlink : ino:int -> string res;
  readdir : int -> dirent list res;
  readdir_filter : int -> prog:string -> (dirent * stat) list res;
      (** Pushdown scan: run the registered {!Pushdown} filter program
          [prog] over the directory inside the fs layer — filter and
          per-entry attributes in one crossing instead of one per entry. *)
  bmap : ino:int -> fbn:int -> int res;
      (** FIBMAP: the device block backing file block [fbn] (0 = hole) —
          how clients learn device pointers for pushdown index blocks. *)
  readpage : ino:int -> index:int -> Bytes.t res;
  readahead : ino:int -> start:int -> count:int -> Bytes.t array res;
      (** Bulk read of [count] consecutive pages from page [start], used by
          the page-cache readahead machinery; pages beyond EOF come back
          zero-filled. *)
  write_pages : ino:int -> isize:int -> (int * Bytes.t) array -> unit res;
  truncate : ino:int -> int -> unit res;
  fsync : ino:int -> unit res;
  sync_fs : unit -> unit res;
  iopen : ino:int -> unit res;
  irelease : ino:int -> unit;
  statfs : unit -> statfs;
  wb_batch : int;
  max_file_size : int;
}

val gather_pages : (int * Bytes.t) array -> first:int -> len:int -> Bytes.t
(** [gather_pages pages ~first ~len] copies the first [len] bytes of the
    contiguous run [pages] from entry [first] on into one fresh buffer —
    a [write_pages] payload clamped to the inode size, in one copy. *)

val profiled_ops : Machine.t -> string -> fs_ops -> fs_ops
(** Wrap every entry point of an ops table in a profiler layer frame (e.g.
    "fs") — how in-kernel file systems registered directly with the VFS
    attribute their time without per-operation probes. *)

(** In-core inode (vnode) with its page cache. Fields are exposed for the
    syscall layer, which maintains open counts and sizes. *)
type page = {
  pdata : Bytes.t;
  mutable pdirty : bool;
  mutable pra : bool;  (** inserted by readahead and not yet consumed *)
  mutable pshared : int64 option;
      (** content hash when [pdata] aliases the CAS shared-page table —
          the same [Bytes.t] appears in every vnode caching that content,
          so it must never be mutated in place (COW replaces the page). A
          shared page is clean by construction. *)
}

type vnode = {
  v_ino : int;
  mutable v_kind : file_kind;
  mutable v_size : int;
  v_pages : (int, page) Hashtbl.t;
  mutable v_dirty_pages : int;
  v_rw : Sim.Sync.Rwlock.t;
  v_wb : Sim.Sync.Mutex.t;
  mutable v_nopen : int;
  mutable v_unlinked : bool;
  mutable v_ra_next : int;
      (** readahead: page index one past the last sequential read *)
  mutable v_ra_window : int;  (** current readahead window (pages); 0 = off *)
  mutable v_ra_issued_to : int;
      (** end of the prefetch-issued region; the next chunk starts here *)
  v_ra_inflight : (int, unit) Hashtbl.t;
      (** page indexes currently being prefetched *)
}

type t
(** A mounted file system instance. *)

val mount :
  ?dirty_limit:int ->
  ?page_cap:int ->
  ?background:bool ->
  Machine.t ->
  fs_ops ->
  t
(** [dirty_limit]: pages of dirty data before writers are throttled into
    foreground writeback ([balance_dirty_pages]). [page_cap]: total cached
    pages before clean pages of closed files are reclaimed. [background]:
    start the periodic writeback flusher fiber (stop it by unmounting). *)

val unmount : t -> unit
(** Flush everything, run the fs-wide sync, stop the flusher. *)

val machine : t -> Machine.t
val ops : t -> fs_ops
val page_size : t -> int
val stats : t -> Sim.Stats.t

val vnode_of : t -> int -> kind:file_kind -> size:int -> vnode
(** Find-or-create the in-core inode. *)

val find_vnode : t -> int -> vnode option

val detach_vnode : t -> int -> vnode option
(** Take the inode's vnode out of the lookup table, if it has one, while
    its file is being deleted: once the fs frees the inode, a concurrent
    create may recycle the number, and it must get a fresh vnode rather
    than the dying file's size and pages. A detached vnode keeps its pages
    (an open file outlives its unlink) and stays in writeback, reclaim
    and accounting until {!drop_vnode}. *)

val reattach_vnode : t -> vnode -> unit
(** Put a detached vnode back (the deletion failed), unless a vnode for
    the same inode was created meanwhile; then it stays detached. *)

val drop_vnode : t -> vnode -> unit
(** Drop the vnode's pages and its table entry, if the entry is still
    this vnode. *)

val invalidate_pages : t -> vnode -> unit

(** {1 Dentry cache} *)

val dcache_insert : t -> dir:int -> string -> int -> unit
val dcache_remove : t -> dir:int -> string -> unit

val lookup : t -> dir:int -> string -> stat res
(** dcache in front of the file system; attributes always come fresh from
    [getattr], so they cannot go stale. *)

(** {1 Generic file I/O through the page cache} *)

val read : t -> vnode -> pos:int -> len:int -> Bytes.t res
(** Short reads at EOF; holes read as zeroes. Sequential access ramps a
    per-file readahead window ({!fs_ops.readahead} prefetches it
    asynchronously); a seek collapses the window. The machine counters
    [readahead_issued]/[readahead_hit] expose the policy's behaviour. *)

val write : t -> vnode -> pos:int -> Bytes.t -> int res
(** Copy into the page cache, extend the size, dirty pages; may throttle
    into foreground writeback past the dirty limit. *)

val truncate : t -> vnode -> int -> unit res
val fsync : t -> vnode -> unit res

val writeback_vnode : t -> vnode -> unit
(** Push this file's dirty pages into the file system in [wb_batch]-sized
    contiguous runs. Distinct runs are dispatched as concurrent
    [write_pages] calls (bounded queue depth) and all are awaited before
    returning. *)

val writeback_all : t -> unit
val sync : t -> unit res

val drop_caches : t -> unit res
(** Flush everything, then drop every cached page and reset per-file
    readahead state (`echo 3 > drop_caches`) — cold page cache without a
    remount. CAS-shared pages also aliased by a still-open vnode are kept
    (evicting one alias frees nothing while the shared entry stays
    resident) but lose their readahead mark; readahead state is reset for
    every file regardless of how many pages survived. *)

val set_readahead : t -> bool -> unit
(** Enable/disable asynchronous readahead (on by default) — the ablation
    switch for the seqread-cold benchmark. *)

val set_modify_hook : t -> (int -> unit) option -> unit
(** Lease hook: register a callback invoked with the inode number after
    every successful data mutation ({!write}, {!truncate}). The file server
    uses it to bump its change attribute and break client leases when the
    file system is modified beneath it. The callback runs on the mutating
    fiber with no VFS locks held; it must not block. *)

(** {1 Content-addressable store hooks} *)

(** Callbacks a content-addressable store ({!module:Cas}) registers so the
    page cache can alias sealed read-only content across inodes instead of
    reading through the file system; every page-removal path gives the
    shared reference back. The record keeps [Vfs] free of a dependency on
    the store implementation. *)
type cas_ops = {
  cas_lookup : int -> int64 array option;
      (** per-page content hashes of a sealed file, by inode; [None] when
          the inode is not CAS-bound *)
  cas_acquire : int64 -> Bytes.t;
      (** shared page bytes for a hash, refcount raised by one; fills from
          the device on first use. The returned [Bytes.t] is shared — the
          caller must never mutate it. *)
  cas_release : int64 -> unit;  (** one alias dropped; 0 refs ⇒ reclaimable *)
  cas_refs : int64 -> int;  (** current refcount (0 when not resident) *)
  cas_cow : int -> unit;
      (** break the binding after the file's content has been privatised
          and flushed: removes it durably so post-crash readers see the
          private copy, never a mix *)
  cas_unbind : int -> unit;  (** unlink: drop the binding (durably) *)
  cas_debug_refs : unit -> (int64 * int) list;
      (** resident (hash, refcount) table, for the accounting oracle *)
}

val set_cas : t -> cas_ops option -> unit
(** Attach (or detach) a content-addressable store. With hooks attached,
    page faults on CAS-bound inodes alias the refcounted shared-page table
    (zero-copy across tenants, no device read when resident), the first
    write to a bound file privatises it (copy-on-write: fault all pages,
    copy, flush, then durably unbind), and readahead is disabled for bound
    files — their backing file-system blocks are sparse stubs. *)

val cas_hashes : t -> vnode -> int64 array option
(** The sealed per-page hash array for a bound vnode ([None] when unbound
    or no store is attached). *)

val cas_unbind : t -> int -> unit
(** Drop a CAS binding by inode number, if a store is attached — used by
    the syscall layer when a bound file is unlinked without ever having
    had a vnode. *)

(** {1 Exposed for tests} *)

val runs_of_indexes : batch:int -> int list -> int list list
(** Split sorted page indexes into contiguous runs capped at [batch]. *)

val cached_pages : t -> int
(** Total pages cached across all files (the memory-pressure counter). *)

val dirty_pages : t -> int
(** Total dirty pages across all files (the writeback-throttle counter). *)

val set_debug_accounting : bool -> unit
(** Debug builds: make writeback and the dirty throttle recompute the
    dirty/cached totals from the page tables and fail on any drift.
    Global; off by default (the check is O(cached pages)). *)

val check_accounting : t -> unit
(** One-shot version of the debug oracle: raises if any per-inode or
    global counter disagrees with the actual page tables. *)
