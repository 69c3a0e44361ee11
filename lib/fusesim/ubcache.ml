(** A user-level buffer cache over the O_DIRECT disk file — the userspace
    replacement for the kernel buffer cache that the FUSE build of the file
    system needs (O_DIRECT bypasses the kernel's caches entirely, so the
    daemon must cache blocks itself).

    Unreferenced buffers sit on an intrusive free list in release order
    (head = least recently released), as in [Kernel.Bcache]. Eviction
    takes the first buffer on the list that is not pinned, so a miss costs
    O(pinned) instead of a scan of the whole cache. *)

type buf = {
  block : int;
  data : Bytes.t;
  mutable valid : bool;
  mutable refcount : int;
  mutable pinned : int;
  mutable lru_prev : buf option;
  mutable lru_next : buf option;
  mutable on_lru : bool;
}

type t = {
  ufile : Ufile.t;
  capacity : int;
  table : (int, buf) Hashtbl.t;
  mutable lru_head : buf option;  (** least recently released *)
  mutable lru_tail : buf option;  (** most recently released *)
  stats : Sim.Stats.t;
  hits : Sim.Stats.Counter.t Lazy.t;
  misses : Sim.Stats.Counter.t Lazy.t;
  evictions : Sim.Stats.Counter.t Lazy.t;
  raw_reads : Sim.Stats.Counter.t Lazy.t;
}

exception No_buffers

let create ?(capacity = 8192) ufile =
  let stats = Sim.Stats.create () in
  {
    ufile;
    capacity;
    table = Hashtbl.create (2 * capacity);
    lru_head = None;
    lru_tail = None;
    stats;
    hits = Sim.Stats.lazy_counter stats "hits";
    misses = Sim.Stats.lazy_counter stats "misses";
    evictions = Sim.Stats.lazy_counter stats "evictions";
    raw_reads = Sim.Stats.lazy_counter stats "raw_reads";
  }

let stats t = t.stats

(* A buffer is on the free list iff its refcount is zero. *)

let lru_append t b =
  b.on_lru <- true;
  b.lru_prev <- t.lru_tail;
  b.lru_next <- None;
  (match t.lru_tail with
  | Some tl -> tl.lru_next <- Some b
  | None -> t.lru_head <- Some b);
  t.lru_tail <- Some b

let lru_remove t b =
  if b.on_lru then begin
    (match b.lru_prev with
    | Some p -> p.lru_next <- b.lru_next
    | None -> t.lru_head <- b.lru_next);
    (match b.lru_next with
    | Some n -> n.lru_prev <- b.lru_prev
    | None -> t.lru_tail <- b.lru_prev);
    b.lru_prev <- None;
    b.lru_next <- None;
    b.on_lru <- false
  end

(* Unhook the least recently released unpinned buffer and return it; its
   payload is free for the caller to reuse. *)
let evict_one t =
  let rec first = function
    | None -> raise No_buffers
    | Some b when b.pinned > 0 -> first b.lru_next
    | Some b -> b
  in
  let b = first t.lru_head in
  lru_remove t b;
  Hashtbl.remove t.table b.block;
  Sim.Stats.bump t.evictions;
  b

let getbuf t block =
  match Hashtbl.find_opt t.table block with
  | Some b ->
      Sim.Stats.bump t.hits;
      if b.refcount = 0 then lru_remove t b;
      b.refcount <- b.refcount + 1;
      b
  | None ->
      Sim.Stats.bump t.misses;
      let data =
        if Hashtbl.length t.table >= t.capacity then (evict_one t).data
        else Bytes.make (Ufile.block_size t.ufile) '\000'
      in
      let b =
        {
          block;
          data;
          valid = false;
          refcount = 1;
          pinned = 0;
          lru_prev = None;
          lru_next = None;
          on_lru = false;
        }
      in
      Hashtbl.add t.table block b;
      b

(** Read-through: pread(2) on the disk file on a miss. *)
let bread t block =
  let b = getbuf t block in
  if not b.valid then begin
    let data = Ufile.pread_block t.ufile block in
    Bytes.blit data 0 b.data 0 (Bytes.length data);
    b.valid <- true
  end;
  b

let getblk t block =
  let b = getbuf t block in
  if not b.valid then begin
    Bytes.fill b.data 0 (Bytes.length b.data) '\000';
    b.valid <- true
  end;
  b

(** Write-through: pwrite(2) with O_DIRECT (volatile until [flush]). *)
let bwrite t b = Ufile.pwrite_block t.ufile b.block b.data

(* Install a committed image straight to the disk file without touching
   the cached buffer — it may hold newer, uncommitted contents. *)
let raw_write t block data = Ufile.pwrite_block t.ufile block data

(* Read a block without admitting it to the cache: CAS blocks are cached
   once in the shared-page table instead. *)
let raw_read t block =
  Sim.Stats.bump t.raw_reads;
  Ufile.pread_block t.ufile block

let brelse t b =
  if b.refcount <= 0 then invalid_arg "Ubcache.brelse";
  b.refcount <- b.refcount - 1;
  if b.refcount = 0 then lru_append t b

let pin b = b.pinned <- b.pinned + 1

let unpin b =
  if b.pinned <= 0 then invalid_arg "Ubcache.unpin";
  b.pinned <- b.pinned - 1

(** fsync(2) on the whole disk file — the only durability tool userspace
    has. *)
let flush t = Ufile.fsync_disk t.ufile

let cached_blocks t = Hashtbl.length t.table

let mem t block = Hashtbl.mem t.table block

let check_invariants t =
  Hashtbl.iter
    (fun block b ->
      if b.block <> block then failwith "ubcache: key/block mismatch";
      if b.refcount < 0 then failwith "ubcache: negative refcount";
      if b.pinned < 0 then failwith "ubcache: negative pin count";
      if (b.refcount = 0) <> b.on_lru then
        failwith "ubcache: free-list membership disagrees with refcount")
    t.table;
  if Hashtbl.length t.table > t.capacity then failwith "ubcache: over capacity";
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false
  in
  let count = ref 0 in
  let rec walk prev = function
    | None ->
        if not (same t.lru_tail prev) then failwith "ubcache: lru tail mismatch"
    | Some b ->
        Stdlib.incr count;
        if !count > Hashtbl.length t.table then failwith "ubcache: lru list cycle";
        if not b.on_lru then failwith "ubcache: off-list buffer linked";
        (match Hashtbl.find_opt t.table b.block with
        | Some b' when b' == b -> ()
        | _ -> failwith "ubcache: lru node not in table");
        if not (same b.lru_prev prev) then failwith "ubcache: lru prev link broken";
        walk (Some b) b.lru_next
  in
  walk None t.lru_head;
  let unref =
    Hashtbl.fold (fun _ b n -> if b.refcount = 0 then n + 1 else n) t.table 0
  in
  if unref <> !count then failwith "ubcache: lru length mismatch"
