(** The simulated Linux VFS layer.

    A kernel file system registers an [fs_ops] table of function pointers
    (exactly the VFS design the paper discusses). The VFS owns the generic
    machinery the paper's three xv6 stacks share: the page cache for file
    data, dirty accounting and writeback, and the dentry cache. The
    writeback batching policy ([wb_batch]) is the lever that distinguishes
    the C baseline (`writepage`, one page per call) from BentoFS
    (`writepages`, contiguous batches) — §6.5.2/§6.6.3 of the paper. *)

type file_kind = Reg | Dir | Symlink

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_size : int;
  st_nlink : int;
}

type dirent = { d_name : string; d_ino : int; d_kind : file_kind }

type statfs = {
  f_blocks : int;  (** total data blocks *)
  f_bfree : int;  (** free blocks *)
  f_files : int;  (** total inodes *)
  f_ffree : int;  (** free inodes *)
}

type 'e res = ('e, Errno.t) result

(** The function-pointer table a file system registers with the VFS. *)
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
      (** Pushdown scan: run the registered filter program [prog] over the
          directory inside the fs layer — one crossing for the whole
          filtered, attributed listing. *)
  bmap : ino:int -> fbn:int -> int res;
      (** FIBMAP: device block backing file block [fbn]; 0 = hole. *)
  readpage : ino:int -> index:int -> Bytes.t res;
  readahead : ino:int -> start:int -> count:int -> Bytes.t array res;
      (** Bulk read of [count] consecutive pages starting at page [start],
          used by the page-cache readahead machinery. Pages beyond EOF
          come back zero-filled. *)
  write_pages : ino:int -> isize:int -> (int * Bytes.t) array -> unit res;
  truncate : ino:int -> int -> unit res;
  fsync : ino:int -> unit res;
  sync_fs : unit -> unit res;
  iopen : ino:int -> unit res;  (** inode now referenced by an open file *)
  irelease : ino:int -> unit;  (** last open reference dropped *)
  statfs : unit -> statfs;
  wb_batch : int;  (** max pages per [write_pages] call (1 = writepage) *)
  max_file_size : int;
}

(** Wrap every entry point of an ops table in a profiler layer frame, so
    in-kernel file systems registered directly with the VFS (C xv6, ext4)
    attribute their time to [layer] without sprinkling probes over every
    operation. (BentoFS and the FUSE driver have their own dispatch
    funnels and frame there instead.) *)
let profiled_ops machine layer (ops : fs_ops) : fs_ops =
  let lay f = Machine.with_layer machine layer f in
  {
    ops with
    lookup = (fun ~dir name -> lay (fun () -> ops.lookup ~dir name));
    getattr = (fun ino -> lay (fun () -> ops.getattr ino));
    create = (fun ~dir name -> lay (fun () -> ops.create ~dir name));
    mkdir = (fun ~dir name -> lay (fun () -> ops.mkdir ~dir name));
    unlink = (fun ~dir name -> lay (fun () -> ops.unlink ~dir name));
    rmdir = (fun ~dir name -> lay (fun () -> ops.rmdir ~dir name));
    rename =
      (fun ~olddir ~oldname ~newdir ~newname ->
        lay (fun () -> ops.rename ~olddir ~oldname ~newdir ~newname));
    link = (fun ~ino ~dir name -> lay (fun () -> ops.link ~ino ~dir name));
    symlink =
      (fun ~dir name ~target -> lay (fun () -> ops.symlink ~dir name ~target));
    readlink = (fun ~ino -> lay (fun () -> ops.readlink ~ino));
    readdir = (fun ino -> lay (fun () -> ops.readdir ino));
    readdir_filter =
      (fun ino ~prog -> lay (fun () -> ops.readdir_filter ino ~prog));
    bmap = (fun ~ino ~fbn -> lay (fun () -> ops.bmap ~ino ~fbn));
    readpage = (fun ~ino ~index -> lay (fun () -> ops.readpage ~ino ~index));
    readahead =
      (fun ~ino ~start ~count -> lay (fun () -> ops.readahead ~ino ~start ~count));
    write_pages =
      (fun ~ino ~isize pages -> lay (fun () -> ops.write_pages ~ino ~isize pages));
    truncate = (fun ~ino size -> lay (fun () -> ops.truncate ~ino size));
    fsync = (fun ~ino -> lay (fun () -> ops.fsync ~ino));
    sync_fs = (fun () -> lay ops.sync_fs);
    iopen = (fun ~ino -> lay (fun () -> ops.iopen ~ino));
    irelease = (fun ~ino -> lay (fun () -> ops.irelease ~ino));
    statfs = (fun () -> lay ops.statfs);
  }

(* ------------------------------------------------------------------ *)
(* Per-CPU-style distributed counters (Linux percpu_counter): updates go
   to the updating fiber's cell, so the hot write/read paths of different
   workload fibers do not all bump one shared counter; reads sum the
   cells. In the simulation this is about structure rather than cache
   lines, but it keeps the dirty/cached accounting off every fiber's
   critical path the same way the kernel does.                          *)

module Pcpu = struct
  let cells = 16

  type t = int array

  let create () = Array.make cells 0

  let add (c : t) n =
    let eng = Sim.Engine.self_engine () in
    let fid = Sim.Engine.current_fid eng in
    let i = if fid < 0 then 0 else fid land (cells - 1) in
    c.(i) <- c.(i) + n

  let read (c : t) = Array.fold_left ( + ) 0 c
end

(* ------------------------------------------------------------------ *)
(* In-core inode (vnode) with its page cache.                          *)

type page = {
  pdata : Bytes.t;
  mutable pdirty : bool;
  mutable pra : bool;  (** brought in by readahead, not yet consumed *)
  mutable pshared : int64 option;
      (** content hash when [pdata] aliases a refcounted CAS shared page:
          the same [Bytes.t] appears in every vnode whose sealed file has
          this block content. Shared pages are never dirty — a write
          privatises the whole file first (COW). *)
}

type vnode = {
  v_ino : int;
  mutable v_kind : file_kind;
  mutable v_size : int;
  v_pages : (int, page) Hashtbl.t;
  mutable v_dirty_pages : int;
  v_rw : Sim.Sync.Rwlock.t;  (** inode lock *)
  v_wb : Sim.Sync.Mutex.t;  (** serialises writeback of this file *)
  mutable v_nopen : int;
  mutable v_unlinked : bool;
  mutable v_ra_next : int;
      (** readahead state: page index one past the last sequential read *)
  mutable v_ra_window : int;  (** current readahead window (pages); 0 = off *)
  mutable v_ra_issued_to : int;
      (** end of the prefetch-issued region; the next chunk starts here *)
  v_ra_inflight : (int, unit) Hashtbl.t;
      (** page indexes an async prefetch is currently fetching *)
}

(** Hooks a content-addressable store registers with the VFS ({!set_cas}).
    The VFS consults them on page faults so vnodes of sealed (read-only
    instantiated) files alias the store's refcounted shared pages instead
    of reading through the file system; every page-removal path gives the
    reference back. The record keeps [Vfs] free of a dependency on the
    store implementation. *)
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

(* The counters of [t.stats] the page cache bumps, resolved once. *)
type counters = {
  page_hits : Sim.Stats.Counter.t Lazy.t;
  page_misses : Sim.Stats.Counter.t Lazy.t;
  page_waits : Sim.Stats.Counter.t Lazy.t;
  page_reclaims : Sim.Stats.Counter.t Lazy.t;
  dcache_hits : Sim.Stats.Counter.t Lazy.t;
  dcache_misses : Sim.Stats.Counter.t Lazy.t;
  readahead_pages : Sim.Stats.Counter.t Lazy.t;
  wb_calls : Sim.Stats.Counter.t Lazy.t;
  wb_pages : Sim.Stats.Counter.t Lazy.t;
  wb_errors : Sim.Stats.Counter.t Lazy.t;
  dirty_throttles : Sim.Stats.Counter.t Lazy.t;
  cas_cow_breaks : Sim.Stats.Counter.t Lazy.t;
  fsyncs : Sim.Stats.Counter.t Lazy.t;
}

let counters stats =
  let c = Sim.Stats.lazy_counter stats in
  {
    page_hits = c "page_hits";
    page_misses = c "page_misses";
    page_waits = c "page_waits";
    page_reclaims = c "page_reclaims";
    dcache_hits = c "dcache_hits";
    dcache_misses = c "dcache_misses";
    readahead_pages = c "readahead_pages";
    wb_calls = c "wb_calls";
    wb_pages = c "wb_pages";
    wb_errors = c "wb_errors";
    dirty_throttles = c "dirty_throttles";
    cas_cow_breaks = c "cas_cow_breaks";
    fsyncs = c "fsyncs";
  }

type t = {
  machine : Machine.t;
  ops : fs_ops;
  page_size : int;
  vnodes : (int, vnode) Hashtbl.t;
  mutable detached : vnode list;
      (** vnodes of files being deleted or deleted while open: out of
          [vnodes], so a recycled inode number gets a fresh vnode, but
          their pages are still cached and accounted *)
  dcache : (int * string, int) Hashtbl.t;  (** (dir, name) -> ino *)
  total_dirty : Pcpu.t;  (** dirty pages across all files *)
  total_pages : Pcpu.t;  (** all cached pages (memory pressure) *)
  page_cap : int;  (** reclaim threshold, in pages *)
  dirty_limit : int;  (** balance_dirty_pages threshold *)
  dirty_bg : int;  (** background writeback threshold *)
  mutable flusher_running : bool;
  mutable active : bool;
  stats : Sim.Stats.t;
  ctr : counters;
  mutable ra_pending : int;  (** outstanding async readahead fibers *)
  mutable ra_enabled : bool;  (** ablation switch; on by default *)
  ra_issued : Sim.Stats.Counter.t;  (** pages prefetched (machine-wide) *)
  ra_hit : Sim.Stats.Counter.t;  (** page hits satisfied by readahead *)
  mutable modify_hook : (int -> unit) option;
      (** lease hook: called with the inode number after every successful
          data mutation (write, truncate) — the file server uses it to bump
          change attributes and break client leases when the file system is
          written beneath it *)
  mutable cas : cas_ops option;  (** content-addressable store hooks *)
}

let page_size t = t.page_size
let set_modify_hook t h = t.modify_hook <- h

let notify_modify t ino =
  match t.modify_hook with Some f -> f ino | None -> ()
let machine t = t.machine
let ops t = t.ops
let stats t = t.stats

let cost t = Machine.cost t.machine
let cpu t ns = Machine.cpu_work t.machine ns
let tracer t = Machine.tracer t.machine

let set_cas t c = t.cas <- c

let cas_hashes t v =
  match t.cas with None -> None | Some c -> c.cas_lookup v.v_ino

let cas_unbind t ino =
  match t.cas with Some c -> c.cas_unbind ino | None -> ()

(* Give a page's shared-table reference back. Every path that removes a
   page from a page table funnels through this, or the store's refcounts
   drift from the alias count and the accounting oracle fires. *)
let release_shared t p =
  match p.pshared with
  | None -> ()
  | Some h ->
      p.pshared <- None;
      (match t.cas with Some c -> c.cas_release h | None -> ())

let vnode_of t ino ~kind ~size =
  match Hashtbl.find_opt t.vnodes ino with
  | Some v -> v
  | None ->
      let v =
        {
          v_ino = ino;
          v_kind = kind;
          v_size = size;
          v_pages = Hashtbl.create 16;
          v_dirty_pages = 0;
          v_rw = Sim.Sync.Rwlock.create ~name:"inode" ();
          v_wb = Sim.Sync.Mutex.create ~name:"wb" ();
          v_nopen = 0;
          v_unlinked = false;
          v_ra_next = 0;
          v_ra_window = 0;
          v_ra_issued_to = 0;
          v_ra_inflight = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.vnodes ino v;
      v

let find_vnode t ino = Hashtbl.find_opt t.vnodes ino

(* Every vnode holding pages: the table and the detached ones. *)
let iter_vnodes t f =
  Hashtbl.iter (fun _ v -> f v) t.vnodes;
  List.iter f t.detached

(* Memory pressure: drop clean pages of unopened files until comfortably
   below the cap (the kernel's page reclaim, radically simplified). *)
let reclaim_pages t =
  if Pcpu.read t.total_pages > t.page_cap then begin
    Sim.Stats.bump t.ctr.page_reclaims;
    let target = t.page_cap * 7 / 8 in
    iter_vnodes t
      (fun v ->
        if Pcpu.read t.total_pages > target && v.v_nopen = 0 then begin
          let clean =
            Hashtbl.fold
              (fun i p acc -> if p.pdirty then acc else i :: acc)
              v.v_pages []
          in
          List.iter
            (fun i ->
              if Pcpu.read t.total_pages > target then begin
                (match Hashtbl.find_opt v.v_pages i with
                | Some p -> release_shared t p
                | None -> ());
                Hashtbl.remove v.v_pages i;
                Pcpu.add t.total_pages (-1)
              end)
            clean
        end)
  end

(* Insert [p] at [index], keeping the cached/dirty totals exact even when
   it replaces an existing page (two readers faulting the same index
   concurrently): the displaced page's accounting must not leak, or the
   totals drift up and the dirty throttle misfires. *)
let insert_page t v index p =
  (match Hashtbl.find_opt v.v_pages index with
  | Some old ->
      if old.pdirty then begin
        v.v_dirty_pages <- v.v_dirty_pages - 1;
        Pcpu.add t.total_dirty (-1)
      end;
      release_shared t old
  | None -> Pcpu.add t.total_pages 1);
  Hashtbl.replace v.v_pages index p;
  reclaim_pages t

(* Debug-build accounting oracle: recompute the dirty/cached totals from
   the page tables and fail loudly on any drift. Enabled by tests; too
   expensive (O(cached pages)) for normal runs. *)
let debug_accounting = ref false
let set_debug_accounting b = debug_accounting := b

let check_accounting_body t =
  let dirty = ref 0 and pages = ref 0 in
  iter_vnodes t
    (fun v ->
      let vd =
        Hashtbl.fold (fun _ p n -> if p.pdirty then n + 1 else n) v.v_pages 0
      in
      if vd <> v.v_dirty_pages then
        failwith
          (Printf.sprintf "vfs: ino %d dirty counter %d <> actual %d" v.v_ino
             v.v_dirty_pages vd);
      dirty := !dirty + vd;
      pages := !pages + Hashtbl.length v.v_pages);
  if !dirty <> Pcpu.read t.total_dirty then
    failwith
      (Printf.sprintf "vfs: total_dirty %d <> actual %d"
         (Pcpu.read t.total_dirty) !dirty);
  if !pages <> Pcpu.read t.total_pages then
    failwith
      (Printf.sprintf "vfs: total_pages %d <> actual %d"
         (Pcpu.read t.total_pages) !pages);
  (* Shared-page oracle: every resident CAS entry's refcount must equal
     the number of page-table aliases of that hash, a shared page must be
     clean (COW privatises before any dirtying), and a zero-ref entry
     must have been reclaimed. *)
  match t.cas with
  | None -> ()
  | Some c ->
      let aliases : (int64, int) Hashtbl.t = Hashtbl.create 64 in
      iter_vnodes t
        (fun v ->
          Hashtbl.iter
            (fun i p ->
              match p.pshared with
              | None -> ()
              | Some h ->
                  if p.pdirty then
                    failwith
                      (Printf.sprintf "vfs: ino %d page %d shared AND dirty"
                         v.v_ino i);
                  Hashtbl.replace aliases h
                    (1 + Option.value ~default:0 (Hashtbl.find_opt aliases h)))
            v.v_pages);
      let table = c.cas_debug_refs () in
      List.iter
        (fun (h, refs) ->
          let actual = Option.value ~default:0 (Hashtbl.find_opt aliases h) in
          if refs <> actual then
            failwith
              (Printf.sprintf "vfs: cas hash %Lx refcount %d <> %d aliases" h
                 refs actual);
          if refs = 0 then
            failwith
              (Printf.sprintf "vfs: cas hash %Lx resident with zero refs" h))
        table;
      Hashtbl.iter
        (fun h n ->
          if n > 0 && not (List.mem_assoc h table) then
            failwith
              (Printf.sprintf
                 "vfs: %d aliases of cas hash %Lx but no shared entry" n h))
        aliases

(* The oracle firing is exactly the moment the flight recorder exists
   for: capture the ring and the current request's causal trace before
   the failure unwinds the fiber. *)
let check_accounting t =
  try check_accounting_body t
  with Failure msg as e ->
    ignore
      (Sim.Flight.trigger (Machine.flight t.machine)
         ("accounting oracle: " ^ msg));
    raise e

let cached_pages t = Pcpu.read t.total_pages
let dirty_pages t = Pcpu.read t.total_dirty

(* ------------------------------------------------------------------ *)
(* Writeback.                                                          *)

(* Split the sorted dirty page list into contiguous runs capped at
   [wb_batch]; each run becomes one [write_pages] call. With wb_batch = 1
   this degenerates into per-page writepage calls. *)
let runs_of_indexes ~batch indexes =
  let rec go acc run = function
    | [] -> List.rev (if run = [] then acc else List.rev run :: acc)
    | i :: rest -> (
        match run with
        | [] -> go acc [ i ] rest
        | last :: _ when i = last + 1 && List.length run < batch ->
            go acc (i :: run) rest
        | _ -> go (List.rev run :: acc) [ i ] rest)
  in
  go [] [] indexes

(* One copy of a contiguous run of pages, from entry [first] on, into a
   fresh buffer of exactly [len] bytes. *)
let gather_pages (pages : (int * Bytes.t) array) ~first ~len =
  let buf = Bytes.create len in
  let rec go i off =
    if off < len then begin
      let page = snd pages.(i) in
      let n = min (Bytes.length page) (len - off) in
      Bytes.blit page 0 buf off n;
      go (i + 1) (off + n)
    end
  in
  go first 0;
  buf

(* Sample total dirty pages as a Perfetto counter track (no-op while
   tracing is disabled). *)
let sample_dirty t =
  Sim.Trace.counter (tracer t) ~cat:"vfs" "vfs:dirty_pages"
    (Int64.of_int (Pcpu.read t.total_dirty))

let wb_max_inflight = 8
(** Cap on concurrently dispatched [write_pages] calls per file — the
    flusher's queue depth, matching the device's channel count. *)

(** Write all dirty pages of [v] down into the file system. Each
    contiguous run becomes one [write_pages] call; distinct runs are
    dispatched concurrently (the block layer's async submit path) and all
    are awaited before returning. *)
let writeback_vnode t v =
  Machine.with_layer t.machine "vfs" @@ fun () ->
  Sim.Trace.with_span (tracer t) ~cat:"vfs" "vfs:writeback" (fun () ->
  Sim.Sync.Mutex.with_lock v.v_wb (fun () ->
      let dirty =
        Hashtbl.fold (fun i p acc -> if p.pdirty then i :: acc else acc) v.v_pages []
        |> List.sort compare
      in
      if dirty <> [] then begin
        let runs = runs_of_indexes ~batch:t.ops.wb_batch dirty in
        (* Snapshot every run up front, clearing dirty bits, so writes
           racing with the I/O re-dirty pages instead of being lost. *)
        let batches =
          List.filter_map
            (fun run ->
              let pages =
                List.filter_map
                  (fun i ->
                    match Hashtbl.find_opt v.v_pages i with
                    | Some p when p.pdirty ->
                        p.pdirty <- false;
                        v.v_dirty_pages <- v.v_dirty_pages - 1;
                        Pcpu.add t.total_dirty (-1);
                        Some (i, p.pdata)
                    | _ -> None)
                  run
                |> Array.of_list
              in
              if Array.length pages = 0 then None else Some pages)
            runs
        in
        let issue pages =
          Sim.Stats.bump t.ctr.wb_calls;
          Sim.Stats.bump ~by:(Array.length pages) t.ctr.wb_pages;
          match t.ops.write_pages ~ino:v.v_ino ~isize:v.v_size pages with
          | Ok () -> ()
          | Error _ ->
              (* Keep going; the error is recorded like Linux does with
                 AS_EIO. *)
              Sim.Stats.bump t.ctr.wb_errors
        in
        match batches with
        | [] -> ()
        | [ pages ] -> issue pages
        | batches ->
            let n = List.length batches in
            let window = Sim.Sync.Semaphore.create wb_max_inflight in
            let done_sem = Sim.Sync.Semaphore.create 0 in
            let first_exn = ref None in
            List.iter
              (fun pages ->
                Sim.Sync.Semaphore.acquire window;
                Machine.spawn ~name:"wb" t.machine (fun () ->
                    Machine.with_layer t.machine "vfs" (fun () ->
                        (try issue pages
                         with e ->
                           if !first_exn = None then first_exn := Some e);
                        Sim.Sync.Semaphore.release window;
                        Sim.Sync.Semaphore.release done_sem)))
              batches;
            for _ = 1 to n do
              Sim.Sync.Semaphore.acquire done_sem
            done;
            (match !first_exn with Some e -> raise e | None -> ())
      end));
  if !debug_accounting then check_accounting t;
  sample_dirty t

(** Balance: a writer that pushed the system over the dirty limit does
    writeback of its own file until below (Linux balance_dirty_pages). *)
let balance_dirty t v =
  sample_dirty t;
  if !debug_accounting then check_accounting t;
  if Pcpu.read t.total_dirty > t.dirty_limit then begin
    Sim.Stats.bump t.ctr.dirty_throttles;
    writeback_vnode t v
  end

let wb_all_fanout = 4
(** Files written back concurrently by [writeback_all] — the flusher's
    per-file parallelism. Per-file order within {!writeback_vnode} is
    still serialised by each vnode's [v_wb] lock. *)

let writeback_all t =
  let vs = ref [] in
  iter_vnodes t (fun v -> vs := v :: !vs);
  let vs = List.sort (fun a b -> compare a.v_ino b.v_ino) !vs in
  match List.filter (fun v -> v.v_dirty_pages > 0) vs with
  | [] -> ()
  | [ v ] -> writeback_vnode t v
  | dirty ->
      (* Dirty files flush concurrently under a bounded window, so one
         slow file's I/O does not serialise the whole sync pass. *)
      let n = List.length dirty in
      let window = Sim.Sync.Semaphore.create wb_all_fanout in
      let done_sem = Sim.Sync.Semaphore.create 0 in
      let first_exn = ref None in
      List.iter
        (fun v ->
          Sim.Sync.Semaphore.acquire window;
          Machine.spawn ~name:"wb-all" t.machine (fun () ->
              (try writeback_vnode t v
               with e -> if !first_exn = None then first_exn := Some e);
              Sim.Sync.Semaphore.release window;
              Sim.Sync.Semaphore.release done_sem))
        dirty;
      for _ = 1 to n do
        Sim.Sync.Semaphore.acquire done_sem
      done;
      (match !first_exn with Some e -> raise e | None -> ())

(* Background flusher fiber: periodic writeback above the bg threshold,
   mirroring the kernel's dirty_writeback_centisecs behaviour. *)
let start_flusher t =
  if not t.flusher_running then begin
    t.flusher_running <- true;
    Machine.spawn ~name:"flusher" t.machine (fun () ->
        let rec loop () =
          if t.active then begin
            Sim.Engine.sleep (Sim.Time.ms 500);
            if t.active && Pcpu.read t.total_dirty > t.dirty_bg then
              writeback_all t;
            loop ()
          end
        in
        loop ();
        t.flusher_running <- false)
  end

(* ------------------------------------------------------------------ *)
(* Mount / unmount.                                                    *)

let mount ?(dirty_limit = 48 * 256) ?(page_cap = 131072) ?(background = true)
    machine ops =
  let stats = Sim.Stats.create () in
  let t =
    {
      machine;
      ops;
      page_size = Device.Ssd.block_size (Machine.disk machine);
      vnodes = Hashtbl.create 1024;
      detached = [];
      dcache = Hashtbl.create 4096;
      total_dirty = Pcpu.create ();
      total_pages = Pcpu.create ();
      page_cap;
      dirty_limit;
      dirty_bg = dirty_limit / 2;
      flusher_running = false;
      active = true;
      stats;
      ctr = counters stats;
      ra_pending = 0;
      ra_enabled = true;
      ra_issued = Machine.counter machine "readahead_issued";
      ra_hit = Machine.counter machine "readahead_hit";
      modify_hook = None;
      cas = None;
    }
  in
  if background then start_flusher t;
  (* Live page-cache and CAS shared-page-table probes for
     `bento_cli inspect`. *)
  Machine.register_inspector machine ~name:"vfs" (fun () ->
      let open Util.Json in
      Obj
        [
          ("fs", String t.ops.fs_name);
          ("vnodes", Int (Hashtbl.length t.vnodes));
          ("cached_pages", Int (Pcpu.read t.total_pages));
          ("dirty_pages", Int (Pcpu.read t.total_dirty));
          ("page_cap", Int t.page_cap);
          ("dirty_limit", Int t.dirty_limit);
        ]);
  Machine.register_inspector machine ~name:"cas" (fun () ->
      let open Util.Json in
      match t.cas with
      | None -> Obj [ ("bound", Bool false) ]
      | Some c ->
          let table = c.cas_debug_refs () in
          let total_refs = List.fold_left (fun a (_, r) -> a + r) 0 table in
          Obj
            [
              ("bound", Bool true);
              ("resident_pages", Int (List.length table));
              ("total_refs", Int total_refs);
              ( "pages",
                List
                  (List.map
                     (fun (h, refs) ->
                       Obj
                         [
                           ("hash", String (Printf.sprintf "%Lx" h));
                           ("refs", Int refs);
                         ])
                     table) );
            ]);
  Printk.info machine "vfs: mounted %s (root ino %d, wb_batch %d)"
    ops.fs_name ops.root_ino ops.wb_batch;
  t

(** Flush everything and deactivate. Safe to call from a fiber. *)
let unmount t =
  Printk.info t.machine "vfs: unmounting %s" t.ops.fs_name;
  (* Stop new prefetches and wait out in-flight ones, so no readahead
     fiber dispatches into the fs after it is destroyed. *)
  t.active <- false;
  while t.ra_pending > 0 do
    Sim.Engine.sleep (Sim.Time.us 50)
  done;
  writeback_all t;
  (match t.ops.sync_fs () with
  | Ok () -> ()
  | Error _ -> Sim.Stats.bump t.ctr.wb_errors);
  Hashtbl.reset t.dcache

(* ------------------------------------------------------------------ *)
(* Dentry cache.                                                       *)

let dcache_lookup t ~dir name =
  cpu t (cost t).Cost.dcache_hit;
  Hashtbl.find_opt t.dcache (dir, name)

let dcache_insert t ~dir name ino = Hashtbl.replace t.dcache (dir, name) ino

let dcache_remove t ~dir name = Hashtbl.remove t.dcache (dir, name)

(** Lookup with dcache in front of the file system (the real VFS fast
    path). The dcache maps names to inode numbers only; attributes always
    come from the file system's in-core inode, so they are never stale. *)
let lookup t ~dir name : stat res =
  match dcache_lookup t ~dir name with
  | Some ino -> (
      Sim.Stats.bump t.ctr.dcache_hits;
      match t.ops.getattr ino with
      | Ok _ as r -> r
      | Error _ ->
          (* stale dentry (inode recycled): drop and retry below *)
          dcache_remove t ~dir name;
          t.ops.lookup ~dir name)
  | None -> (
      Sim.Stats.bump t.ctr.dcache_misses;
      match t.ops.lookup ~dir name with
      | Ok st ->
          dcache_insert t ~dir name st.st_ino;
          Ok st
      | Error _ as e -> e)

(* ------------------------------------------------------------------ *)
(* Generic file read / write through the page cache.                   *)

let rec page_of t v index : (page, Errno.t) result =
  cpu t (cost t).Cost.page_lookup;
  match Hashtbl.find_opt v.v_pages index with
  | Some p ->
      Sim.Stats.bump t.ctr.page_hits;
      if p.pra then begin
        p.pra <- false;
        Sim.Stats.Counter.incr t.ra_hit
      end;
      Ok p
  | None when Hashtbl.mem v.v_ra_inflight index ->
      (* An async prefetch already has this page on the wire: wait for it
         (the page-lock wait in Linux) rather than issue a duplicate
         device read. If the prefetch fails it clears the in-flight mark
         without inserting, and the retry faults the page in itself. *)
      Sim.Stats.bump t.ctr.page_waits;
      while Hashtbl.mem v.v_ra_inflight index do
        Sim.Engine.sleep (Sim.Time.us 5)
      done;
      page_of t v index
  | None -> (
      match cas_alias t v index with
      | Some r -> r
      | None -> (
          Sim.Stats.bump t.ctr.page_misses;
          Sim.Trace.instant (tracer t) ~cat:"vfs" "vfs:page_miss";
          match t.ops.readpage ~ino:v.v_ino ~index with
          | Ok data -> (
              (* readpage blocked for device I/O: a concurrent reader may
                 have instantiated this page meanwhile. Adopt the cached
                 page rather than replacing it — replacing would discard
                 dirty bits a racing writer set and double-count the
                 cached total. *)
              match Hashtbl.find_opt v.v_pages index with
              | Some p -> Ok p
              | None ->
                  let p =
                    { pdata = data; pdirty = false; pra = false;
                      pshared = None }
                  in
                  insert_page t v index p;
                  Ok p)
          | Error _ as e -> e))

(* The many-to-one page path: a fault on a CAS-bound inode resolves
   through the store's shared-page table instead of the file system. A
   table hit aliases the identical cached [Bytes.t] another tenant's
   vnode already maps — zero device I/O, zero copy; a miss fills the
   shared page once from the CAS region (bypassing the buffer cache) and
   then aliases it. The on-disk file is a metadata-only stub, so falling
   through to [readpage] would return zeros — bound inodes must never
   take that path for indexes the manifest covers. *)
and cas_alias t v index : (page, Errno.t) result option =
  match t.cas with
  | None -> None
  | Some c -> (
      match c.cas_lookup v.v_ino with
      | None -> None
      | Some hashes when index < Array.length hashes ->
          let h = hashes.(index) in
          let data = c.cas_acquire h in
          (* acquire may block on device I/O: adopt a racer's page and
             give our reference back rather than double-count the alias *)
          (match Hashtbl.find_opt v.v_pages index with
          | Some p ->
              c.cas_release h;
              Some (Ok p)
          | None ->
              let p =
                { pdata = data; pdirty = false; pra = false;
                  pshared = Some h }
              in
              insert_page t v index p;
              Some (Ok p))
      | Some _ ->
          (* beyond the sealed content (reads clamp to v_size, so only
             reachable through a stale size): zeros via the sparse stub *)
          None)

(* A page being created entirely beyond the current data does not need a
   disk read. *)
let page_for_write t v index =
  cpu t (cost t).Cost.page_lookup;
  match Hashtbl.find_opt v.v_pages index with
  | Some p -> Ok p
  | None ->
      let beyond = index * t.page_size >= v.v_size in
      if beyond then begin
        let p = { pdata = Bytes.make t.page_size '\000'; pdirty = false;
                  pra = false; pshared = None } in
        insert_page t v index p;
        Ok p
      end
      else page_of t v index

(* ------------------------------------------------------------------ *)
(* Page-cache readahead (the ondemand algorithm, radically simplified):
   per-file sequential-access detection with a window that ramps up on
   every sequential read and collapses on a seek. The window is fetched
   asynchronously — prefetch fibers call the fs's bulk [readahead] op and
   insert pages behind the reader's back — so cold sequential reads
   overlap device time with the foreground's misses. *)

let ra_init_window = 4
let ra_max_window = 32 (* 128 KB, the kernel's default readahead cap *)

let set_readahead t on = t.ra_enabled <- on

let maybe_readahead t v ~first ~last =
  (* CAS-bound files must not prefetch through the fs: on disk they are
     metadata-only sparse stubs, so [readahead] would insert zero-filled
     pages over the sealed content. Their warm path is the shared-page
     table; there is nothing useful to prefetch. *)
  if t.active && t.ra_enabled && v.v_kind = Reg && cas_hashes t v = None
  then begin
    if first <= v.v_ra_next && v.v_ra_next <= last + 1 then begin
      v.v_ra_next <- last + 1;
      (* Issue a whole window-sized chunk, not the sliding tail: a new
         chunk goes out only when the reader is within half a window of
         the end of the issued region (the PG_readahead marker), so
         prefetch I/O stays in window-sized contiguous runs the block
         layer can merge into single device commands. *)
      if last + 1 + (v.v_ra_window / 2) >= v.v_ra_issued_to then begin
        v.v_ra_window <-
          (if v.v_ra_window = 0 then ra_init_window
           else min ra_max_window (2 * v.v_ra_window));
        let limit = (v.v_size + t.page_size - 1) / t.page_size in
        let lo = max (last + 1) v.v_ra_issued_to in
        let hi = min limit (lo + v.v_ra_window) in
        v.v_ra_issued_to <- max v.v_ra_issued_to hi;
        let missing = ref [] in
        for i = hi - 1 downto lo do
          if
            (not (Hashtbl.mem v.v_pages i))
            && not (Hashtbl.mem v.v_ra_inflight i)
          then missing := i :: !missing
        done;
        List.iter
          (fun run ->
            let start = List.hd run and count = List.length run in
            List.iter (fun i -> Hashtbl.replace v.v_ra_inflight i ()) run;
            Sim.Stats.Counter.incr ~by:count t.ra_issued;
            Sim.Stats.bump ~by:count t.ctr.readahead_pages;
            t.ra_pending <- t.ra_pending + 1;
            Machine.spawn ~name:"readahead" t.machine (fun () ->
                Fun.protect
                  ~finally:(fun () ->
                    List.iter (fun i -> Hashtbl.remove v.v_ra_inflight i) run;
                    t.ra_pending <- t.ra_pending - 1)
                  (fun () ->
                    (* Best effort: readahead failures are invisible, as in
                       Linux — the foreground read will fault the page in
                       itself and surface any real error. *)
                    match t.ops.readahead ~ino:v.v_ino ~start ~count with
                    | Error _ | (exception _) -> ()
                    | Ok pages ->
                        Array.iteri
                          (fun i data ->
                            let idx = start + i in
                            if
                              t.active
                              && (not (Hashtbl.mem v.v_pages idx))
                              && idx * t.page_size < v.v_size
                            then
                              insert_page t v idx
                                { pdata = data; pdirty = false; pra = true;
                                  pshared = None })
                          pages)))
          (runs_of_indexes ~batch:max_int !missing)
      end
    end
    else begin
      (* Seek: collapse the window; a new stream restarts the ramp. *)
      v.v_ra_window <- 0;
      v.v_ra_next <- last + 1;
      v.v_ra_issued_to <- last + 1
    end
  end

(** Read [len] bytes at [pos]; short reads at EOF. *)
let read t v ~pos ~len : Bytes.t res =
  if pos < 0 || len < 0 then Error Errno.EINVAL
  else
    Sim.Sync.Rwlock.with_read v.v_rw (fun () ->
        let len = max 0 (min len (v.v_size - pos)) in
        if len = 0 then Ok Bytes.empty
        else begin
          maybe_readahead t v ~first:(pos / t.page_size)
            ~last:((pos + len - 1) / t.page_size);
          let out = Bytes.create len in
          let rec go off =
            if off >= len then Ok out
            else begin
              let abs = pos + off in
              let index = abs / t.page_size in
              let page_off = abs mod t.page_size in
              let n = min (t.page_size - page_off) (len - off) in
              match page_of t v index with
              | Error _ as e -> e
              | Ok p ->
                  cpu t (Cost.copy_time ~bw:(cost t).Cost.memcpy_bw n);
                  Bytes.blit p.pdata page_off out off n;
                  go (off + n)
            end
          in
          go 0
        end)

(* Copy-on-write: the first mutation of a CAS-bound file privatises the
   whole file and breaks the binding, after which it is an ordinary file.
   Ordering gives the crash oracle its old-or-new guarantee:
     1. fault every sealed page in (cheap: shared-table aliases),
     2. replace the shared aliases with private dirty copies,
     3. push the full content into the file system and fsync it,
     4. only then durably remove the binding ([cas_cow]).
   A crash before step 4 leaves the binding in place, so readers see the
   old shared content; after it, the fsynced private copy — never a mix.
   Runs under the vnode's write lock, so no reader observes the middle. *)
let privatize t v (c : cas_ops) : unit res =
  let npages = (v.v_size + t.page_size - 1) / t.page_size in
  let rec fault i =
    if i >= npages then Ok ()
    else match page_of t v i with Ok _ -> fault (i + 1) | Error _ as e -> e
  in
  match fault 0 with
  | Error _ as e -> e
  | Ok () ->
      for i = 0 to npages - 1 do
        match Hashtbl.find_opt v.v_pages i with
        | None -> ()
        | Some p ->
            if p.pshared <> None then begin
              release_shared t p;
              let priv =
                { pdata = Bytes.copy p.pdata; pdirty = true; pra = false;
                  pshared = None }
              in
              Hashtbl.replace v.v_pages i priv;
              v.v_dirty_pages <- v.v_dirty_pages + 1;
              Pcpu.add t.total_dirty 1
            end
            else if not p.pdirty then begin
              (* already private (defensive): still dirty it so the full
                 content reaches the fs before the binding is removed *)
              p.pdirty <- true;
              v.v_dirty_pages <- v.v_dirty_pages + 1;
              Pcpu.add t.total_dirty 1
            end
      done;
      writeback_vnode t v;
      (match t.ops.fsync ~ino:v.v_ino with
      | Error _ as e -> e
      | Ok () ->
          c.cas_cow v.v_ino;
          Sim.Stats.bump t.ctr.cas_cow_breaks;
          Ok ())

(* Break the share before any mutation of a CAS-bound file. Must run
   under the vnode's write lock (callers below hold it), which also
   serialises racing first-writers. *)
let maybe_cow t v : unit res =
  match t.cas with
  | Some c when c.cas_lookup v.v_ino <> None -> privatize t v c
  | _ -> Ok ()

(** Write [data] at [pos], extending the file as needed. *)
let write t v ~pos data : int res =
  let len = Bytes.length data in
  if pos < 0 then Error Errno.EINVAL
  else if pos + len > t.ops.max_file_size then Error Errno.EFBIG
  else
    let r =
      Sim.Sync.Rwlock.with_write v.v_rw (fun () ->
          match maybe_cow t v with
          | Error _ as e -> e
          | Ok () ->
          let rec go off =
            if off >= len then Ok len
            else begin
              let abs = pos + off in
              let index = abs / t.page_size in
              let page_off = abs mod t.page_size in
              let n = min (t.page_size - page_off) (len - off) in
              match page_for_write t v index with
              | Error _ as e -> e
              | Ok p ->
                  cpu t (Cost.copy_time ~bw:(cost t).Cost.memcpy_bw n);
                  Bytes.blit data off p.pdata page_off n;
                  if not p.pdirty then begin
                    p.pdirty <- true;
                    v.v_dirty_pages <- v.v_dirty_pages + 1;
                    Pcpu.add t.total_dirty 1
                  end;
                  go (off + n)
            end
          in
          let r = go 0 in
          (match r with
          | Ok _ -> if pos + len > v.v_size then v.v_size <- pos + len
          | Error _ -> ());
          r)
    in
    (match r with
    | Ok _ ->
        balance_dirty t v;
        notify_modify t v.v_ino
    | Error _ -> ());
    r

(** fsync: push this file's dirty pages into the fs, then ask the fs to
    make them durable. *)
let fsync t v : unit res =
  Sim.Stats.bump t.ctr.fsyncs;
  Machine.with_layer t.machine "vfs" @@ fun () ->
  Sim.Trace.with_span (tracer t) ~cat:"vfs" "vfs:fsync" (fun () ->
      let t0 = Machine.now t.machine in
      writeback_vnode t v;
      let r = t.ops.fsync ~ino:v.v_ino in
      Sim.Stats.Histogram.record
        (Machine.histogram t.machine "fsync_lat")
        (Int64.sub (Machine.now t.machine) t0);
      r)

let truncate t v size : unit res =
  if size < 0 then Error Errno.EINVAL
  else if size > t.ops.max_file_size then Error Errno.EFBIG
  else begin
    let r =
      Sim.Sync.Rwlock.with_write v.v_rw (fun () ->
        match maybe_cow t v with
        | Error _ as e -> e
        | Ok () ->
        (* Drop whole pages beyond the new size; zero the tail of the last
           partial page. *)
        let first_dead = (size + t.page_size - 1) / t.page_size in
        let dead =
          Hashtbl.fold
            (fun i p acc -> if i >= first_dead then (i, p) :: acc else acc)
            v.v_pages []
        in
        List.iter
          (fun (i, p) ->
            if p.pdirty then begin
              v.v_dirty_pages <- v.v_dirty_pages - 1;
              Pcpu.add t.total_dirty (-1)
            end;
            release_shared t p;
            Hashtbl.remove v.v_pages i;
            Pcpu.add t.total_pages (-1))
          dead;
        if size mod t.page_size <> 0 then begin
          let last = size / t.page_size in
          match Hashtbl.find_opt v.v_pages last with
          | Some p ->
              let off = size mod t.page_size in
              Bytes.fill p.pdata off (t.page_size - off) '\000'
          | None -> ()
        end;
        match t.ops.truncate ~ino:v.v_ino size with
        | Ok () ->
            v.v_size <- size;
            Ok ()
        | Error _ as e -> e)
    in
    (match r with Ok () -> notify_modify t v.v_ino | Error _ -> ());
    r
  end

(* Drop all cached pages of a vnode (unlink of a closed file, eviction). *)
let invalidate_pages t v =
  Hashtbl.iter
    (fun _ p ->
      if p.pdirty then begin
        v.v_dirty_pages <- v.v_dirty_pages - 1;
        Pcpu.add t.total_dirty (-1)
      end;
      release_shared t p)
    v.v_pages;
  Pcpu.add t.total_pages (-(Hashtbl.length v.v_pages));
  Hashtbl.reset v.v_pages

let detach_vnode t ino =
  let v = Hashtbl.find_opt t.vnodes ino in
  Option.iter
    (fun v ->
      Hashtbl.remove t.vnodes ino;
      t.detached <- v :: t.detached)
    v;
  v

let undetach t v = t.detached <- List.filter (fun v' -> v' != v) t.detached

let reattach_vnode t v =
  if not (Hashtbl.mem t.vnodes v.v_ino) then begin
    undetach t v;
    Hashtbl.add t.vnodes v.v_ino v
  end

let drop_vnode t v =
  invalidate_pages t v;
  (* a detached vnode's number may already belong to a new file *)
  (match Hashtbl.find_opt t.vnodes v.v_ino with
  | Some v' when v' == v -> Hashtbl.remove t.vnodes v.v_ino
  | _ -> undetach t v);
  (* deletion context only (unlink / rename victim): a binding for a
     recycled inode number must not serve stale sealed content *)
  if v.v_unlinked then cas_unbind t v.v_ino

(** Full sync(2): all files, then the fs-wide sync. *)
let sync t : unit res =
  writeback_all t;
  t.ops.sync_fs ()

(** Flush everything, then drop every cached page and reset the per-file
    readahead state — `echo 3 > /proc/sys/vm/drop_caches`. Gives cold-read
    benchmarks a cold page cache without a remount. In-flight prefetches
    are waited out first so none re-populates the cache afterwards. *)
let drop_caches t : unit res =
  while t.ra_pending > 0 do
    Sim.Engine.sleep (Sim.Time.us 50)
  done;
  match sync t with
  | Error _ as e -> e
  | Ok () ->
      (* With CAS sharing a page may be unevictable: if an *open* vnode
         aliases the same shared entry, dropping this vnode's alias frees
         nothing — the bytes stay resident in the shared table. Keep such
         pages (Linux keeps pages it cannot free), evict everything else.
         The readahead/prefetch state is reset for every file regardless,
         and retained pages lose their readahead mark: the old reset
         assumed full eviction, and stale [pra] marks on surviving pages
         would credit the next read stream with hits it never earned. *)
      let held : (int64, unit) Hashtbl.t = Hashtbl.create 64 in
      iter_vnodes t
        (fun v ->
          if v.v_nopen > 0 then
            Hashtbl.iter
              (fun _ p ->
                match p.pshared with
                | Some h -> Hashtbl.replace held h ()
                | None -> ())
              v.v_pages);
      iter_vnodes t
        (fun v ->
          let doomed =
            Hashtbl.fold
              (fun i p acc ->
                match p.pshared with
                | Some h when Hashtbl.mem held h ->
                    p.pra <- false;
                    acc
                | _ -> (i, p) :: acc)
              v.v_pages []
          in
          List.iter
            (fun (i, p) ->
              if p.pdirty then begin
                (* sync above wrote everything back; defensive *)
                v.v_dirty_pages <- v.v_dirty_pages - 1;
                Pcpu.add t.total_dirty (-1)
              end;
              release_shared t p;
              Hashtbl.remove v.v_pages i;
              Pcpu.add t.total_pages (-1))
            doomed;
          v.v_ra_next <- 0;
          v.v_ra_window <- 0;
          v.v_ra_issued_to <- 0);
      if !debug_accounting then check_accounting t;
      Ok ()
