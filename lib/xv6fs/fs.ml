(** The xv6 file system, written against the Bento file-operations and
    kernel-services APIs only (§6 of the paper).

    The implementation follows xv6's layering — write-ahead log, block and
    inode allocators, in-core inode cache with sleeplocks, directories —
    with the paper's evaluation changes applied: 4 KB blocks, locks around
    inode and block allocation, and a double-indirect block so files reach
    4 GB (§6.1). Because it is a functor over [Bentoks.KSERVICES], the same
    code runs in the simulated kernel (BentoFS) and at user level behind
    FUSE (§4.9) — the "same code in both environments" goal.

    Log discipline (per transaction):
    1. snapshot the pinned modified blocks under the log lock and copy the
       images into the contiguous log area (batched, async across device
       channels),
    2. write the checksummed log header and FLUSH — the commit point,
    3. install the snapshot images to their home locations with
       cache-bypassing writes and FLUSH,
    4. clear the header (made durable by the next commit or unmount).
    Recovery validates the header checksum, so a torn commit is discarded
    rather than replayed.

    Commit is a *group commit*: the open transaction is cut (snapshotted)
    under the lock and the I/O runs with the lock released, so new
    operations join the next open transaction instead of convoying on the
    commit — and an fsync whose data was already covered by a concurrent
    commit returns without touching the device. *)

module L = Layout

module Make (K : Bento.Bentoks.KSERVICES) = struct
  open Bento.Fs_api

  let name = "xv6fs"
  let version = 1
  let max_file_size = L.max_file_size

  let bsize = K.block_size
  let () = assert (bsize = L.block_size)

  type 'a res = ('a, Kernel.Errno.t) result

  let ( let* ) (r : 'a res) f : 'b res =
    match r with Ok v -> f v | Error _ as e -> e

  (* ---------------------------------------------------------------- *)
  (* Write-ahead log.                                                  *)

  module Log = struct
    let max_op_blocks = 16
    (** Per-operation reservation; large writes are chunked to stay under
        it. *)

    type t = {
      header_block : int;
      start : int;  (** first log data block *)
      capacity : int;
      lock : K.Kmutex.t;
      cond : K.Kcondvar.t;
      mutable outstanding : int;
      mutable committing : bool;
      mutable order : int list;  (** staged home blocks, reverse order *)
      staged : (int, unit) Hashtbl.t;  (** home blocks pinned in cache *)
      mutable eager_dirty : bool;
          (** a metadata operation staged blocks since the last commit *)
      mutable seq_open : int;  (** id of the open (accumulating) transaction *)
      mutable seq_done : int;  (** highest transaction made durable *)
      mutable force_waiters : int;
          (** forcers draining in-flight operations to cut a commit; while
              nonzero (and no commit is running) new operations wait so the
              drain terminates under load *)
      mutable commits : int;
      mutable absorptions : int;
      mutable flush_on_commit : bool;
          (** ablation switch: false = volatile commits (unsafe) *)
    }

    let create (sb : L.superblock) =
      let t =
        {
          header_block = sb.L.logstart;
          start = sb.L.logstart + 1;
          capacity = min (sb.L.nlog - 1) L.log_max_entries;
          lock = K.Kmutex.create ~name:"log" ();
          cond = K.Kcondvar.create ();
          outstanding = 0;
          committing = false;
          order = [];
          staged = Hashtbl.create 64;
          eager_dirty = false;
          seq_open = 1;
          seq_done = 0;
          force_waiters = 0;
          commits = 0;
          absorptions = 0;
          flush_on_commit = true;
        }
      in
      K.register_inspector "log" (fun () ->
          [
            ("capacity", t.capacity);
            ("staged", Hashtbl.length t.staged);
            ("free_blocks", t.capacity - Hashtbl.length t.staged);
            ("outstanding", t.outstanding);
            ("commits", t.commits);
            ("absorptions", t.absorptions);
          ]);
      t

    (** Record a modified buffer in the running transaction. The buffer is
        pinned in the cache until installed; a block already staged is
        absorbed. The caller still brelse's its own reference. *)
    let log_write t (b : K.Buffer.t) =
      K.Kmutex.lock t.lock;
      if t.outstanding < 1 then begin
        K.Kmutex.unlock t.lock;
        invalid_arg "log_write outside of a transaction"
      end;
      let blk = K.Buffer.block b in
      K.cpu K.costs.Kernel.Cost.log_copy_per_block;
      (if Hashtbl.mem t.staged blk then t.absorptions <- t.absorptions + 1
       else begin
         if Hashtbl.length t.staged >= t.capacity then begin
           K.Kmutex.unlock t.lock;
           failwith "xv6fs log: transaction overflow"
         end;
         K.pin b;
         Hashtbl.replace t.staged blk ();
         t.order <- blk :: t.order;
         K.trace_counter "log:free_blocks"
           (t.capacity - Hashtbl.length t.staged)
       end);
      K.Kmutex.unlock t.lock

    (* Write a snapshotted batch of (home block, image) pairs to the log
       area, commit, install. Runs with [committing = true] but *without*
       the log lock: operations may join the next open transaction during
       the I/O (group commit). The images are installed with
       cache-bypassing writes because the cached home buffers may already
       carry newer, uncommitted contents from those operations. *)
    let do_commit t batch =
      let n = List.length batch in
      if n > 0 then begin
        K.profile "log" @@ fun () ->
        t.commits <- t.commits + 1;
        (* Machine-wide commit accounting, uniform across the journalled
           stacks (mean commit size = log_commit_blocks / log_commits). *)
        K.counter_add "log_commits" 1;
        K.counter_add "log_commit_blocks" n;
        (* 1. log data blocks, contiguous from t.start *)
        let log_bufs =
          List.mapi
            (fun i (_, image) ->
              let dst = K.getblk (t.start + i) in
              K.cpu K.costs.Kernel.Cost.log_copy_per_block;
              Bytes.blit image 0 (K.Buffer.data dst) 0 bsize;
              dst)
            batch
        in
        K.bwrite_all log_bufs;
        let checksum =
          Util.Fnv64.checksum_blocks (List.map (fun b -> K.Buffer.data b) log_bufs)
        in
        List.iter K.brelse log_bufs;
        (* 2. checksummed header; FLUSH = commit point *)
        let hdr = K.getblk t.header_block in
        L.put_log_header (K.Buffer.data hdr)
          { L.n; checksum; targets = Array.of_list (List.map fst batch) };
        K.bwrite hdr;
        K.brelse hdr;
        if t.flush_on_commit then K.flush ();
        (* 3. install the snapshot images to their scattered homes,
           bypassing the cache (merged into contiguous commands,
           concurrent across device channels) *)
        K.raw_write_scatter batch;
        (* the images are on the device: drop the stage pins taken by
           log_write *)
        List.iter (fun (blk, _) -> K.with_bread blk K.unpin) batch;
        if t.flush_on_commit then K.flush ();
        (* 4. clear the header; durable by the next commit's flush *)
        let hdr = K.getblk t.header_block in
        L.put_log_header (K.Buffer.data hdr)
          { L.n = 0; checksum = 0L; targets = [||] };
        K.bwrite hdr;
        K.brelse hdr
      end

    (* Cut the open transaction: snapshot its images under the lock, mark
       it committing, and release the lock for the I/O. New operations
       join the next open transaction meanwhile; their modifications
       cannot leak into this commit because the images were copied before
       any of them could start. Requires [outstanding = 0] (so nobody is
       mid-modification) and no commit in flight. Lock held on entry and
       exit. *)
    let commit_locked t =
      assert ((not t.committing) && t.outstanding = 0);
      if t.order <> [] then begin
        let seq = t.seq_open in
        t.seq_open <- seq + 1;
        let order = List.rev t.order in
        (* The staged blocks are pinned, so these breads are cache hits;
           nobody holds their sleeplocks across a lock acquisition while
           outstanding = 0, so this cannot deadlock. *)
        let batch =
          List.map
            (fun blk ->
              K.cpu K.costs.Kernel.Cost.log_copy_per_block;
              K.with_bread blk (fun b -> (blk, Bytes.copy (K.Buffer.data b))))
            order
        in
        t.order <- [];
        Hashtbl.reset t.staged;
        t.eager_dirty <- false;
        t.committing <- true;
        K.trace_counter "log:free_blocks" t.capacity;
        (* waiters may now start operations in the fresh open transaction *)
        K.Kcondvar.broadcast t.cond;
        K.Kmutex.unlock t.lock;
        do_commit t batch;
        K.Kmutex.lock t.lock;
        t.seq_done <- seq;
        t.committing <- false;
        K.Kcondvar.broadcast t.cond
      end

    let space_for t nops =
      Hashtbl.length t.staged + ((t.outstanding + nops) * max_op_blocks)
      <= t.capacity

    (** Reserve log space for one operation. [eager] operations (metadata
        syscalls) commit at [end_op] when no operation is outstanding — xv6
        semantics. Lazy operations (data writeback) only commit on log
        pressure, fsync, or sync: the group commit a Linux port needs so the
        write path is not one-commit-per-page. *)
    let begin_op ?(eager = true) t =
      ignore eager;
      K.Kmutex.lock t.lock;
      let rec wait () =
        if t.force_waiters > 0 && not t.committing then begin
          (* an fsync is draining the open transaction to cut a commit;
             joining now would push the drain out indefinitely under load.
             Once the cut happens ([committing] set) we join the fresh
             open transaction — the group-commit fast path. *)
          K.Kcondvar.wait t.cond t.lock;
          wait ()
        end
        else if not (space_for t 1) then
          if t.outstanding = 0 && not t.committing then begin
            (* log pressure with no one else to commit: do it ourselves *)
            commit_locked t;
            wait ()
          end
          else begin
            K.Kcondvar.wait t.cond t.lock;
            wait ()
          end
        else t.outstanding <- t.outstanding + 1
      in
      wait ();
      K.Kmutex.unlock t.lock

    let end_op ?(eager = true) t =
      K.Kmutex.lock t.lock;
      t.outstanding <- t.outstanding - 1;
      if eager && t.order <> [] then t.eager_dirty <- true;
      (* xv6's quiesce-point commit. If a commit is already in flight, the
         open transaction simply keeps accumulating and commits at the
         next quiesce, force, or pressure point. *)
      if
        t.outstanding = 0 && t.eager_dirty && t.order <> []
        && not t.committing
      then commit_locked t;
      K.Kcondvar.broadcast t.cond;
      K.Kmutex.unlock t.lock

    let with_op ?(eager = true) t f =
      begin_op ~eager t;
      match f () with
      | v ->
          end_op ~eager t;
          v
      | exception exn ->
          end_op ~eager t;
          raise exn

    (** Make everything staged before this call durable (fsync / sync /
        upgrade) — the group-commit path. The forcer computes the youngest
        transaction that can hold its data; once that transaction is
        durable it returns, whether it drove the commit itself, rode on
        one already in flight, or found a concurrent forcer had covered it
        (then it never touches the device). *)
    let force t =
      K.Kmutex.lock t.lock;
      let target =
        if t.order <> [] then t.seq_open
        else if t.committing then t.seq_open - 1
        else t.seq_done
      in
      if t.seq_done >= target then begin
        K.Kmutex.unlock t.lock;
        (* Nothing staged and nothing in flight: barrier for stray
           volatile writes (e.g. the cleared header). *)
        K.flush ()
      end
      else begin
        t.force_waiters <- t.force_waiters + 1;
        let rec drive () =
          if t.seq_done < target then
            if t.committing || t.outstanding > 0 then begin
              K.Kcondvar.wait t.cond t.lock;
              drive ()
            end
            else begin
              commit_locked t;
              drive ()
            end
        in
        drive ();
        t.force_waiters <- t.force_waiters - 1;
        if t.force_waiters = 0 then K.Kcondvar.broadcast t.cond;
        K.Kmutex.unlock t.lock
      end

    (** Replay a committed-but-not-installed transaction after a crash. *)
    let recover t =
      let hdr = K.bread t.header_block in
      let h = L.get_log_header (K.Buffer.data hdr) in
      K.brelse hdr;
      if h.L.n > 0 then begin
        let log_bufs =
          List.init h.L.n (fun i -> K.bread (t.start + i))
        in
        let checksum =
          Util.Fnv64.checksum_blocks (List.map (fun b -> K.Buffer.data b) log_bufs)
        in
        if Int64.equal checksum h.L.checksum then begin
          K.printk
            (Printf.sprintf "xv6fs: recovering %d block(s) from the log" h.L.n);
          (* install the logged blocks to their scattered homes in one
             plugged bio batch *)
          let bp = K.Bio.plug () in
          let homes =
            List.mapi
              (fun i lb ->
                let home = K.getblk h.L.targets.(i) in
                Bytes.blit (K.Buffer.data lb) 0 (K.Buffer.data home) 0 bsize;
                K.Bio.add bp home;
                home)
              log_bufs
          in
          K.Bio.wait bp;
          List.iter K.brelse homes;
          K.flush ()
        end;
        (if not (Int64.equal checksum h.L.checksum) then
           K.printk
             (Printf.sprintf
                "xv6fs: discarding torn log commit (%d blocks, bad checksum)"
                h.L.n));
        List.iter K.brelse log_bufs;
        let hdr = K.getblk t.header_block in
        L.put_log_header (K.Buffer.data hdr)
          { L.n = 0; checksum = 0L; targets = [||] };
        K.bwrite hdr;
        K.brelse hdr;
        K.flush ()
      end
  end

  (* ---------------------------------------------------------------- *)
  (* File-system instance state.                                       *)

  type inode = {
    inum : int;
    ilock : K.Kmutex.t;
    mutable valid : bool;
    mutable ftype : L.ftype;
    mutable nlink : int;
    mutable size : int;
    mutable addrs : int array;
    mutable refcount : int;  (** in-core references (icache) *)
    mutable nopen : int;  (** kernel open-file references *)
  }

  type t = {
    sb : L.superblock;
    log : Log.t;
    icache : (int, inode) Hashtbl.t;
    icache_lock : K.Kmutex.t;
    alloc_lock : K.Kmutex.t;  (** §6.1: lock around block/inode allocation *)
    mutable balloc_rotor : int;  (** next data block to try *)
    mutable ialloc_rotor : int;
    mutable free_blocks : int;
    mutable free_inodes : int;
    rename_lock : K.Kmutex.t;
  }

  (* ---------------------------------------------------------------- *)
  (* Block allocator (on-disk bitmap with an in-memory rotor).          *)

  let bitmap_get data bit =
    Char.code (Bytes.get data (bit / 8)) land (1 lsl (bit mod 8)) <> 0

  let bitmap_set data bit v =
    let byte = Char.code (Bytes.get data (bit / 8)) in
    let mask = 1 lsl (bit mod 8) in
    let byte = if v then byte lor mask else byte land lnot mask in
    Bytes.set data (bit / 8) (Char.chr byte)

  (** Allocate a zeroed data block inside the current transaction. *)
  let balloc t : int res =
    K.Kmutex.with_lock t.alloc_lock (fun () ->
        let total = t.sb.L.size in
        let rec scan tried b =
          if tried > total then Error Kernel.Errno.ENOSPC
          else begin
            let b = if b >= total then t.sb.L.datastart else b in
            let bmb = K.bread (L.bblock t.sb b) in
            (* scan forward within this bitmap block *)
            let bits = bsize * 8 in
            let base = b / bits * bits in
            let rec find bit =
              if bit >= bits || base + bit >= total then None
              else if
                base + bit >= t.sb.L.datastart
                && not (bitmap_get (K.Buffer.data bmb) bit)
              then Some (base + bit)
              else find (bit + 1)
            in
            K.cpu K.costs.Kernel.Cost.block_alloc;
            match find (b - base) with
            | Some blk ->
                bitmap_set (K.Buffer.data bmb) (L.bbit blk) true;
                Log.log_write t.log bmb;
                K.brelse bmb;
                t.balloc_rotor <- blk + 1;
                t.free_blocks <- t.free_blocks - 1;
                (* zero the block so stale data never leaks *)
                K.with_getblk blk (fun zb ->
                    Bytes.fill (K.Buffer.data zb) 0 bsize '\000';
                    Log.log_write t.log zb);
                Ok blk
            | None ->
                K.brelse bmb;
                scan (tried + (bits - (b - base))) (base + bits)
          end
        in
        scan 0 (max t.balloc_rotor t.sb.L.datastart))

  (** Free a data block inside the current transaction. *)
  let bfree t blk =
    if blk < t.sb.L.datastart || blk >= t.sb.L.size then
      invalid_arg "xv6fs.bfree: out of range";
    K.Kmutex.with_lock t.alloc_lock (fun () ->
        let bmb = K.bread (L.bblock t.sb blk) in
        if not (bitmap_get (K.Buffer.data bmb) (L.bbit blk)) then begin
          K.brelse bmb;
          failwith "xv6fs.bfree: freeing free block"
        end;
        bitmap_set (K.Buffer.data bmb) (L.bbit blk) false;
        Log.log_write t.log bmb;
        K.brelse bmb;
        t.free_blocks <- t.free_blocks + 1;
        if blk < t.balloc_rotor then t.balloc_rotor <- blk)

  (* ---------------------------------------------------------------- *)
  (* Inodes.                                                           *)

  let iget t inum =
    K.Kmutex.with_lock t.icache_lock (fun () ->
        match Hashtbl.find_opt t.icache inum with
        | Some ip ->
            ip.refcount <- ip.refcount + 1;
            ip
        | None ->
            let ip =
              {
                inum;
                ilock = K.Kmutex.create ~name:"inode" ();
                valid = false;
                ftype = L.F_free;
                nlink = 0;
                size = 0;
                addrs = Array.make (L.ndirect + 2) 0;
                refcount = 1;
                nopen = 0;
              }
            in
            Hashtbl.add t.icache inum ip;
            ip)

  (* Load the on-disk inode into the in-core copy; call with ilock held. *)
  let iload t ip =
    if not ip.valid then begin
      let b = K.bread (L.iblock t.sb ip.inum) in
      (match L.get_dinode (K.Buffer.data b) ~slot:(L.islot ip.inum) with
      | Ok d ->
          ip.ftype <- d.L.ftype;
          ip.nlink <- d.L.nlink;
          ip.size <- d.L.size;
          ip.addrs <- Array.copy d.L.addrs;
          ip.valid <- true
      | Error msg ->
          K.brelse b;
          failwith ("xv6fs: corrupt inode: " ^ msg));
      K.brelse b
    end

  let ilock t ip =
    K.Kmutex.lock ip.ilock;
    iload t ip

  let iunlock ip = K.Kmutex.unlock ip.ilock

  (** Persist the in-core inode (within the current transaction). *)
  let iupdate t ip =
    let b = K.bread (L.iblock t.sb ip.inum) in
    L.put_dinode (K.Buffer.data b) ~slot:(L.islot ip.inum)
      { L.ftype = ip.ftype; nlink = ip.nlink; size = ip.size; addrs = ip.addrs };
    Log.log_write t.log b;
    K.brelse b

  (** Allocate a fresh on-disk inode of [ftype] (inside a transaction) and
      return its number. The caller igets/ilocks it afterwards — never lock
      an inode while holding the allocation lock, or inode reuse can
      deadlock against writers waiting to allocate blocks. *)
  let ialloc t ftype : int res =
    K.Kmutex.with_lock t.alloc_lock (fun () ->
        let n = t.sb.L.ninodes in
        let rec scan tried inum =
          if tried >= n then Error Kernel.Errno.ENOSPC
          else begin
            let inum = if inum >= n then 1 else inum in
            let b = K.bread (L.iblock t.sb inum) in
            K.cpu K.costs.Kernel.Cost.block_alloc;
            let free =
              match L.get_dinode (K.Buffer.data b) ~slot:(L.islot inum) with
              | Ok d -> d.L.ftype = L.F_free
              | Error _ -> false
            in
            if free then begin
              L.put_dinode (K.Buffer.data b) ~slot:(L.islot inum)
                { L.zero_dinode with L.ftype };
              Log.log_write t.log b;
              K.brelse b;
              t.ialloc_rotor <- inum + 1;
              t.free_inodes <- t.free_inodes - 1;
              (* a stale in-core copy from a previous life of this inum
                 must be reloaded from disk on the next ilock *)
              K.Kmutex.with_lock t.icache_lock (fun () ->
                  match Hashtbl.find_opt t.icache inum with
                  | Some stale -> stale.valid <- false
                  | None -> ());
              Ok inum
            end
            else begin
              K.brelse b;
              scan (tried + 1) (inum + 1)
            end
          end
        in
        scan 0 (max 1 t.ialloc_rotor))

  (* ---------------------------------------------------------------- *)
  (* Block mapping with single and double indirection.                  *)

  let nind = L.nindirect

  (* Read entry [idx] of indirect block [blk]; allocate a child when
     [alloc] and the slot is empty. Returns 0 when absent and not
     allocating. *)
  let indirect_entry t blk idx ~alloc : int res =
    let b = K.bread blk in
    let v = Util.Bytesio.get_u32 (K.Buffer.data b) (idx * 4) in
    if v <> 0 || not alloc then begin
      K.brelse b;
      Ok v
    end
    else
      match balloc t with
      | Error _ as e ->
          K.brelse b;
          e
      | Ok child ->
          Util.Bytesio.set_u32 (K.Buffer.data b) (idx * 4) child;
          Log.log_write t.log b;
          K.brelse b;
          Ok child

  (** Map file block [bn] of [ip] to a disk block; allocates missing blocks
      when [alloc] (requires an open transaction). Returns 0 for a hole when
      not allocating. Call with ilock held. *)
  let bmap t ip bn ~alloc : int res =
    if bn < 0 || bn >= L.max_file_blocks then Error Kernel.Errno.EFBIG
    else if bn < L.ndirect then begin
      if ip.addrs.(bn) <> 0 || not alloc then Ok ip.addrs.(bn)
      else
        let* blk = balloc t in
        ip.addrs.(bn) <- blk;
        Ok blk
    end
    else begin
      let bn = bn - L.ndirect in
      if bn < nind then begin
        (* single indirect *)
        let* ind =
          if ip.addrs.(L.ndirect) <> 0 then Ok ip.addrs.(L.ndirect)
          else if not alloc then Ok 0
          else
            let* blk = balloc t in
            ip.addrs.(L.ndirect) <- blk;
            Ok blk
        in
        if ind = 0 then Ok 0 else indirect_entry t ind bn ~alloc
      end
      else begin
        (* double indirect *)
        let bn = bn - nind in
        let* dind =
          if ip.addrs.(L.ndirect + 1) <> 0 then Ok ip.addrs.(L.ndirect + 1)
          else if not alloc then Ok 0
          else
            let* blk = balloc t in
            ip.addrs.(L.ndirect + 1) <- blk;
            Ok blk
        in
        if dind = 0 then Ok 0
        else
          let* ind = indirect_entry t dind (bn / nind) ~alloc in
          if ind = 0 then Ok 0 else indirect_entry t ind (bn mod nind) ~alloc
      end
    end

  (* ---------------------------------------------------------------- *)
  (* File content read/write (readi / writei). Call with ilock held.    *)

  let readi t ip ~off ~len : Bytes.t res =
    if off < 0 || len < 0 then Error Kernel.Errno.EINVAL
    else begin
      let len = max 0 (min len (ip.size - off)) in
      if len = 0 then Ok Bytes.empty
      else begin
        let out = Bytes.create len in
        let first_bn = off / bsize and last_bn = (off + len - 1) / bsize in
        if first_bn = last_bn then begin
          (* Single-block read: the classic xv6 path. *)
          let boff = off mod bsize in
          let* blk = bmap t ip first_bn ~alloc:false in
          (if blk = 0 then Bytes.fill out 0 len '\000' (* hole *)
           else
             K.with_bread blk (fun b ->
                 Bytes.blit (K.Buffer.data b) boff out 0 len));
          Ok out
        end
        else begin
          (* Multi-block span: map every file block up front, then pull
             the non-hole blocks through the cache in one batched pass —
             adjacent disk blocks merge into single device commands and
             distinct runs read concurrently across channels, instead of
             one serial bread per block. *)
          let rec map_blocks acc bn =
            if bn > last_bn then Ok (List.rev acc)
            else
              let* blk = bmap t ip bn ~alloc:false in
              map_blocks ((bn, blk) :: acc) (bn + 1)
          in
          let* mapped = map_blocks [] first_bn in
          let wanted = List.filter (fun (_, blk) -> blk <> 0) mapped in
          let bufs = ref (K.bread_multi (List.map snd wanted)) in
          List.iter
            (fun (bn, blk) ->
              let lo = max off (bn * bsize)
              and hi = min (off + len) ((bn + 1) * bsize) in
              let n = hi - lo in
              if blk = 0 then Bytes.fill out (lo - off) n '\000' (* hole *)
              else
                match !bufs with
                | b :: rest ->
                    bufs := rest;
                    Bytes.blit (K.Buffer.data b) (lo - (bn * bsize)) out
                      (lo - off) n;
                    K.brelse b
                | [] -> assert false)
            mapped;
          Ok out
        end
      end
    end

  (* Write within the current transaction; caller bounds [len] so the
     transaction fits the log reservation. *)
  let writei_tx t ip ~off data ~from ~len : unit res =
    let rec go done_ =
      if done_ >= len then Ok ()
      else begin
        let abs = off + done_ in
        let bn = abs / bsize in
        let boff = abs mod bsize in
        let n = min (bsize - boff) (len - done_) in
        let* blk = bmap t ip bn ~alloc:true in
        let b =
          (* full-block overwrite needs no read *)
          if n = bsize then K.getblk blk else K.bread blk
        in
        Bytes.blit data (from + done_) (K.Buffer.data b) boff n;
        Log.log_write t.log b;
        K.brelse b;
        go (done_ + n)
      end
    in
    let* () = go 0 in
    if off + len > ip.size then ip.size <- off + len;
    iupdate t ip;
    Ok ()

  (* Blocks of data we allow per transaction: data blocks + indirect +
     bitmap + inode must stay within Log.max_op_blocks. *)
  let write_chunk_blocks = 8

  (** Public write: chunks into transactions, taking ilock inside each so
      concurrent operations interleave like xv6's sys_write. *)
  let writei t ip ~off data : int res =
    let len = Bytes.length data in
    if off < 0 then Error Kernel.Errno.EINVAL
    else if off + len > max_file_size then Error Kernel.Errno.EFBIG
    else begin
      let chunk_bytes = write_chunk_blocks * bsize in
      let rec go done_ =
        if done_ >= len then Ok len
        else begin
          (* align chunk end to a block boundary for clean full-block
             overwrites *)
          let abs = off + done_ in
          let room = chunk_bytes - (abs mod bsize) in
          let n = min room (len - done_) in
          let r =
            Log.with_op ~eager:false t.log (fun () ->
                ilock t ip;
                let r = writei_tx t ip ~off:abs data ~from:done_ ~len:n in
                iunlock ip;
                r)
          in
          match r with Ok () -> go (done_ + n) | Error _ as e -> e
        end
      in
      if len = 0 then Ok 0 else go 0
    end

  (* ---------------------------------------------------------------- *)
  (* Truncation: free mapped blocks with file index >= keep, in bounded
     rounds, each its own transaction, so huge files cannot overflow the
     log. *)

  let free_round_blocks = 2048

  (* Free mapped data blocks with file index >= keep referenced by indirect
     block [blk], which covers file indexes [base, base + span). High
     indexes first, at most [budget] per call. Returns blocks freed. *)
  let rec free_indirect_tail t blk ~level ~base ~keep ~budget : int =
    if blk = 0 || budget <= 0 then 0
    else begin
      let child_span = if level = 2 then nind else 1 in
      let b = K.bread blk in
      let data = K.Buffer.data b in
      let freed = ref 0 in
      let changed = ref false in
      let idx = ref (nind - 1) in
      while !idx >= 0 && !freed < budget do
        let child_base = base + (!idx * child_span) in
        let child = Util.Bytesio.get_u32 data (!idx * 4) in
        (if child <> 0 && child_base + child_span > keep then
           if level = 1 then begin
             if child_base >= keep then begin
               bfree t child;
               Util.Bytesio.set_u32 data (!idx * 4) 0;
               changed := true;
               incr freed
             end
           end
           else begin
             let sub =
               free_indirect_tail t child ~level:1 ~base:child_base ~keep
                 ~budget:(budget - !freed)
             in
             freed := !freed + sub;
             (* drop the child indirect block once nothing it maps is kept *)
             if !freed < budget && child_base >= keep then begin
               bfree t child;
               Util.Bytesio.set_u32 data (!idx * 4) 0;
               changed := true
             end
           end);
        if !freed < budget then decr idx
      done;
      if !changed then Log.log_write t.log b;
      K.brelse b;
      !freed
    end

  (* One bounded round freeing blocks with index >= keep; true when a full
     pass completed within budget. Inside a transaction with ilock held. *)
  let itrunc_round t ip ~keep : bool =
    let budget = ref free_round_blocks in
    let dind_base = L.ndirect + nind in
    if
      !budget > 0
      && ip.addrs.(L.ndirect + 1) <> 0
      && keep < dind_base + (nind * nind)
    then begin
      let freed =
        free_indirect_tail t ip.addrs.(L.ndirect + 1) ~level:2 ~base:dind_base
          ~keep ~budget:!budget
      in
      budget := !budget - freed;
      if !budget > 0 && keep <= dind_base then begin
        bfree t ip.addrs.(L.ndirect + 1);
        ip.addrs.(L.ndirect + 1) <- 0
      end
    end;
    if !budget > 0 && ip.addrs.(L.ndirect) <> 0 && keep < L.ndirect + nind
    then begin
      let freed =
        free_indirect_tail t ip.addrs.(L.ndirect) ~level:1 ~base:L.ndirect
          ~keep ~budget:!budget
      in
      budget := !budget - freed;
      if !budget > 0 && keep <= L.ndirect then begin
        bfree t ip.addrs.(L.ndirect);
        ip.addrs.(L.ndirect) <- 0
      end
    end;
    if !budget > 0 then
      for i = L.ndirect - 1 downto max 0 keep do
        if ip.addrs.(i) <> 0 then begin
          bfree t ip.addrs.(i);
          ip.addrs.(i) <- 0
        end
      done;
    iupdate t ip;
    !budget > 0

  (* Free all blocks with index >= keep, in rounds (own transactions). *)
  let itrunc_to t ip ~keep =
    let rec loop () =
      let finished =
        Log.with_op t.log (fun () ->
            ilock t ip;
            let fin = itrunc_round t ip ~keep in
            iunlock ip;
            fin)
      in
      if not finished then loop ()
    in
    loop ()

  let itrunc_all t ip =
    itrunc_to t ip ~keep:0;
    Log.with_op t.log (fun () ->
        ilock t ip;
        ip.size <- 0;
        iupdate t ip;
        iunlock ip)

  (* Drop an icache reference; free the inode when unreferenced and
     unlinked (xv6 iput). Must NOT be called while holding ilock. *)
  let iput t ip =
    let free_now =
      K.Kmutex.with_lock t.icache_lock (fun () ->
          ip.refcount <- ip.refcount - 1;
          if ip.refcount = 0 && ip.valid && ip.nlink = 0 && ip.ftype <> L.F_free
          then begin
            (* keep a resurrection guard: refcount back to 1 while freeing *)
            ip.refcount <- 1;
            true
          end
          else begin
            if ip.refcount = 0 then Hashtbl.remove t.icache ip.inum;
            false
          end)
    in
    if free_now then begin
      itrunc_all t ip;
      Log.with_op t.log (fun () ->
          ilock t ip;
          ip.ftype <- L.F_free;
          ip.size <- 0;
          ip.nlink <- 0;
          iupdate t ip;
          iunlock ip);
      K.Kmutex.with_lock t.alloc_lock (fun () ->
          t.free_inodes <- t.free_inodes + 1;
          if ip.inum < t.ialloc_rotor then t.ialloc_rotor <- ip.inum);
      K.Kmutex.with_lock t.icache_lock (fun () ->
          ip.refcount <- ip.refcount - 1;
          if ip.refcount = 0 then Hashtbl.remove t.icache ip.inum)
    end

  (* ---------------------------------------------------------------- *)
  (* Directories.                                                      *)

  let dirent_count ip = ip.size / L.dirent_size

  (* Scan [dp] for [name]; returns (ino, slot). Call with ilock held. *)
  let dirlookup t dp name : (int * int) option res =
    if dp.ftype <> L.F_dir then Error Kernel.Errno.ENOTDIR
    else begin
      let nblocks_ = (dp.size + bsize - 1) / bsize in
      let rec scan_block bi =
        if bi >= nblocks_ then Ok None
        else begin
          let* blk = bmap t dp bi ~alloc:false in
          if blk = 0 then scan_block (bi + 1)
          else begin
            let result =
              K.with_bread blk (fun b ->
                  let data = K.Buffer.data b in
                  let slots =
                    min L.dirents_per_block
                      (dirent_count dp - (bi * L.dirents_per_block))
                  in
                  K.cpu
                    (Int64.mul
                       (Int64.of_int (max 1 slots))
                       K.costs.Kernel.Cost.dirent_scan);
                  let rec find s =
                    if s >= slots then None
                    else
                      match L.get_dirent data ~slot:s with
                      | Some (ino, n) when String.equal n name ->
                          Some (ino, (bi * L.dirents_per_block) + s)
                      | _ -> find (s + 1)
                  in
                  find 0)
            in
            match result with
            | Some hit -> Ok (Some hit)
            | None -> scan_block (bi + 1)
          end
        end
      in
      scan_block 0
    end

  (* Add [name -> ino] to [dp] (inside a transaction, ilock held). *)
  let dirlink t dp ~name ~ino : unit res =
    if String.length name > L.max_name then Error Kernel.Errno.ENAMETOOLONG
    else if String.length name = 0 then Error Kernel.Errno.EINVAL
    else begin
      (* find a free slot *)
      let total = dirent_count dp in
      let rec find_free s =
        if s >= total then Ok total (* append right past the last entry *)
        else begin
          let bi = s / L.dirents_per_block in
          let* blk = bmap t dp bi ~alloc:false in
          if blk = 0 then Ok s
          else begin
            let free_here =
              K.with_bread blk (fun b ->
                  let data = K.Buffer.data b in
                  let hi =
                    min L.dirents_per_block (total - (bi * L.dirents_per_block))
                  in
                  K.cpu
                    (Int64.mul (Int64.of_int (max 1 hi))
                       K.costs.Kernel.Cost.dirent_scan);
                  let rec f s' =
                    if s' >= hi then None
                    else if
                      L.get_dirent data ~slot:s' = None
                    then Some ((bi * L.dirents_per_block) + s')
                    else f (s' + 1)
                  in
                  f (s mod L.dirents_per_block))
            in
            match free_here with
            | Some slot -> Ok slot
            | None -> find_free ((bi + 1) * L.dirents_per_block)
          end
        end
      in
      let* slot = find_free 0 in
      let off = slot * L.dirent_size in
      let ent = Bytes.make L.dirent_size '\000' in
      L.put_dirent ent ~slot:0 ~ino ~name;
      writei_tx t dp ~off ~from:0 ~len:L.dirent_size ent
    end

  (* Clear directory slot [slot] (inside a transaction, ilock held). *)
  let dirunlink t dp ~slot : unit res =
    let off = slot * L.dirent_size in
    let zero = Bytes.make L.dirent_size '\000' in
    writei_tx t dp ~off ~from:0 ~len:L.dirent_size zero

  (* Is directory [ip] empty apart from "." and ".."? ilock held. *)
  let dir_is_empty t ip : bool res =
    let total = dirent_count ip in
    let rec scan s =
      if s >= total then Ok true
      else begin
        let bi = s / L.dirents_per_block in
        let* blk = bmap t ip bi ~alloc:false in
        if blk = 0 then scan ((bi + 1) * L.dirents_per_block)
        else begin
          let occupied =
            K.with_bread blk (fun b ->
                let data = K.Buffer.data b in
                let hi =
                  min L.dirents_per_block (total - (bi * L.dirents_per_block))
                in
                let rec f s' =
                  if s' >= hi then None
                  else
                    match L.get_dirent data ~slot:s' with
                    | Some (_, n) when n <> "." && n <> ".." -> Some n
                    | _ -> f (s' + 1)
                in
                f (s mod L.dirents_per_block))
          in
          match occupied with
          | Some _ -> Ok false
          | None -> scan ((bi + 1) * L.dirents_per_block)
        end
      end
    in
    scan 0

  (* ---------------------------------------------------------------- *)
  (* Attr helpers.                                                     *)

  let kind_of_ftype = function
    | L.F_dir -> Directory
    | L.F_file -> File
    | L.F_symlink -> Symlink
    | L.F_free -> File (* unreachable for live inodes *)

  (* attr for a loaded inode (no lock requirement beyond a consistent
     snapshot). *)
  let attr_of ip =
    { a_ino = ip.inum; a_kind = kind_of_ftype ip.ftype; a_size = ip.size; a_nlink = ip.nlink }

  (* iget + ilock + read attr + iunlock + iput *)
  let attr_of_inum t inum : attr res =
    if inum < 1 || inum >= t.sb.L.ninodes then Error Kernel.Errno.ESTALE
    else begin
      let ip = iget t inum in
      ilock t ip;
      let r =
        if ip.ftype = L.F_free then Error Kernel.Errno.ESTALE
        else Ok (attr_of ip)
      in
      iunlock ip;
      iput t ip;
      r
    end

  (* ---------------------------------------------------------------- *)
  (* mkfs.                                                             *)

  let default_nlog = 126
  (** Log data blocks per transaction window (plus one header block). *)

  let compute_layout () =
    let size = K.nblocks in
    let ninodes = min 262144 (max 4096 (size / 32)) in
    L.compute ~size ~ninodes ~nlog:default_nlog

  let mkfs () : unit res =
    let sb = compute_layout () in
    (* superblock *)
    K.with_getblk 1 (fun b ->
        Bytes.fill (K.Buffer.data b) 0 bsize '\000';
        L.put_superblock (K.Buffer.data b) sb;
        K.bwrite b);
    (* empty log header *)
    K.with_getblk sb.L.logstart (fun b ->
        L.put_log_header (K.Buffer.data b) { L.n = 0; checksum = 0L; targets = [||] };
        K.bwrite b);
    (* bitmap: mark all metadata blocks (everything below datastart) used *)
    let bits = bsize * 8 in
    let nbitmap_blocks = (sb.L.size + bits - 1) / bits in
    for i = 0 to nbitmap_blocks - 1 do
      K.with_getblk (sb.L.bmapstart + i) (fun b ->
          let data = K.Buffer.data b in
          Bytes.fill data 0 bsize '\000';
          let base = i * bits in
          for bit = 0 to bits - 1 do
            let blk = base + bit in
            if blk < sb.L.datastart && blk < sb.L.size then
              bitmap_set data bit true
          done;
          K.bwrite b)
    done;
    (* zero the inode blocks *)
    let ninodeblocks = (sb.L.ninodes + L.inodes_per_block - 1) / L.inodes_per_block in
    for i = 0 to ninodeblocks - 1 do
      K.with_getblk (sb.L.inodestart + i) (fun b ->
          Bytes.fill (K.Buffer.data b) 0 bsize '\000';
          K.bwrite b)
    done;
    (* root directory: inode 1, one data block with "." and ".." *)
    let root_block = sb.L.datastart in
    K.with_getblk (L.bblock sb root_block) (fun b ->
        bitmap_set (K.Buffer.data b) (L.bbit root_block) true;
        K.bwrite b);
    K.with_getblk root_block (fun b ->
        let data = K.Buffer.data b in
        Bytes.fill data 0 bsize '\000';
        L.put_dirent data ~slot:0 ~ino:L.root_ino ~name:".";
        L.put_dirent data ~slot:1 ~ino:L.root_ino ~name:"..";
        K.bwrite b);
    K.with_bread (L.iblock sb L.root_ino) (fun b ->
        let addrs = Array.make (L.ndirect + 2) 0 in
        addrs.(0) <- root_block;
        L.put_dinode (K.Buffer.data b) ~slot:(L.islot L.root_ino)
          { L.ftype = L.F_dir; nlink = 2; size = 2 * L.dirent_size; addrs };
        K.bwrite b);
    K.flush ();
    Ok ()

  (* ---------------------------------------------------------------- *)
  (* Mount / recovery / destroy.                                       *)

  let count_free_blocks t =
    let bits = bsize * 8 in
    let nbitmap_blocks = (t.sb.L.size + bits - 1) / bits in
    let free = ref 0 in
    for i = 0 to nbitmap_blocks - 1 do
      K.with_bread (t.sb.L.bmapstart + i) (fun b ->
          let data = K.Buffer.data b in
          let base = i * bits in
          for bit = 0 to bits - 1 do
            let blk = base + bit in
            if blk >= t.sb.L.datastart && blk < t.sb.L.size then
              if not (bitmap_get data bit) then incr free
          done)
    done;
    !free

  let count_free_inodes t =
    let free = ref 0 in
    let ninodeblocks =
      (t.sb.L.ninodes + L.inodes_per_block - 1) / L.inodes_per_block
    in
    for i = 0 to ninodeblocks - 1 do
      K.with_bread (t.sb.L.inodestart + i) (fun b ->
          let data = K.Buffer.data b in
          for slot = 0 to L.inodes_per_block - 1 do
            let inum = (i * L.inodes_per_block) + slot in
            if inum >= 1 && inum < t.sb.L.ninodes then
              match L.get_dinode data ~slot with
              | Ok d -> if d.L.ftype = L.F_free then incr free
              | Error _ -> ()
          done)
    done;
    !free

  let mount () : t res =
    let sb_res =
      K.with_bread 1 (fun b -> L.get_superblock (K.Buffer.data b))
    in
    match sb_res with
    | Error _ -> Error Kernel.Errno.EINVAL
    | Ok sb ->
        let t =
          {
            sb;
            log = Log.create sb;
            icache = Hashtbl.create 1024;
            icache_lock = K.Kmutex.create ~name:"icache" ();
            alloc_lock = K.Kmutex.create ~name:"alloc" ();
            balloc_rotor = sb.L.datastart;
            ialloc_rotor = 1;
            free_blocks = 0;
            free_inodes = 0;
            rename_lock = K.Kmutex.create ~name:"rename" ();
          }
        in
        Log.recover t.log;
        t.free_blocks <- count_free_blocks t;
        t.free_inodes <- count_free_inodes t;
        Ok t

  let destroy t = Log.force t.log

  let statfs t =
    {
      s_blocks = t.sb.L.nblocks;
      s_bfree = t.free_blocks;
      s_files = t.sb.L.ninodes;
      s_ffree = t.free_inodes;
    }

  (* ---------------------------------------------------------------- *)
  (* The file-operations API.                                          *)

  let getattr t ~ino = attr_of_inum t ino

  let lookup t ~dir name : attr res =
    let dp = iget t dir in
    ilock t dp;
    let r = dirlookup t dp name in
    iunlock dp;
    iput t dp;
    match r with
    | Error _ as e -> e
    | Ok None -> Error Kernel.Errno.ENOENT
    | Ok (Some (ino, _)) -> attr_of_inum t ino

  (* Shared by create/mkdir/symlink. Runs inside the caller's log
     operation so callers can extend the same transaction (symlink writes
     its target atomically with the entry). *)
  let create_entry_tx t ~dir name ftype : attr res =
    if String.length name > L.max_name then Error Kernel.Errno.ENAMETOOLONG
    else begin
          let dp = iget t dir in
          ilock t dp;
          let finish r =
            iunlock dp;
            iput t dp;
            r
          in
          if dp.ftype <> L.F_dir then finish (Error Kernel.Errno.ENOTDIR)
          else if dp.nlink = 0 then finish (Error Kernel.Errno.ENOENT)
          else
            match dirlookup t dp name with
            | Error _ as e -> finish e
            | Ok (Some _) -> finish (Error Kernel.Errno.EEXIST)
            | Ok None -> (
                match ialloc t ftype with
                | Error _ as e -> finish e
                | Ok inum ->
                    let ip = iget t inum in
                    ilock t ip;
                    ip.nlink <- 1;
                    iupdate t ip;
                    let r =
                      if ftype = L.F_dir then begin
                        (* "." and ".."; parent gains a link *)
                        let* () = dirlink t ip ~name:"." ~ino:ip.inum in
                        let* () = dirlink t ip ~name:".." ~ino:dp.inum in
                        ip.nlink <- 2;
                        iupdate t ip;
                        dp.nlink <- dp.nlink + 1;
                        iupdate t dp;
                        Ok ()
                      end
                      else Ok ()
                    in
                    let r =
                      match r with
                      | Error _ as e -> e
                      | Ok () -> dirlink t dp ~name ~ino:ip.inum
                    in
                    let out =
                      match r with
                      | Error _ as e ->
                          (* roll forward is impossible mid-tx; undo *)
                          ip.nlink <- 0;
                          iupdate t ip;
                          e
                      | Ok () -> Ok (attr_of ip)
                    in
                    iunlock ip;
                    iput t ip;
                    finish out)
    end

  let create_entry t ~dir name ftype : attr res =
    Log.with_op t.log (fun () -> create_entry_tx t ~dir name ftype)

  let create t ~dir name = create_entry t ~dir name L.F_file
  let mkdir t ~dir name = create_entry t ~dir name L.F_dir

  (** Symbolic links store their target as file content, like the xv6
      symlink lab and many simple Unix file systems. Entry and target are
      written in a single log transaction: committing them separately
      would let a crash expose a link with an empty target (found by the
      crash checker). *)
  let symlink t ~dir name ~target : attr res =
    if String.length target > bsize then Error Kernel.Errno.ENAMETOOLONG
    else
      let* a =
        Log.with_op t.log (fun () ->
            let* a = create_entry_tx t ~dir name L.F_symlink in
            let ip = iget t a.a_ino in
            ilock t ip;
            let r =
              writei_tx t ip ~off:0
                (Bytes.of_string target)
                ~from:0
                ~len:(String.length target)
            in
            iunlock ip;
            iput t ip;
            let* () = r in
            Ok a)
      in
      Ok { a with a_size = String.length target }

  let readlink t ~ino : string res =
    let ip = iget t ino in
    ilock t ip;
    let r =
      if ip.ftype <> L.F_symlink then Error Kernel.Errno.EINVAL
      else
        match readi t ip ~off:0 ~len:ip.size with
        | Ok b -> Ok (Bytes.to_string b)
        | Error _ as e -> e
    in
    iunlock ip;
    iput t ip;
    r

  let unlink t ~dir name : unit res =
    if name = "." || name = ".." then Error Kernel.Errno.EINVAL
    else begin
      let victim = ref None in
      let r =
        Log.with_op t.log (fun () ->
            let dp = iget t dir in
            ilock t dp;
            let finish r =
              iunlock dp;
              iput t dp;
              r
            in
            if dp.ftype <> L.F_dir then finish (Error Kernel.Errno.ENOTDIR)
            else
              match dirlookup t dp name with
              | Error _ as e -> finish e
              | Ok None -> finish (Error Kernel.Errno.ENOENT)
              | Ok (Some (ino, slot)) -> (
                  let ip = iget t ino in
                  ilock t ip;
                  match ip.ftype with
                  | L.F_dir ->
                      iunlock ip;
                      iput t ip;
                      finish (Error Kernel.Errno.EISDIR)
                  | _ -> (
                      match dirunlink t dp ~slot with
                      | Error _ as e ->
                          iunlock ip;
                          iput t ip;
                          finish e
                      | Ok () ->
                          ip.nlink <- ip.nlink - 1;
                          iupdate t ip;
                          (* small unreferenced file: free it inside this
                             same transaction, as xv6's sys_unlink does *)
                          let blocks_est = (ip.size + bsize - 1) / bsize in
                          if
                            ip.nlink = 0 && ip.nopen = 0 && ip.refcount = 1
                            && blocks_est <= 64
                          then begin
                            ignore (itrunc_round t ip ~keep:0);
                            ip.ftype <- L.F_free;
                            ip.size <- 0;
                            iupdate t ip;
                            K.Kmutex.with_lock t.alloc_lock (fun () ->
                                t.free_inodes <- t.free_inodes + 1;
                                if ip.inum < t.ialloc_rotor then
                                  t.ialloc_rotor <- ip.inum)
                          end;
                          iunlock ip;
                          victim := Some ip;
                          finish (Ok ()))))
      in
      (* iput outside the transaction: freeing a big file runs its own
         bounded transactions *)
      (match !victim with Some ip -> iput t ip | None -> ());
      r
    end

  let rmdir t ~dir name : unit res =
    if name = "." || name = ".." then Error Kernel.Errno.EINVAL
    else begin
      let victim = ref None in
      let r =
        Log.with_op t.log (fun () ->
            let dp = iget t dir in
            ilock t dp;
            let finish r =
              iunlock dp;
              iput t dp;
              r
            in
            if dp.ftype <> L.F_dir then finish (Error Kernel.Errno.ENOTDIR)
            else
              match dirlookup t dp name with
              | Error _ as e -> finish e
              | Ok None -> finish (Error Kernel.Errno.ENOENT)
              | Ok (Some (ino, slot)) -> (
                  let ip = iget t ino in
                  ilock t ip;
                  if ip.ftype <> L.F_dir then begin
                    iunlock ip;
                    iput t ip;
                    finish (Error Kernel.Errno.ENOTDIR)
                  end
                  else
                    match dir_is_empty t ip with
                    | Error _ as e ->
                        iunlock ip;
                        iput t ip;
                        finish e
                    | Ok false ->
                        iunlock ip;
                        iput t ip;
                        finish (Error Kernel.Errno.ENOTEMPTY)
                    | Ok true -> (
                        match dirunlink t dp ~slot with
                        | Error _ as e ->
                            iunlock ip;
                            iput t ip;
                            finish e
                        | Ok () ->
                            (* ".." no longer references the parent *)
                            dp.nlink <- dp.nlink - 1;
                            iupdate t dp;
                            ip.nlink <- 0;
                            iupdate t ip;
                            (* an empty dir holds at most one data block:
                               free it inside this same transaction, or a
                               crash between the entry removal and the
                               deferred iput leaks an allocated orphan *)
                            if ip.nopen = 0 && ip.refcount = 1 then begin
                              ignore (itrunc_round t ip ~keep:0);
                              ip.ftype <- L.F_free;
                              ip.size <- 0;
                              iupdate t ip;
                              K.Kmutex.with_lock t.alloc_lock (fun () ->
                                  t.free_inodes <- t.free_inodes + 1;
                                  if ip.inum < t.ialloc_rotor then
                                    t.ialloc_rotor <- ip.inum)
                            end;
                            iunlock ip;
                            victim := Some ip;
                            finish (Ok ()))))
      in
      (match !victim with Some ip -> iput t ip | None -> ());
      r
    end

  let link t ~ino ~dir name : attr res =
    Log.with_op t.log (fun () ->
        let ip = iget t ino in
        ilock t ip;
        if ip.ftype = L.F_dir then begin
          iunlock ip;
          iput t ip;
          Error Kernel.Errno.EPERM
        end
        else begin
          ip.nlink <- ip.nlink + 1;
          iupdate t ip;
          let a = attr_of ip in
          iunlock ip;
          let dp = iget t dir in
          ilock t dp;
          let r =
            if dp.ftype <> L.F_dir then Error Kernel.Errno.ENOTDIR
            else
              match dirlookup t dp name with
              | Error _ as e -> e
              | Ok (Some _) -> Error Kernel.Errno.EEXIST
              | Ok None -> dirlink t dp ~name ~ino
          in
          iunlock dp;
          iput t dp;
          match r with
          | Ok () ->
              iput t ip;
              Ok { a with a_nlink = a.a_nlink }
          | Error _ as e ->
              (* undo the link count *)
              ilock t ip;
              ip.nlink <- ip.nlink - 1;
              iupdate t ip;
              iunlock ip;
              iput t ip;
              e
        end)

  let rename t ~olddir ~oldname ~newdir ~newname : unit res =
    if oldname = "." || oldname = ".." || newname = "." || newname = ".."
    then Error Kernel.Errno.EINVAL
    else if String.length newname > L.max_name then
      Error Kernel.Errno.ENAMETOOLONG
    else
      K.Kmutex.with_lock t.rename_lock (fun () ->
          let victim = ref None in
          let r =
            Log.with_op t.log (fun () ->
                let dp_old = iget t olddir in
                let dp_new = if newdir = olddir then dp_old else iget t newdir in
                (* lock parents in inum order *)
                let lock_parents () =
                  if dp_old == dp_new then ilock t dp_old
                  else if dp_old.inum < dp_new.inum then begin
                    ilock t dp_old;
                    ilock t dp_new
                  end
                  else begin
                    ilock t dp_new;
                    ilock t dp_old
                  end
                in
                let unlock_parents () =
                  if dp_old == dp_new then iunlock dp_old
                  else begin
                    iunlock dp_old;
                    iunlock dp_new
                  end
                in
                lock_parents ();
                let finish r =
                  unlock_parents ();
                  iput t dp_old;
                  if dp_new != dp_old then iput t dp_new;
                  r
                in
                if dp_old.ftype <> L.F_dir || dp_new.ftype <> L.F_dir then
                  finish (Error Kernel.Errno.ENOTDIR)
                else
                  match dirlookup t dp_old oldname with
                  | Error _ as e -> finish e
                  | Ok None -> finish (Error Kernel.Errno.ENOENT)
                  | Ok (Some (src_ino, src_slot)) -> (
                      if src_ino = dp_new.inum then
                        finish (Error Kernel.Errno.EINVAL)
                      else
                        match dirlookup t dp_new newname with
                        | Error _ as e -> finish e
                        | Ok existing -> (
                            let src = iget t src_ino in
                            ilock t src;
                            let src_is_dir = src.ftype = L.F_dir in
                            (* replace target if present *)
                            let replace_r =
                              match existing with
                              | None -> Ok None
                              | Some (dst_ino, dst_slot) ->
                                  if dst_ino = src_ino then Ok None
                                  else begin
                                    let dst = iget t dst_ino in
                                    ilock t dst;
                                    let dst_is_dir = dst.ftype = L.F_dir in
                                    let ok =
                                      if src_is_dir && not dst_is_dir then
                                        Error Kernel.Errno.ENOTDIR
                                      else if (not src_is_dir) && dst_is_dir
                                      then Error Kernel.Errno.EISDIR
                                      else if dst_is_dir then
                                        match dir_is_empty t dst with
                                        | Error _ as e -> e
                                        | Ok false ->
                                            Error Kernel.Errno.ENOTEMPTY
                                        | Ok true -> Ok ()
                                      else Ok ()
                                    in
                                    match ok with
                                    | Error e ->
                                        iunlock dst;
                                        iput t dst;
                                        Error e
                                    | Ok () -> (
                                        match dirunlink t dp_new ~slot:dst_slot with
                                        | Error _ as e ->
                                            iunlock dst;
                                            iput t dst;
                                            e
                                        | Ok () ->
                                            if dst_is_dir then begin
                                              dst.nlink <- 0;
                                              dp_new.nlink <- dp_new.nlink - 1;
                                              iupdate t dp_new
                                            end
                                            else dst.nlink <- dst.nlink - 1;
                                            iupdate t dst;
                                            (* small unreferenced victim:
                                               free it inside this same
                                               transaction, as unlink does —
                                               deferring to the post-tx iput
                                               lets a crash leak the inode
                                               (found by the crash checker) *)
                                            let blocks_est =
                                              (dst.size + bsize - 1) / bsize
                                            in
                                            if
                                              dst.nlink = 0 && dst.nopen = 0
                                              && dst.refcount = 1
                                              && blocks_est <= 64
                                            then begin
                                              ignore
                                                (itrunc_round t dst ~keep:0);
                                              dst.ftype <- L.F_free;
                                              dst.size <- 0;
                                              iupdate t dst;
                                              K.Kmutex.with_lock t.alloc_lock
                                                (fun () ->
                                                  t.free_inodes <-
                                                    t.free_inodes + 1;
                                                  if
                                                    dst.inum < t.ialloc_rotor
                                                  then
                                                    t.ialloc_rotor <- dst.inum)
                                            end;
                                            iunlock dst;
                                            Ok (Some dst))
                                  end
                            in
                            match replace_r with
                            | Error e ->
                                iunlock src;
                                iput t src;
                                finish (Error e)
                            | Ok dst_victim -> (
                                victim := dst_victim;
                                (* add new entry, remove old *)
                                let r =
                                  let* () =
                                    dirlink t dp_new ~name:newname ~ino:src_ino
                                  in
                                  let* () = dirunlink t dp_old ~slot:src_slot in
                                  (* moving a directory across parents:
                                     fix ".." and parent link counts *)
                                  if src_is_dir && dp_old.inum <> dp_new.inum
                                  then begin
                                    match dirlookup t src ".." with
                                    | Error _ as e -> e
                                    | Ok (Some (_, dotdot_slot)) ->
                                        let* () =
                                          dirunlink t src ~slot:dotdot_slot
                                        in
                                        let* () =
                                          dirlink t src ~name:".."
                                            ~ino:dp_new.inum
                                        in
                                        dp_old.nlink <- dp_old.nlink - 1;
                                        iupdate t dp_old;
                                        dp_new.nlink <- dp_new.nlink + 1;
                                        iupdate t dp_new;
                                        Ok ()
                                    | Ok None -> Ok ()
                                  end
                                  else Ok ()
                                in
                                iunlock src;
                                iput t src;
                                finish r))))
          in
          (match !victim with Some ip -> iput t ip | None -> ());
          r)

  let read t ~ino ~off ~len : Bytes.t res =
    let ip = iget t ino in
    ilock t ip;
    let r =
      if ip.ftype = L.F_free then Error Kernel.Errno.ESTALE
      else readi t ip ~off ~len
    in
    iunlock ip;
    iput t ip;
    r

  let write t ~ino ~off data : int res =
    let ip = iget t ino in
    let r =
      if not ip.valid then begin
        ilock t ip;
        iunlock ip
      end;
      if ip.ftype = L.F_free then Error Kernel.Errno.ESTALE
      else writei t ip ~off data
    in
    iput t ip;
    r

  let truncate t ~ino ~size : unit res =
    if size < 0 then Error Kernel.Errno.EINVAL
    else if size > max_file_size then Error Kernel.Errno.EFBIG
    else begin
      let ip = iget t ino in
      ilock t ip;
      let old = ip.size in
      iunlock ip;
      let r =
        if size = 0 then begin
          itrunc_all t ip;
          Ok ()
        end
        else if size < old then begin
          (* POSIX shrink: free every block past the new end, then zero the
             retained slack of the final partial block so a later extension
             reads zeroes instead of resurrecting old data *)
          let keep = (size + bsize - 1) / bsize in
          itrunc_to t ip ~keep;
          Log.with_op t.log (fun () ->
              ilock t ip;
              let r =
                if size mod bsize <> 0 then
                  match bmap t ip (size / bsize) ~alloc:false with
                  | Ok blk when blk <> 0 ->
                      K.with_bread blk (fun b ->
                          Bytes.fill (K.Buffer.data b) (size mod bsize)
                            (bsize - (size mod bsize)) '\000';
                          Log.log_write t.log b);
                      Ok ()
                  | Ok _ -> Ok ()
                  | Error _ as e -> e
              else Ok ()
              in
              ip.size <- size;
              iupdate t ip;
              iunlock ip;
              r)
        end
        else
          (* extension: past-EOF blocks are holes (shrink freed them) and
             the tail block's slack is zero by invariant *)
          Log.with_op t.log (fun () ->
              ilock t ip;
              ip.size <- size;
              iupdate t ip;
              iunlock ip;
              Ok ())
      in
      iput t ip;
      r
    end

  let fsync t ~ino:_ : unit res =
    Log.force t.log;
    Ok ()

  let sync t : unit res =
    Log.force t.log;
    Ok ()

  let readdir t ~ino : dentry list res =
    let dp = iget t ino in
    ilock t dp;
    let r =
      if dp.ftype <> L.F_dir then Error Kernel.Errno.ENOTDIR
      else begin
        let total = dirent_count dp in
        let out = ref [] in
        let rec scan s =
          if s >= total then Ok (List.rev !out)
          else begin
            let bi = s / L.dirents_per_block in
            let* blk = bmap t dp bi ~alloc:false in
            (if blk <> 0 then
               K.with_bread blk (fun b ->
                   let data = K.Buffer.data b in
                   let hi =
                     min L.dirents_per_block (total - (bi * L.dirents_per_block))
                   in
                   for s' = 0 to hi - 1 do
                     match L.get_dirent data ~slot:s' with
                     | Some (ino', n) ->
                         out :=
                           { name = n; ino = ino'; kind = File } :: !out
                     | None -> ()
                   done));
            scan ((bi + 1) * L.dirents_per_block)
          end
        in
        scan 0
      end
    in
    iunlock dp;
    iput t dp;
    (* fix up kinds with a second pass over the icache-light getattr *)
    match r with
    | Error _ as e -> e
    | Ok entries ->
        Ok
          (List.map
             (fun d ->
               if d.name = "." || d.name = ".." then
                 { d with kind = Directory }
               else
                 match attr_of_inum t d.ino with
                 | Ok a -> { d with kind = a.a_kind }
                 | Error _ -> d)
             entries)

  let iopen t ~ino : unit res =
    let ip = iget t ino in
    if not ip.valid then begin
      ilock t ip;
      iunlock ip
    end;
    if ip.ftype = L.F_free then begin
      iput t ip;
      Error Kernel.Errno.ESTALE
    end
    else begin
      ip.nopen <- ip.nopen + 1;
      Ok () (* keep the iget reference until irelease *)
    end

  let irelease t ~ino =
    match Hashtbl.find_opt t.icache ino with
    | None -> ()
    | Some ip ->
        if ip.nopen > 0 then begin
          ip.nopen <- ip.nopen - 1;
          iput t ip
        end

  (* ---------------------------------------------------------------- *)
  (* Online upgrade (§4.8): flush, then hand over allocator hints and the
     kernel's open-inode references.                                    *)

  let extract_state t =
    Log.force t.log;
    let open_inodes =
      Hashtbl.fold
        (fun inum ip acc -> if ip.nopen > 0 then (inum, ip.nopen) :: acc else acc)
        t.icache []
    in
    {
      Bento.Upgrade_state.version;
      ints =
        [
          ("balloc_rotor", t.balloc_rotor);
          ("ialloc_rotor", t.ialloc_rotor);
          ("free_blocks", t.free_blocks);
          ("free_inodes", t.free_inodes);
        ];
      blobs = [];
      open_inodes;
    }

  let restore_state t (st : Bento.Upgrade_state.t) =
    let geti name default =
      match Bento.Upgrade_state.int st name with Some v -> v | None -> default
    in
    t.balloc_rotor <- geti "balloc_rotor" t.balloc_rotor;
    t.ialloc_rotor <- geti "ialloc_rotor" t.ialloc_rotor;
    (* free counts were recomputed at mount; trust the fresh scan but keep
       the transferred values if the scan was skipped *)
    List.iter
      (fun (inum, nopen) ->
        let ip = iget t inum in
        if not ip.valid then begin
          ilock t ip;
          iunlock ip
        end;
        ip.nopen <- nopen;
        (* one icache reference per open handle, minus the iget above *)
        ip.refcount <- ip.refcount + nopen - 1)
      st.Bento.Upgrade_state.open_inodes

  (* FIBMAP (shadows the internal [bmap t ip bn ~alloc] helper): report the
     device block without allocating, so clients can build pushdown index
     blocks out of real device pointers. *)
  let bmap t ~ino ~fbn : int res =
    let ip = iget t ino in
    ilock t ip;
    let r =
      if ip.ftype = L.F_free then Error Kernel.Errno.ESTALE
      else bmap t ip fbn ~alloc:false
    in
    iunlock ip;
    iput t ip;
    r
end
