(** JBD2-style journal, run in data-journal mode.

    The structural difference from the xv6 log — and the reason ext4 wins
    the paper's macrobenchmarks by 33 %–3.2× — is *lazy checkpointing*: a
    commit is one sequential write into the journal area plus a single
    FLUSH (the commit record carries a checksum, so no flush is needed
    between data and commit block). Installing blocks to their home
    locations happens later, in bulk, when the journal fills or the file
    system unmounts. The xv6 log instead installs synchronously inside
    every commit and pays two flushes.

    Simplification vs. real jbd2 (documented in DESIGN.md): the journal
    area is used linearly and checkpointed wholesale when it fills, rather
    than as a circular buffer with incremental tail advance. Recovery
    semantics are the same: scan, verify checksums, replay committed
    transactions in order. *)

type t = {
  machine : Kernel.Machine.t;
  bc : Kernel.Bcache.t;
  jsb_block : int;
  area_start : int;  (** first journal data block *)
  capacity : int;  (** journal data blocks *)
  lock : Sim.Sync.Mutex.t;
  cond : Sim.Sync.Condvar.t;
  mutable sequence : int;  (** id of the running (accumulating) transaction *)
  mutable seq_done : int;  (** highest transaction made durable *)
  mutable head : int;  (** next free offset within the area *)
  mutable handles : int;
  mutable committing : bool;
  mutable force_waiters : int;
      (** forcers draining running handles to cut a commit; while nonzero
          (and no commit is running) new handles wait so the drain
          terminates under load *)
  running : (int, Bytes.t) Hashtbl.t;  (** target block -> data copy *)
  mutable running_order : int list;  (** reverse order *)
  mutable checkpoint_queue : (int * Bytes.t) list list;  (** oldest first *)
  mutable cp_blocks : int;
  mutable commits : int;
  mutable checkpoints : int;
  mutable active : bool;
  commit_interval : int64;
}

let handle_max_blocks = 64
let bsize = Layout4.block_size

let create ?(commit_interval = Sim.Time.sec 5) machine bc ~jstart ~jlen =
  let t =
    {
      machine;
      bc;
      jsb_block = jstart;
      area_start = jstart + 1;
      capacity = jlen - 1;
      lock = Sim.Sync.Mutex.create ~name:"jbd2" ();
      cond = Sim.Sync.Condvar.create ();
      sequence = 1;
      seq_done = 0;
      head = 0;
      handles = 0;
      committing = false;
      force_waiters = 0;
      running = Hashtbl.create 256;
      running_order = [];
      checkpoint_queue = [];
      cp_blocks = 0;
      commits = 0;
      checkpoints = 0;
      active = true;
      commit_interval;
    }
  in
  Kernel.Machine.register_inspector machine ~name:"jbd2" (fun () ->
      Util.Json.Obj
        [
          ("capacity", Util.Json.Int t.capacity);
          ("free_blocks", Util.Json.Int (t.capacity - t.head));
          ("running_blocks", Util.Json.Int (Hashtbl.length t.running));
          ("checkpoint_blocks", Util.Json.Int t.cp_blocks);
          ("handles", Util.Json.Int t.handles);
          ("commits", Util.Json.Int t.commits);
          ("checkpoints", Util.Json.Int t.checkpoints);
        ]);
  t

let write_jsb t =
  let b = Kernel.Bcache.getblk t.bc t.jsb_block in
  Layout4.put_jsb b.Kernel.Bcache.data ~sequence:t.sequence ~tail:0;
  Kernel.Bcache.bwrite t.bc b;
  Kernel.Bcache.brelse t.bc b

(* Install every committed-but-not-checkpointed transaction to its home
   location, flush, and reset the journal area. Called with the lock held
   (drops it for the I/O). *)
let checkpoint_all_locked t =
  if t.checkpoint_queue <> [] then begin
    let txs = t.checkpoint_queue in
    t.checkpoint_queue <- [];
    t.cp_blocks <- 0;
    Sim.Sync.Mutex.unlock t.lock;
    t.checkpoints <- t.checkpoints + 1;
    (* newest committed data wins: dedupe by target, install straight to
       the device — the cached buffer may hold newer uncommitted contents
       that must not be overwritten or flushed home early *)
    let final = Hashtbl.create 256 in
    List.iter (fun tx -> List.iter (fun (tgt, data) -> Hashtbl.replace final tgt data) tx) txs;
    let targets = Hashtbl.fold (fun tgt data acc -> (tgt, data) :: acc) final [] in
    Kernel.Machine.with_layer t.machine "log" (fun () ->
        (* scatter-install through the bio layer: adjacent targets merge
           into contiguous commands, distinct runs go out concurrently *)
        Kernel.Bcache.raw_write_scatter t.bc targets;
        Kernel.Bcache.flush t.bc);
    (* release the eviction pins, one per (transaction, block) occurrence *)
    List.iter
      (fun tx -> List.iter (fun (tgt, _) -> Kernel.Bcache.bunpin_block t.bc tgt) tx)
      txs;
    Sim.Sync.Mutex.lock t.lock;
    t.head <- 0;
    Sim.Trace.counter
      (Kernel.Machine.tracer t.machine)
      ~cat:"fs" "jbd2:free_blocks"
      (Int64.of_int (t.capacity - t.head));
    write_jsb t
  end

(* Commit the running transaction: descriptor + data + commit record,
   sequentially into the journal area, then one flush. Lock held on entry
   and exit; dropped during I/O. Group commit: the running transaction is
   snapshotted and reset *before* the lock is dropped, so new handles
   join a fresh running transaction during the commit I/O instead of
   convoying on the journal lock. *)
let commit_locked t =
  if t.running_order <> [] then begin
    t.committing <- true;
    let order = List.rev t.running_order in
    let datas = List.map (Hashtbl.find t.running) order in
    Hashtbl.reset t.running;
    t.running_order <- [];
    let n = List.length order in
    (* a transaction larger than one descriptor's target list spans
       several descriptor blocks (as in real jbd2) *)
    let ndesc = (n + Layout4.desc_max_targets - 1) / Layout4.desc_max_targets in
    let needed = n + ndesc + 1 in
    (* allocate the sequence number before [checkpoint_all_locked] can
       drop the lock, so a forcer arriving mid-checkpoint sees this
       transaction as the one in flight *)
    let seq = t.sequence in
    t.sequence <- seq + 1;
    if t.head + needed > t.capacity then checkpoint_all_locked t;
    let base = t.area_start + t.head in
    t.head <- t.head + needed;
    Sim.Trace.counter
      (Kernel.Machine.tracer t.machine)
      ~cat:"fs" "jbd2:free_blocks"
      (Int64.of_int (t.capacity - t.head));
    t.commits <- t.commits + 1;
    Kernel.Machine.incr t.machine "log_commits";
    Kernel.Machine.incr ~by:n t.machine "log_commit_blocks";
    (* waiters may now open handles against the fresh running tx *)
    Sim.Sync.Condvar.broadcast t.cond;
    Sim.Sync.Mutex.unlock t.lock;
    Kernel.Machine.with_layer t.machine "log" @@ fun () ->
    (* the first descriptor carries the checksum over ALL data blocks *)
    let checksum = Util.Fnv64.checksum_blocks datas in
    let bufs = ref [] in
    let pos = ref base in
    let rec emit_chunks chunk_idx order datas =
      match order with
      | [] -> ()
      | _ ->
          let rec take k acc_o acc_d o d =
            if k = 0 then (List.rev acc_o, List.rev acc_d, o, d)
            else
              match (o, d) with
              | [], [] -> (List.rev acc_o, List.rev acc_d, [], [])
              | x :: o', y :: d' -> take (k - 1) (x :: acc_o) (y :: acc_d) o' d'
              | _ -> assert false
          in
          let chunk_o, chunk_d, rest_o, rest_d =
            take Layout4.desc_max_targets [] [] order datas
          in
          let desc = Kernel.Bcache.getblk t.bc !pos in
          Layout4.put_descriptor desc.Kernel.Bcache.data ~sequence:seq
            ~count:(List.length chunk_o)
            ~checksum:(if chunk_idx = 0 then checksum else 0L)
            ~targets:(Array.of_list chunk_o);
          incr pos;
          bufs := desc :: !bufs;
          List.iter
            (fun data ->
              let b = Kernel.Bcache.getblk t.bc !pos in
              Kernel.Machine.cpu_work t.machine
                (Kernel.Machine.cost t.machine).Kernel.Cost.log_copy_per_block;
              Bytes.blit data 0 b.Kernel.Bcache.data 0 bsize;
              incr pos;
              bufs := b :: !bufs)
            chunk_d;
          emit_chunks (chunk_idx + 1) rest_o rest_d
    in
    emit_chunks 0 order datas;
    let commit_b = Kernel.Bcache.getblk t.bc !pos in
    Layout4.put_commit commit_b.Kernel.Bcache.data ~sequence:seq;
    bufs := commit_b :: !bufs;
    (* one contiguous sequential write, then a single flush: the jbd2
       checksummed-commit fast path *)
    Kernel.Bcache.bwrite_contig t.bc (List.rev !bufs);
    List.iter (fun b -> Kernel.Bcache.brelse t.bc b) (List.rev !bufs);
    Kernel.Bcache.flush t.bc;
    Sim.Sync.Mutex.lock t.lock;
    t.checkpoint_queue <- t.checkpoint_queue @ [ List.combine order datas ];
    t.cp_blocks <- t.cp_blocks + n;
    t.seq_done <- seq;
    t.committing <- false;
    Sim.Sync.Condvar.broadcast t.cond
  end

(** Open a handle (journal_start): reserves space in the running tx. A
    commit in flight does not block new handles — they join the fresh
    running transaction (group commit). *)
let handle_start t =
  Sim.Sync.Mutex.lock t.lock;
  let rec wait () =
    if t.force_waiters > 0 && not t.committing then begin
      (* an fsync is draining running handles to cut a commit; joining
         now would push the drain out indefinitely under load *)
      Sim.Sync.Condvar.wait t.cond t.lock;
      wait ()
    end
    else if
      Hashtbl.length t.running + ((t.handles + 1) * handle_max_blocks)
      > t.capacity - 64 (* margin for descriptor blocks + commit record *)
    then
      if t.handles = 0 && not t.committing then begin
        commit_locked t;
        wait ()
      end
      else begin
        Sim.Sync.Condvar.wait t.cond t.lock;
        wait ()
      end
    else t.handles <- t.handles + 1
  in
  wait ();
  Sim.Sync.Mutex.unlock t.lock

(** Close a handle (journal_stop). No eager commit: the running tx keeps
    absorbing operations until the timer, an fsync, or pressure. *)
let handle_stop t =
  Sim.Sync.Mutex.lock t.lock;
  t.handles <- t.handles - 1;
  Sim.Sync.Condvar.broadcast t.cond;
  Sim.Sync.Mutex.unlock t.lock

let with_handle t f =
  handle_start t;
  match f () with
  | v ->
      handle_stop t;
      v
  | exception exn ->
      handle_stop t;
      raise exn

(** Record a modified buffer in the running transaction (data=journal:
    file data takes this path too). *)
let journal_write t (buf : Kernel.Bcache.buf) =
  Sim.Sync.Mutex.lock t.lock;
  if t.handles < 1 then begin
    Sim.Sync.Mutex.unlock t.lock;
    invalid_arg "jbd2: journal_write without a handle"
  end;
  let blk = buf.Kernel.Bcache.block in
  Kernel.Machine.cpu_work t.machine
    (Kernel.Machine.cost t.machine).Kernel.Cost.log_copy_per_block;
  if not (Hashtbl.mem t.running blk) then begin
    t.running_order <- blk :: t.running_order;
    (* pin until this transaction is checkpointed, so an eviction cannot
       expose stale on-device contents to a later read *)
    Kernel.Bcache.bpin t.bc buf
  end;
  Hashtbl.replace t.running blk (Bytes.copy buf.Kernel.Bcache.data);
  Sim.Sync.Mutex.unlock t.lock

(** Commit the running transaction and make it durable (fsync path) — the
    group-commit path. The forcer computes the youngest transaction that
    can hold its data; once that transaction is durable it returns,
    whether it drove the commit itself, rode on one already in flight, or
    found a concurrent forcer had covered it (then it never touches the
    device: jbd2 commits always flush). *)
let force_commit t =
  Sim.Sync.Mutex.lock t.lock;
  let target =
    if t.running_order <> [] then t.sequence
    else if t.committing then t.sequence - 1
    else t.seq_done
  in
  if t.seq_done >= target then begin
    Sim.Sync.Mutex.unlock t.lock;
    (* Nothing running and nothing in flight: barrier for stray volatile
       writes (e.g. the journal superblock). *)
    Kernel.Bcache.flush t.bc
  end
  else begin
    t.force_waiters <- t.force_waiters + 1;
    let rec drive () =
      if t.seq_done < target then
        if t.committing || t.handles > 0 then begin
          Sim.Sync.Condvar.wait t.cond t.lock;
          drive ()
        end
        else begin
          commit_locked t;
          drive ()
        end
    in
    drive ();
    t.force_waiters <- t.force_waiters - 1;
    if t.force_waiters = 0 then Sim.Sync.Condvar.broadcast t.cond;
    Sim.Sync.Mutex.unlock t.lock
  end

(** Flush everything including checkpoints (unmount). *)
let shutdown t =
  force_commit t;
  Sim.Sync.Mutex.lock t.lock;
  checkpoint_all_locked t;
  t.active <- false;
  Sim.Sync.Mutex.unlock t.lock;
  Kernel.Bcache.flush t.bc

(** The kjournald fiber: periodic commits of the running transaction. *)
let start_kjournald t =
  Kernel.Machine.spawn ~name:"kjournald" t.machine (fun () ->
      let rec loop () =
        if t.active then begin
          Sim.Engine.sleep t.commit_interval;
          if t.active then begin
            Sim.Sync.Mutex.lock t.lock;
            let rec wait () =
              if t.committing || t.handles > 0 then begin
                Sim.Sync.Condvar.wait t.cond t.lock;
                wait ()
              end
            in
            wait ();
            if t.running_order <> [] then commit_locked t;
            Sim.Sync.Mutex.unlock t.lock;
            loop ()
          end
        end
      in
      loop ())

(** Mount-time recovery: replay committed transactions found in the
    journal area, verifying the commit checksum. *)
let recover t =
  let read blk =
    let b = Kernel.Bcache.bread t.bc blk in
    let d = Bytes.copy b.Kernel.Bcache.data in
    Kernel.Bcache.brelse t.bc b;
    d
  in
  let jsb = read t.jsb_block in
  (match Layout4.get_jsb jsb with
  | None -> () (* fresh/corrupt journal superblock: nothing to replay *)
  | Some (seq0, _tail) ->
      (* Parse one transaction starting at [off]: one or more descriptor
         chunks with the same sequence, then a commit record. Returns the
         offset after the transaction when it is fully valid. *)
      let parse_tx off expect_seq =
        let rec chunks off tx_seq acc_targets acc_datas checksum0 =
          if off + 1 > t.capacity then None
          else begin
            let blkdata = read (t.area_start + off) in
            match Layout4.get_descriptor blkdata with
            | Some (dseq, checksum, targets)
              when (tx_seq = None && dseq >= expect_seq)
                   || tx_seq = Some dseq ->
                let n = Array.length targets in
                if off + n + 1 > t.capacity then None
                else begin
                  let datas =
                    List.init n (fun i -> read (t.area_start + off + 1 + i))
                  in
                  chunks (off + n + 1) (Some dseq)
                    (acc_targets @ Array.to_list targets)
                    (acc_datas @ datas)
                    (if tx_seq = None then checksum else checksum0)
                end
            | _ -> (
                match tx_seq with
                | None -> None
                | Some dseq -> (
                    match Layout4.get_commit blkdata with
                    | Some cseq
                      when cseq = dseq
                           && Int64.equal
                                (Util.Fnv64.checksum_blocks acc_datas)
                                checksum0 ->
                        Some (cseq, acc_targets, acc_datas, off + 1)
                    | _ -> None))
          end
        in
        chunks off None [] [] 0L
      in
      let rec scan off seq =
        match parse_tx off seq with
        | None -> seq
        | Some (cseq, targets, datas, next_off) when cseq >= seq0 ->
            let homes =
              List.map2
                (fun tgt data ->
                  let home = Kernel.Bcache.getblk t.bc tgt in
                  Bytes.blit data 0 home.Kernel.Bcache.data 0 bsize;
                  home)
                targets datas
            in
            Kernel.Bcache.bwrite_scatter t.bc homes;
            List.iter (fun b -> Kernel.Bcache.brelse t.bc b) homes;
            scan next_off (cseq + 1)
        | Some _ -> seq
      in
      let final_seq = scan 0 seq0 in
      if final_seq > seq0 then
        Kernel.Printk.info t.machine "jbd2: replayed %d transaction(s)"
          (final_seq - seq0);
      t.sequence <- max t.sequence final_seq;
      (* everything before the running transaction is on disk *)
      t.seq_done <- t.sequence - 1;
      Kernel.Bcache.flush t.bc);
  t.head <- 0;
  Sim.Sync.Mutex.lock t.lock;
  write_jsb t;
  Sim.Sync.Mutex.unlock t.lock;
  Kernel.Bcache.flush t.bc
