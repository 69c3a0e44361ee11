(** The FUSE kernel driver: implements the kernel VFS ops by forwarding
    every operation over the transport to the userspace daemon.

    Runs in writeback-cache mode (as the paper's Rust FUSE baseline did):
    file reads and writes go through the kernel page cache, and dirty pages
    are shipped to the daemon in requests of up to [max_write] bytes. *)

let max_write_pages = 32 (* 128 KB max_write, the libfuse default *)

type t = { transport : Transport.t; page_size : int }

let errno_of_reply = function
  | Proto.R_err e -> e
  | _ -> Kernel.Errno.EIO (* protocol confusion *)

let kind_to_vfs = function
  | 1 -> Kernel.Vfs.Dir
  | 2 -> Kernel.Vfs.Symlink
  | _ -> Kernel.Vfs.Reg

let stat_of_attr (a : Proto.attr) =
  {
    Kernel.Vfs.st_ino = a.Proto.ino;
    st_kind = kind_to_vfs a.Proto.kind;
    st_size = a.Proto.size;
    st_nlink = a.Proto.nlink;
  }

let call_attr t req : (Kernel.Vfs.stat, Kernel.Errno.t) result =
  match Transport.call t.transport req with
  | Proto.R_attr a -> Ok (stat_of_attr a)
  | r -> Error (errno_of_reply r)

let call_unit t req : (unit, Kernel.Errno.t) result =
  match Transport.call t.transport req with
  | Proto.R_none -> Ok ()
  | r -> Error (errno_of_reply r)

(** Build the VFS ops table for a FUSE mount over [transport]. *)
let vfs_ops (t : t) ~max_file_size : Kernel.Vfs.fs_ops =
  {
    Kernel.Vfs.fs_name = "fuse";
    root_ino = 1;
    lookup = (fun ~dir name -> call_attr t (Proto.Lookup { dir; name }));
    getattr = (fun ino -> call_attr t (Proto.Getattr { ino }));
    create = (fun ~dir name -> call_attr t (Proto.Create { dir; name }));
    mkdir = (fun ~dir name -> call_attr t (Proto.Mkdir { dir; name }));
    unlink = (fun ~dir name -> call_unit t (Proto.Unlink { dir; name }));
    rmdir = (fun ~dir name -> call_unit t (Proto.Rmdir { dir; name }));
    rename =
      (fun ~olddir ~oldname ~newdir ~newname ->
        call_unit t (Proto.Rename { olddir; oldname; newdir; newname }));
    link = (fun ~ino ~dir name -> call_attr t (Proto.Link { ino; dir; name }));
    symlink =
      (fun ~dir name ~target -> call_attr t (Proto.Symlink { dir; name; target }));
    readlink =
      (fun ~ino ->
        match Transport.call t.transport (Proto.Readlink { ino }) with
        | Proto.R_target s -> Ok s
        | r -> Error (errno_of_reply r));
    readdir =
      (fun ino ->
        match Transport.call t.transport (Proto.Readdir { ino }) with
        | Proto.R_dirents des ->
            Ok
              (List.map
                 (fun (name, ino', kind) ->
                   {
                     Kernel.Vfs.d_name = name;
                     d_ino = ino';
                     d_kind = kind_to_vfs kind;
                   })
                 des)
        | r -> Error (errno_of_reply r));
    readdir_filter =
      (fun ino ~prog ->
        (* The whole filtered scan is ONE wire round trip; the daemon runs
           the registered program and ships back only the survivors, each
           with its attributes — no per-entry GETATTR requests. *)
        match
          Transport.call t.transport (Proto.ReaddirFilter { dir = ino; prog })
        with
        | Proto.R_dirents_plus des ->
            Ok
              (List.map
                 (fun (name, (a : Proto.attr)) ->
                   ( {
                       Kernel.Vfs.d_name = name;
                       d_ino = a.Proto.ino;
                       d_kind = kind_to_vfs a.Proto.kind;
                     },
                     stat_of_attr a ))
                 des)
        | r -> Error (errno_of_reply r));
    bmap =
      (fun ~ino ~fbn ->
        match Transport.call t.transport (Proto.Bmap { ino; fbn }) with
        | Proto.R_block n -> Ok n
        | r -> Error (errno_of_reply r));
    readpage =
      (fun ~ino ~index ->
        match
          Transport.call t.transport
            (Proto.Read { ino; off = index * t.page_size; len = t.page_size })
        with
        | Proto.R_data d ->
            if Bytes.length d = t.page_size then Ok d
            else begin
              let page = Bytes.make t.page_size '\000' in
              Bytes.blit d 0 page 0 (Bytes.length d);
              Ok page
            end
        | r -> Error (errno_of_reply r));
    readahead =
      (fun ~ino ~start ~count ->
        (* One READ request for the whole window (bounded by max_read);
           the daemon still reads its blocks one at a time — FUSE pays
           the crossing once but gets no device parallelism. *)
        let count = min count max_write_pages in
        match
          Transport.call t.transport
            (Proto.Read
               {
                 ino;
                 off = start * t.page_size;
                 len = count * t.page_size;
               })
        with
        | Proto.R_data d ->
            Ok
              (Array.init count (fun i ->
                   let page = Bytes.make t.page_size '\000' in
                   let off = i * t.page_size in
                   let n = min t.page_size (max 0 (Bytes.length d - off)) in
                   if n > 0 then Bytes.blit d off page 0 n;
                   page))
        | r -> Error (errno_of_reply r));
    write_pages =
      (fun ~ino ~isize pages ->
        (* ship the contiguous run in max_write-sized WRITE requests *)
        let n = Array.length pages in
        if n = 0 then Ok ()
        else begin
          let rec ship i : (unit, Kernel.Errno.t) result =
            if i >= n then Ok ()
            else begin
              let chunk = min max_write_pages (n - i) in
              let off = fst pages.(i) * t.page_size in
              let len = min (chunk * t.page_size) (max 0 (isize - off)) in
              if len = 0 then ship (i + chunk)
              else
                match
                  Transport.call t.transport
                    (Proto.Write
                       { ino; off; data = Kernel.Vfs.gather_pages pages ~first:i ~len })
                with
                | Proto.R_written _ -> ship (i + chunk)
                | r -> Error (errno_of_reply r)
            end
          in
          ship 0
        end);
    truncate = (fun ~ino size -> call_unit t (Proto.Truncate { ino; size }));
    fsync = (fun ~ino -> call_unit t (Proto.Fsync { ino }));
    sync_fs = (fun () -> call_unit t Proto.Syncfs);
    iopen = (fun ~ino -> call_unit t (Proto.Open { ino }));
    irelease =
      (fun ~ino ->
        match Transport.call t.transport (Proto.Release { ino }) with
        | _ -> ());
    statfs =
      (fun () ->
        match Transport.call t.transport Proto.Statfs with
        | Proto.R_statfs { blocks; bfree; files; ffree } ->
            { Kernel.Vfs.f_blocks = blocks; f_bfree = bfree; f_files = files; f_ffree = ffree }
        | _ ->
            { Kernel.Vfs.f_blocks = 0; f_bfree = 0; f_files = 0; f_ffree = 0 });
    wb_batch = max_write_pages;
    max_file_size;
  }

let create machine transport =
  { transport; page_size = Device.Ssd.block_size (Kernel.Machine.disk machine) }

(** Send DESTROY and close the connection (unmount). *)
let shutdown t =
  (match Transport.call t.transport Proto.Destroy with
  | _ -> ()
  | exception Transport.Connection_closed -> ());
  Transport.close t.transport
