(** Tests of the syscall layer: path resolution, file descriptors, offsets,
    and the page-cache-visible semantics the workloads rely on. *)

open Helpers

let tc = Alcotest.test_case

let test_path_resolution () =
  with_xv6 (fun _m os _ _ ->
      ok (Kernel.Os.mkdir os "/a");
      ok (Kernel.Os.mkdir os "/a/b");
      ok (Kernel.Os.write_file os "/a/b/f" (bytes_of_string "x"));
      (* equivalent spellings *)
      List.iter
        (fun p ->
          match Kernel.Os.stat os p with
          | Ok st -> Alcotest.(check int) (p ^ " size") 1 st.Kernel.Vfs.st_size
          | Error e -> Alcotest.failf "%s: %s" p (Kernel.Errno.to_string e))
        [ "/a/b/f"; "//a//b//f"; "/a/./b/./f"; "/a/b/../b/f" ];
      (* invalid paths *)
      check_res "relative" Kernel.Errno.EINVAL (Kernel.Os.stat os "a/b");
      check_res "empty" Kernel.Errno.EINVAL (Kernel.Os.stat os "");
      check_res "through file" Kernel.Errno.ENOTDIR (Kernel.Os.stat os "/a/b/f/g");
      let st = ok (Kernel.Os.stat os "/") in
      Alcotest.(check int) "root ino" 1 st.Kernel.Vfs.st_ino)

let test_name_too_long () =
  with_xv6 (fun _m os _ _ ->
      let long = "/" ^ String.make 100 'n' in
      check_res "create long name" Kernel.Errno.ENAMETOOLONG
        (Kernel.Os.write_file os long (bytes_of_string "x"));
      let ok59 = "/" ^ String.make Xv6fs.Layout.max_name 'n' in
      ok (Kernel.Os.write_file os ok59 (bytes_of_string "x")))

let test_fd_offsets () =
  with_xv6 (fun _m os _ _ ->
      ok (Kernel.Os.write_file os "/f" (bytes_of_string "0123456789"));
      let fd = ok (Kernel.Os.open_ os "/f" Kernel.Os.rdwr) in
      Alcotest.(check string) "seq 1" "012"
        (Bytes.to_string (ok (Kernel.Os.read os fd ~len:3)));
      Alcotest.(check string) "seq 2" "345"
        (Bytes.to_string (ok (Kernel.Os.read os fd ~len:3)));
      ok (Kernel.Os.lseek os fd 8);
      Alcotest.(check string) "post-seek" "89"
        (Bytes.to_string (ok (Kernel.Os.read os fd ~len:5)));
      (* pread must not disturb the offset *)
      ok (Kernel.Os.lseek os fd 2);
      let _ = ok (Kernel.Os.pread os fd ~pos:7 ~len:2) in
      Alcotest.(check string) "offset preserved" "23"
        (Bytes.to_string (ok (Kernel.Os.read os fd ~len:2)));
      ok (Kernel.Os.close os fd))

let test_two_fds_one_file () =
  with_xv6 (fun _m os _ _ ->
      ok (Kernel.Os.write_file os "/f" (bytes_of_string "aaaa"));
      let fd1 = ok (Kernel.Os.open_ os "/f" Kernel.Os.rdwr) in
      let fd2 = ok (Kernel.Os.open_ os "/f" Kernel.Os.rdonly) in
      let _ = ok (Kernel.Os.pwrite os fd1 ~pos:0 (bytes_of_string "bb")) in
      Alcotest.(check string) "fd2 sees fd1's write" "bbaa"
        (Bytes.to_string (ok (Kernel.Os.pread os fd2 ~pos:0 ~len:4)));
      ok (Kernel.Os.close os fd1);
      ok (Kernel.Os.close os fd2))

let test_unlink_while_open () =
  with_xv6 (fun _m os vfs _ ->
      ok (Kernel.Os.write_file os "/f" (bytes_of_string "still here"));
      let fd = ok (Kernel.Os.open_ os "/f" Kernel.Os.rdonly) in
      ok (Kernel.Os.unlink os "/f");
      check_res "name gone" Kernel.Errno.ENOENT (Kernel.Os.stat os "/f");
      (* the unlinked file's cached pages are still accounted for *)
      Kernel.Vfs.check_accounting vfs;
      (* a new file under the same name must not see the open file's
         size or pages *)
      ok (Kernel.Os.write_file os "/f" (bytes_of_string "new"));
      Alcotest.(check string) "new file" "new"
        (Bytes.to_string (ok (Kernel.Os.read_file os "/f")));
      (* POSIX: data remains readable through the open fd *)
      Alcotest.(check string) "data via fd" "still here"
        (Bytes.to_string (ok (Kernel.Os.pread os fd ~pos:0 ~len:10)));
      ok (Kernel.Os.close os fd);
      (* blocks reclaimed after final close *)
      ok (Kernel.Os.sync os);
      Kernel.Vfs.check_accounting vfs)

let test_ftruncate_and_extend () =
  with_xv6 (fun _m os _ _ ->
      let fd = ok (Kernel.Os.open_ os "/t" Kernel.Os.(creat rdwr)) in
      let _ = ok (Kernel.Os.pwrite os fd ~pos:0 (bytes_of_string "0123456789")) in
      ok (Kernel.Os.ftruncate os fd 4);
      let st = ok (Kernel.Os.fstat os fd) in
      Alcotest.(check int) "shrunk" 4 st.Kernel.Vfs.st_size;
      Alcotest.(check string) "tail cut" "0123"
        (Bytes.to_string (ok (Kernel.Os.pread os fd ~pos:0 ~len:100)));
      (* write past the end: hole reads as zeroes *)
      let _ = ok (Kernel.Os.pwrite os fd ~pos:8 (bytes_of_string "Z")) in
      let got = ok (Kernel.Os.pread os fd ~pos:0 ~len:9) in
      Alcotest.(check bytes) "hole zeroes"
        (Bytes.of_string "0123\000\000\000\000Z") got;
      ok (Kernel.Os.close os fd))

let test_readonly_write_rejected () =
  with_xv6 (fun _m os _ _ ->
      ok (Kernel.Os.write_file os "/r" (bytes_of_string "x"));
      let fd = ok (Kernel.Os.open_ os "/r" Kernel.Os.rdonly) in
      check_res "write on rdonly" Kernel.Errno.EBADF
        (Kernel.Os.pwrite os fd ~pos:0 (bytes_of_string "y"));
      ok (Kernel.Os.close os fd);
      let fd = ok (Kernel.Os.open_ os "/r" Kernel.Os.wronly) in
      check_res "read on wronly" Kernel.Errno.EBADF
        (Kernel.Os.pread os fd ~pos:0 ~len:1);
      ok (Kernel.Os.close os fd))

let test_open_dir_for_write_rejected () =
  with_xv6 (fun _m os _ _ ->
      ok (Kernel.Os.mkdir os "/d");
      check_res "dir wronly" Kernel.Errno.EISDIR
        (Kernel.Os.open_ os "/d" Kernel.Os.wronly))

let test_dcache_invalidation_on_rename () =
  with_xv6 (fun _m os _ _ ->
      ok (Kernel.Os.write_file os "/old" (bytes_of_string "v"));
      let _ = ok (Kernel.Os.stat os "/old") (* warm the dcache *) in
      ok (Kernel.Os.rename os "/old" "/new");
      check_res "stale name invalidated" Kernel.Errno.ENOENT
        (Kernel.Os.stat os "/old");
      let _ = ok (Kernel.Os.stat os "/new") in
      ok (Kernel.Os.unlink os "/new");
      check_res "unlinked invalidated" Kernel.Errno.ENOENT
        (Kernel.Os.stat os "/new"))

(* regression (found by model-based testing): shrinking a file must not
   let a later extension resurrect the old bytes *)
let test_shrink_then_extend_zeroes () =
  with_xv6 (fun _m os _ _ ->
      let fd = ok (Kernel.Os.open_ os "/z" Kernel.Os.(creat rdwr)) in
      let _ = ok (Kernel.Os.pwrite os fd ~pos:0 (Bytes.make 20000 'X')) in
      ok (Kernel.Os.fsync os fd);
      ok (Kernel.Os.ftruncate os fd 214);
      ok (Kernel.Os.ftruncate os fd 4318);
      let got = ok (Kernel.Os.pread os fd ~pos:0 ~len:4318) in
      let expect = Bytes.cat (Bytes.make 214 'X') (Bytes.make (4318 - 214) '\000') in
      Alcotest.(check bytes) "extension reads zeroes" expect got;
      (* the shrink must have freed the tail blocks *)
      ok (Kernel.Os.close os fd);
      ok (Kernel.Os.sync os);
      let free_now = (Kernel.Os.statfs os).Kernel.Vfs.f_bfree in
      ok (Kernel.Os.unlink os "/z");
      ok (Kernel.Os.sync os);
      let free_after = (Kernel.Os.statfs os).Kernel.Vfs.f_bfree in
      Alcotest.(check bool) "only ~2 blocks were still held" true
        (free_after - free_now <= 3))

(* Several fibers each unlink one of their own files, re-create it with
   an fsynced message, and read another of their files back whole. The
   unlink's commit blocks on log I/O after the inode is freed, so another
   fiber's create can recycle the inode number meanwhile; the new file
   must start empty, not inherit the dying file's cached size and pages. *)
let test_unlink_recreate_race () =
  with_seed ~default:1 (fun seed ->
      in_sim (fun machine ->
          ok (Bento.Bentofs.mkfs machine xv6_maker);
          let vfs, handle =
            ok (Bento.Bentofs.mount ~background:true machine xv6_maker)
          in
          let os = Kernel.Os.create vfs in
          let fibers = 8 and files_per_fiber = 6 and rounds = 60 in
          let path id = Printf.sprintf "/m%03d" id in
          let rng = Sim.Rng.create seed in
          let contents =
            Array.init (fibers * files_per_fiber) (fun id ->
                let data = payload ~seed:(seed + id) (1024 + Sim.Rng.int rng 12288) in
                ok (Kernel.Os.write_file os (path id) data);
                data)
          in
          ok (Kernel.Os.sync os);
          let wrong = ref [] in
          let done_ = Sim.Sync.Semaphore.create 0 in
          for c = 0 to fibers - 1 do
            let rng = Sim.Rng.split rng in
            let own () = c + (fibers * Sim.Rng.int rng files_per_fiber) in
            Kernel.Machine.spawn ~name:(Printf.sprintf "mail%d" c) machine
              (fun () ->
                for r = 1 to rounds do
                  let victim = own () in
                  ok (Kernel.Os.unlink os (path victim));
                  let msg =
                    payload ~seed:((seed * 1000) + (c * 100) + r)
                      (512 + Sim.Rng.int rng 6144)
                  in
                  let fd =
                    ok
                      (Kernel.Os.open_ os (path victim)
                         Kernel.Os.(creat (appendf wronly)))
                  in
                  ignore (ok (Kernel.Os.write os fd msg));
                  ok (Kernel.Os.fsync os fd);
                  ok (Kernel.Os.close os fd);
                  contents.(victim) <- msg;
                  let other = own () in
                  let fd = ok (Kernel.Os.open_ os (path other) Kernel.Os.rdonly) in
                  let st = ok (Kernel.Os.fstat os fd) in
                  let got =
                    ok (Kernel.Os.pread os fd ~pos:0 ~len:st.Kernel.Vfs.st_size)
                  in
                  ok (Kernel.Os.close os fd);
                  if not (Bytes.equal got contents.(other)) then
                    wrong :=
                      Printf.sprintf "%s: read %d bytes, want %d" (path other)
                        (Bytes.length got)
                        (Bytes.length contents.(other))
                      :: !wrong
                done;
                Sim.Sync.Semaphore.release done_)
          done;
          for _ = 1 to fibers do
            Sim.Sync.Semaphore.acquire done_
          done;
          Bento.Bentofs.unmount vfs handle;
          match !wrong with
          | [] -> ()
          | w :: _ ->
              Alcotest.failf "%d wrong whole-file reads, e.g. %s"
                (List.length !wrong) w))

let suite =
  [
    tc "unlink/re-create race keeps sizes" `Quick test_unlink_recreate_race;
    tc "path resolution" `Quick test_path_resolution;
    tc "name too long" `Quick test_name_too_long;
    tc "fd offsets" `Quick test_fd_offsets;
    tc "two fds, one file" `Quick test_two_fds_one_file;
    tc "unlink while open" `Quick test_unlink_while_open;
    tc "ftruncate + holes" `Quick test_ftruncate_and_extend;
    tc "permission flags" `Quick test_readonly_write_rejected;
    tc "open dir for write" `Quick test_open_dir_for_write_rejected;
    tc "dcache invalidation" `Quick test_dcache_invalidation_on_rename;
    tc "shrink-then-extend zeroes" `Quick test_shrink_then_extend_zeroes;
  ]
