(** Property tests of the on-disk serialisation layers (xv6 + ext4 + byte
    accessors). *)

let tc = Alcotest.test_case

let gen_name =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 Xv6fs.Layout.max_name) (char_range 'a' 'z')))

let prop_bytesio_u64 =
  QCheck.Test.make ~count:300 ~name:"bytesio u64 roundtrip"
    QCheck.(int_bound max_int)
    (fun v ->
      let b = Bytes.create 16 in
      Util.Bytesio.set_int_as_u64 b 4 v;
      Util.Bytesio.get_int64_as_int b 4 = v)

let prop_bytesio_string =
  QCheck.Test.make ~count:300 ~name:"bytesio fixed string roundtrip"
    (QCheck.make gen_name)
    (fun s ->
      let b = Bytes.make 64 '\xff' in
      Util.Bytesio.set_string b ~off:2 ~width:60 s;
      Util.Bytesio.get_string b ~off:2 ~width:60 = s)

let gen_dinode =
  QCheck.Gen.(
    map
      (fun ((ftype, nlink), (size, addrs)) ->
        {
          Xv6fs.Layout.ftype =
            (match ftype with
            | 0 -> Xv6fs.Layout.F_dir
            | 1 -> Xv6fs.Layout.F_file
            | _ -> Xv6fs.Layout.F_symlink);
          nlink;
          size;
          addrs = Array.of_list addrs;
        })
      (pair
         (pair (int_range 0 2) (int_range 0 1000))
         (pair (int_range 0 Xv6fs.Layout.max_file_size)
            (list_repeat (Xv6fs.Layout.ndirect + 2) (int_range 0 0xFFFFFF)))))

let prop_dinode_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xv6 dinode put/get roundtrip"
    (QCheck.make gen_dinode)
    (fun d ->
      let block = Bytes.make Xv6fs.Layout.block_size '\000' in
      let slot = 7 in
      Xv6fs.Layout.put_dinode block ~slot d;
      match Xv6fs.Layout.get_dinode block ~slot with
      | Ok d' ->
          d'.Xv6fs.Layout.ftype = d.Xv6fs.Layout.ftype
          && d'.Xv6fs.Layout.nlink = d.Xv6fs.Layout.nlink
          && d'.Xv6fs.Layout.size = d.Xv6fs.Layout.size
          && d'.Xv6fs.Layout.addrs = d.Xv6fs.Layout.addrs
      | Error _ -> false)

let prop_dirent_roundtrip =
  QCheck.Test.make ~count:300 ~name:"xv6 dirent put/get roundtrip"
    QCheck.(pair (make gen_name) (int_range 1 1_000_000))
    (fun (name, ino) ->
      let block = Bytes.make Xv6fs.Layout.block_size '\000' in
      Xv6fs.Layout.put_dirent block ~slot:3 ~ino ~name;
      Xv6fs.Layout.get_dirent block ~slot:3 = Some (ino, name)
      && Xv6fs.Layout.get_dirent block ~slot:2 = None)

let prop_superblock_roundtrip =
  QCheck.Test.make ~count:200 ~name:"xv6 superblock roundtrip"
    QCheck.(pair (int_range 4096 (1 lsl 24)) (int_range 64 200_000))
    (fun (size, ninodes) ->
      let sb = Xv6fs.Layout.compute ~size ~ninodes ~nlog:126 in
      let b = Bytes.make Xv6fs.Layout.block_size '\000' in
      Xv6fs.Layout.put_superblock b sb;
      Xv6fs.Layout.get_superblock b = Ok sb)

let prop_log_header_roundtrip =
  QCheck.Test.make ~count:200 ~name:"xv6 log header roundtrip"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 120) (int_range 1 100_000))
    (fun targets ->
      let h =
        {
          Xv6fs.Layout.n = List.length targets;
          checksum = 0x1234_5678_9ABCL;
          targets = Array.of_list targets;
        }
      in
      let b = Bytes.make Xv6fs.Layout.block_size '\000' in
      Xv6fs.Layout.put_log_header b h;
      let h' = Xv6fs.Layout.get_log_header b in
      h'.Xv6fs.Layout.n = h.Xv6fs.Layout.n
      && h'.Xv6fs.Layout.targets = h.Xv6fs.Layout.targets
      && Int64.equal h'.Xv6fs.Layout.checksum h.Xv6fs.Layout.checksum)

let test_layout_geometry () =
  let sb = Xv6fs.Layout.compute ~size:65536 ~ninodes:4096 ~nlog:126 in
  (* regions must not overlap and must cover the device in order *)
  Alcotest.(check bool) "log after sb" true (sb.Xv6fs.Layout.logstart = 2);
  Alcotest.(check bool) "inodes after log" true
    (sb.Xv6fs.Layout.inodestart = sb.Xv6fs.Layout.logstart + sb.Xv6fs.Layout.nlog);
  Alcotest.(check bool) "bitmap after inodes" true
    (sb.Xv6fs.Layout.bmapstart > sb.Xv6fs.Layout.inodestart);
  Alcotest.(check bool) "data after bitmap" true
    (sb.Xv6fs.Layout.datastart > sb.Xv6fs.Layout.bmapstart);
  Alcotest.(check int) "data block count" (65536 - sb.Xv6fs.Layout.datastart)
    sb.Xv6fs.Layout.nblocks;
  (* inode addressing stays inside the inode region *)
  let last = Xv6fs.Layout.iblock sb (sb.Xv6fs.Layout.ninodes - 1) in
  Alcotest.(check bool) "inode block bounded" true (last < sb.Xv6fs.Layout.bmapstart)

let prop_checksum_sensitive =
  QCheck.Test.make ~count:100 ~name:"log checksum detects missing block"
    QCheck.(int_range 2 20)
    (fun n ->
      let blocks =
        List.init n (fun i -> Bytes.make 4096 (Char.chr (33 + (i mod 90))))
      in
      let full = Util.Fnv64.checksum_blocks blocks in
      let torn = Util.Fnv64.checksum_blocks (List.tl blocks) in
      not (Int64.equal full torn))

(* The log checksum as first written: a closure-captured running hash.
   Kept as the reference the unboxed fold must agree with bit for bit,
   since the value is part of the on-disk log format. *)
let reference_checksum (blocks : Bytes.t list) =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.logxor !h v;
    h := Int64.mul !h 0x100000001b3L
  in
  List.iter
    (fun b ->
      let len = Bytes.length b in
      mix (Int64.of_int len);
      let off = ref 0 in
      while !off + 8 <= len do
        mix (Bytes.get_int64_le b !off);
        off := !off + 8
      done)
    blocks;
  !h

let prop_checksum_reference =
  QCheck.Test.make ~count:200 ~name:"log checksum equals reference definition"
    QCheck.(list_of_size Gen.(int_range 0 6) (string_of_size Gen.(int_range 0 300)))
    (fun strs ->
      let blocks = List.map Bytes.of_string strs in
      Int64.equal (Util.Fnv64.checksum_blocks blocks) (reference_checksum blocks))

let golden_blocks () =
  [
    Bytes.init 4096 (fun i -> Char.chr (i land 0xff));
    Bytes.make 4096 'x';
    Bytes.make 19 'z';
  ]

let test_checksum_golden () =
  (* a change here changes the on-disk log format *)
  Alcotest.(check int64) "no blocks" 0xcbf29ce484222325L
    (Util.Fnv64.checksum_blocks []);
  Alcotest.(check int64) "golden" 0x312a516a1dd3b66eL
    (Util.Fnv64.checksum_blocks (golden_blocks ()))

let test_checksum_unboxed () =
  let blocks = List.init 64 (fun i -> Bytes.make 4096 (Char.chr (i + 33))) in
  ignore (Util.Fnv64.checksum_blocks blocks);
  let before = Gc.minor_words () in
  let h = Util.Fnv64.checksum_blocks blocks in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity h);
  let per_block = words /. 64. in
  if per_block >= 16. then
    Alcotest.failf "checksum allocates %.1f words per 4 KiB block" per_block

let gen_extent =
  QCheck.Gen.(
    map
      (fun ((l, p), len) ->
        { Ext4sim.Layout4.e_logical = l; e_physical = p; e_len = len })
      (pair (pair (int_range 0 100000) (int_range 1 100000)) (int_range 1 32768)))

let prop_ext4_dinode_roundtrip =
  QCheck.Test.make ~count:300 ~name:"ext4 dinode roundtrip"
    (QCheck.make
       QCheck.Gen.(
         map
           (fun (((kind, nlink), size), (nextents, (inline, leaves))) ->
             {
               Ext4sim.Layout4.kind =
                 (match kind with
                 | 0 -> Ext4sim.Layout4.K_dir
                 | 1 -> Ext4sim.Layout4.K_file
                 | _ -> Ext4sim.Layout4.K_symlink);
               nlink;
               size;
               nextents;
               inline = Array.of_list inline;
               leaves = Array.of_list leaves;
             })
           (pair
              (pair (pair (int_range 0 2) (int_range 0 100)) (int_range 0 (1 lsl 30)))
              (pair (int_range 0 1000)
                 (pair
                    (list_repeat Ext4sim.Layout4.inline_extents gen_extent)
                    (list_repeat Ext4sim.Layout4.leaf_ptrs (int_range 0 100000)))))))
    (fun d ->
      let block = Bytes.make Ext4sim.Layout4.block_size '\000' in
      Ext4sim.Layout4.put_dinode block ~slot:3 d;
      match Ext4sim.Layout4.get_dinode block ~slot:3 with
      | Ok d' -> d' = d
      | Error _ -> false)

let prop_ext4_descriptor_roundtrip =
  QCheck.Test.make ~count:200 ~name:"ext4 journal descriptor roundtrip"
    QCheck.(pair (int_range 1 100000) (list_of_size (QCheck.Gen.int_range 0 500) (int_range 1 1_000_000)))
    (fun (sequence, targets) ->
      let b = Bytes.make Ext4sim.Layout4.block_size '\000' in
      Ext4sim.Layout4.put_descriptor b ~sequence ~count:(List.length targets)
        ~checksum:99L ~targets:(Array.of_list targets);
      match Ext4sim.Layout4.get_descriptor b with
      | Some (s, c, t) ->
          s = sequence && Int64.equal c 99L && t = Array.of_list targets
      | None -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bytesio_u64;
    QCheck_alcotest.to_alcotest prop_bytesio_string;
    QCheck_alcotest.to_alcotest prop_dinode_roundtrip;
    QCheck_alcotest.to_alcotest prop_dirent_roundtrip;
    QCheck_alcotest.to_alcotest prop_superblock_roundtrip;
    QCheck_alcotest.to_alcotest prop_log_header_roundtrip;
    QCheck_alcotest.to_alcotest prop_checksum_sensitive;
    QCheck_alcotest.to_alcotest prop_checksum_reference;
    tc "log checksum golden value" `Quick test_checksum_golden;
    tc "log checksum does not box per word" `Quick test_checksum_unboxed;
    QCheck_alcotest.to_alcotest prop_ext4_dinode_roundtrip;
    QCheck_alcotest.to_alcotest prop_ext4_descriptor_roundtrip;
    tc "layout geometry" `Quick test_layout_geometry;
  ]
