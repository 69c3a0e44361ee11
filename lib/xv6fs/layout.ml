(** On-disk format of the xv6 file system, modernised as in the paper's
    ports: 4 KB blocks, 60-character names, and a double-indirect block so
    files can reach 4 GB (§6.1). Pure serialisation — no I/O — so the format
    is property-testable in isolation.

    Disk layout (in blocks):
    [ 0: boot | 1: superblock | log header + log | inodes | bitmap | data ] *)

let block_size = 4096
let fs_magic = 0x10203040
let root_ino = 1

let ndirect = 12
let nindirect = block_size / 4 (* u32 block pointers *)

(** Maximum file size in blocks: direct + single + double indirect. *)
let max_file_blocks = ndirect + nindirect + (nindirect * nindirect)

let max_file_size = max_file_blocks * block_size

(* Inodes: 128 bytes each. *)
let dinode_size = 128
let inodes_per_block = block_size / dinode_size

type ftype = F_free | F_dir | F_file | F_symlink

let ftype_to_int = function F_free -> 0 | F_dir -> 1 | F_file -> 2 | F_symlink -> 3

let ftype_of_int = function
  | 0 -> Ok F_free
  | 1 -> Ok F_dir
  | 2 -> Ok F_file
  | 3 -> Ok F_symlink
  | n -> Error (Printf.sprintf "bad inode type %d" n)

type dinode = {
  ftype : ftype;
  nlink : int;
  size : int;
  addrs : int array;  (** ndirect + 2 entries: direct, single, double *)
}

let zero_dinode =
  { ftype = F_free; nlink = 0; size = 0; addrs = Array.make (ndirect + 2) 0 }

let put_dinode block ~slot (d : dinode) =
  if Array.length d.addrs <> ndirect + 2 then invalid_arg "put_dinode: addrs";
  let off = slot * dinode_size in
  Util.Bytesio.set_u16 block off (ftype_to_int d.ftype);
  Util.Bytesio.set_u16 block (off + 2) d.nlink;
  Util.Bytesio.set_u32 block (off + 4) 0 (* pad *);
  Util.Bytesio.set_int_as_u64 block (off + 8) d.size;
  Array.iteri
    (fun i a -> Util.Bytesio.set_u32 block (off + 16 + (i * 4)) a)
    d.addrs

let get_dinode block ~slot : (dinode, string) result =
  let off = slot * dinode_size in
  match ftype_of_int (Util.Bytesio.get_u16 block off) with
  | Error _ as e -> e
  | Ok ftype ->
      Ok
        {
          ftype;
          nlink = Util.Bytesio.get_u16 block (off + 2);
          size = Util.Bytesio.get_int64_as_int block (off + 8);
          addrs =
            Array.init (ndirect + 2) (fun i ->
                Util.Bytesio.get_u32 block (off + 16 + (i * 4)));
        }

(* Directory entries: 64 bytes — u32 inode + 60-byte name. ino = 0 marks a
   free slot. *)
let dirent_size = 64
let max_name = dirent_size - 4 - 1 (* keep one NUL so names are C-safe *)
let dirents_per_block = block_size / dirent_size

let put_dirent block ~slot ~ino ~name =
  if String.length name > max_name then invalid_arg "put_dirent: name too long";
  let off = slot * dirent_size in
  Util.Bytesio.set_u32 block off ino;
  Util.Bytesio.set_string block ~off:(off + 4) ~width:(dirent_size - 4) name

let get_dirent block ~slot =
  let off = slot * dirent_size in
  let ino = Util.Bytesio.get_u32 block off in
  if ino = 0 then None
  else
    Some (ino, Util.Bytesio.get_string block ~off:(off + 4) ~width:(dirent_size - 4))

let clear_dirent block ~slot =
  Bytes.fill block (slot * dirent_size) dirent_size '\000'

(* Superblock, stored in block 1. *)
type superblock = {
  size : int;  (** total blocks on the device image *)
  nblocks : int;  (** data blocks *)
  ninodes : int;
  nlog : int;  (** log blocks, including the header *)
  logstart : int;
  inodestart : int;
  bmapstart : int;
  datastart : int;
}

let put_superblock block sb =
  Util.Bytesio.set_u32 block 0 fs_magic;
  Util.Bytesio.set_u32 block 4 sb.size;
  Util.Bytesio.set_u32 block 8 sb.nblocks;
  Util.Bytesio.set_u32 block 12 sb.ninodes;
  Util.Bytesio.set_u32 block 16 sb.nlog;
  Util.Bytesio.set_u32 block 20 sb.logstart;
  Util.Bytesio.set_u32 block 24 sb.inodestart;
  Util.Bytesio.set_u32 block 28 sb.bmapstart;
  Util.Bytesio.set_u32 block 32 sb.datastart

let get_superblock block : (superblock, string) result =
  if Util.Bytesio.get_u32 block 0 <> fs_magic then Error "bad magic"
  else
    Ok
      {
        size = Util.Bytesio.get_u32 block 4;
        nblocks = Util.Bytesio.get_u32 block 8;
        ninodes = Util.Bytesio.get_u32 block 12;
        nlog = Util.Bytesio.get_u32 block 16;
        logstart = Util.Bytesio.get_u32 block 20;
        inodestart = Util.Bytesio.get_u32 block 24;
        bmapstart = Util.Bytesio.get_u32 block 28;
        datastart = Util.Bytesio.get_u32 block 32;
      }

(* Log header, stored in the first log block: the count of committed blocks,
   a checksum over the logged data, and the blocks' home addresses. The
   checksum (absent from teaching xv6, standard in jbd2) lets recovery
   reject a torn commit instead of replaying garbage. *)
let log_max_entries = (block_size - 16) / 4

type log_header = { n : int; checksum : int64; targets : int array }

let put_log_header block h =
  if h.n > log_max_entries then invalid_arg "put_log_header";
  Bytes.fill block 0 (Bytes.length block) '\000';
  Util.Bytesio.set_u32 block 0 h.n;
  Util.Bytesio.set_u64 block 8 h.checksum;
  for i = 0 to h.n - 1 do
    Util.Bytesio.set_u32 block (16 + (i * 4)) h.targets.(i)
  done

let get_log_header block =
  let n = Util.Bytesio.get_u32 block 0 in
  let n = if n > log_max_entries then 0 (* corrupt: treat as empty *) else n in
  {
    n;
    checksum = Util.Bytesio.get_u64 block 8;
    targets = Array.init n (fun i -> Util.Bytesio.get_u32 block (16 + (i * 4)));
  }

(** Compute a layout for a device of [size] blocks. [nlog] counts log data
    blocks (the header adds one more). *)
let compute ~size ~ninodes ~nlog =
  if size < 16 then invalid_arg "Layout.compute: device too small";
  let logstart = 2 in
  let inodestart = logstart + nlog + 1 in
  let ninodeblocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  let bmapstart = inodestart + ninodeblocks in
  let bits_per_block = block_size * 8 in
  (* Bitmap must cover every block on the device (simpler and safer than
     covering only the data area). *)
  let nbitmap = (size + bits_per_block - 1) / bits_per_block in
  let datastart = bmapstart + nbitmap in
  if datastart >= size then invalid_arg "Layout.compute: no room for data";
  {
    size;
    nblocks = size - datastart;
    ninodes;
    nlog = nlog + 1;
    logstart;
    inodestart;
    bmapstart;
    datastart;
  }

(** Block number holding inode [ino]. *)
let iblock sb ino = sb.inodestart + (ino / inodes_per_block)

let islot ino = ino mod inodes_per_block

(** Bitmap block covering data block [b], and the bit within it. *)
let bblock sb b = sb.bmapstart + (b / (block_size * 8))

let bbit b = b mod (block_size * 8)
