(** The FUSE wire protocol (low-level API subset).

    Requests and replies really are serialised to bytes and parsed back on
    the other side — the copies are what the user/kernel crossing charges
    for, and the round-trip through this module is covered by property
    tests. Framing:

    request  = u16 opcode | u64 unique | u64 nodeid | payload
    reply    = u64 unique | i32 errno (0 = ok) | payload *)

type attr = { ino : int; kind : int; size : int; nlink : int }
(** kind: 0 = regular, 1 = directory, 2 = symlink *)

type request =
  | Lookup of { dir : int; name : string }
  | Getattr of { ino : int }
  | Create of { dir : int; name : string }
  | Mkdir of { dir : int; name : string }
  | Unlink of { dir : int; name : string }
  | Rmdir of { dir : int; name : string }
  | Rename of { olddir : int; oldname : string; newdir : int; newname : string }
  | Link of { ino : int; dir : int; name : string }
  | Read of { ino : int; off : int; len : int }
  | Write of { ino : int; off : int; data : Bytes.t }
  | Truncate of { ino : int; size : int }
  | Fsync of { ino : int }
  | Syncfs
  | Readdir of { ino : int }
  | Open of { ino : int }
  | Release of { ino : int }
  | Statfs
  | Destroy
  | Symlink of { dir : int; name : string; target : string }
  | Readlink of { ino : int }
  | ReaddirFilter of { dir : int; prog : string }
      (** pushdown scan: filter + stat batch in ONE round trip *)
  | Bmap of { ino : int; fbn : int }  (** FIBMAP *)

type reply =
  | R_err of Kernel.Errno.t
  | R_none
  | R_attr of attr
  | R_data of Bytes.t
  | R_written of int
  | R_dirents of (string * int * int) list  (** name, ino, kind *)
  | R_statfs of { blocks : int; bfree : int; files : int; ffree : int }
  | R_target of string  (** readlink result *)
  | R_dirents_plus of (string * attr) list
      (** pushdown scan result: surviving entries with their attributes *)
  | R_block of int  (** bmap result (0 = hole) *)

let opcode = function
  | Lookup _ -> 1
  | Getattr _ -> 2
  | Create _ -> 3
  | Mkdir _ -> 4
  | Unlink _ -> 5
  | Rmdir _ -> 6
  | Rename _ -> 7
  | Link _ -> 8
  | Read _ -> 9
  | Write _ -> 10
  | Truncate _ -> 11
  | Fsync _ -> 12
  | Syncfs -> 13
  | Readdir _ -> 14
  | Open _ -> 15
  | Release _ -> 16
  | Statfs -> 17
  | Destroy -> 18
  | Symlink _ -> 19
  | Readlink _ -> 20
  | ReaddirFilter _ -> 21
  | Bmap _ -> 22

exception Malformed of string

(* --- little builders over a Buffer ------------------------------- *)

let add_u16 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_str b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_bytes b d =
  add_u64 b (Bytes.length d);
  Buffer.add_bytes b d

type cursor = { buf : Bytes.t; mutable pos : int }

let need c n =
  if c.pos + n > Bytes.length c.buf then raise (Malformed "short message")

let get_u16 c =
  need c 2;
  let v = Util.Bytesio.get_u16 c.buf c.pos in
  c.pos <- c.pos + 2;
  v

let get_u64 c =
  need c 8;
  let v =
    try Util.Bytesio.get_int64_as_int c.buf c.pos
    with Invalid_argument _ -> raise (Malformed "u64 out of range")
  in
  c.pos <- c.pos + 8;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) in
  c.pos <- c.pos + 4;
  v

let get_str c =
  let n = get_u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_data c =
  let n = get_u64 c in
  need c n;
  let d = Bytes.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  d

(* --- requests ------------------------------------------------------ *)

(* Room for the fixed fields plus any bulk payload, so a [Write] or an
   [R_data] is copied into the buffer once, without regrowing it. *)
let header_room = 64

let encode_request ~unique (r : request) : Bytes.t =
  let b =
    Buffer.create
      (match r with
      | Write { data; _ } -> header_room + Bytes.length data
      | _ -> header_room)
  in
  add_u16 b (opcode r);
  add_u64 b unique;
  (match r with
  | Lookup { dir; name }
  | Create { dir; name }
  | Mkdir { dir; name }
  | Unlink { dir; name }
  | Rmdir { dir; name } ->
      add_u64 b dir;
      add_str b name
  | Getattr { ino } | Fsync { ino } | Readdir { ino } | Open { ino }
  | Release { ino } ->
      add_u64 b ino
  | Rename { olddir; oldname; newdir; newname } ->
      add_u64 b olddir;
      add_str b oldname;
      add_u64 b newdir;
      add_str b newname
  | Link { ino; dir; name } ->
      add_u64 b ino;
      add_u64 b dir;
      add_str b name
  | Read { ino; off; len } ->
      add_u64 b ino;
      add_u64 b off;
      add_u64 b len
  | Write { ino; off; data } ->
      add_u64 b ino;
      add_u64 b off;
      add_bytes b data
  | Truncate { ino; size } ->
      add_u64 b ino;
      add_u64 b size
  | Symlink { dir; name; target } ->
      add_u64 b dir;
      add_str b name;
      add_str b target
  | Readlink { ino } -> add_u64 b ino
  | ReaddirFilter { dir; prog } ->
      add_u64 b dir;
      add_str b prog
  | Bmap { ino; fbn } ->
      add_u64 b ino;
      add_u64 b fbn
  | Syncfs | Statfs | Destroy -> ());
  Buffer.to_bytes b

let decode_request (m : Bytes.t) : int * request =
  let c = { buf = m; pos = 0 } in
  let op = get_u16 c in
  let unique = get_u64 c in
  let req =
    match op with
    | 1 ->
        let dir = get_u64 c in
        Lookup { dir; name = get_str c }
    | 2 -> Getattr { ino = get_u64 c }
    | 3 ->
        let dir = get_u64 c in
        Create { dir; name = get_str c }
    | 4 ->
        let dir = get_u64 c in
        Mkdir { dir; name = get_str c }
    | 5 ->
        let dir = get_u64 c in
        Unlink { dir; name = get_str c }
    | 6 ->
        let dir = get_u64 c in
        Rmdir { dir; name = get_str c }
    | 7 ->
        let olddir = get_u64 c in
        let oldname = get_str c in
        let newdir = get_u64 c in
        Rename { olddir; oldname; newdir; newname = get_str c }
    | 8 ->
        let ino = get_u64 c in
        let dir = get_u64 c in
        Link { ino; dir; name = get_str c }
    | 9 ->
        let ino = get_u64 c in
        let off = get_u64 c in
        Read { ino; off; len = get_u64 c }
    | 10 ->
        let ino = get_u64 c in
        let off = get_u64 c in
        Write { ino; off; data = get_data c }
    | 11 ->
        let ino = get_u64 c in
        Truncate { ino; size = get_u64 c }
    | 12 -> Fsync { ino = get_u64 c }
    | 13 -> Syncfs
    | 14 -> Readdir { ino = get_u64 c }
    | 15 -> Open { ino = get_u64 c }
    | 16 -> Release { ino = get_u64 c }
    | 17 -> Statfs
    | 18 -> Destroy
    | 19 ->
        let dir = get_u64 c in
        let name = get_str c in
        Symlink { dir; name; target = get_str c }
    | 20 -> Readlink { ino = get_u64 c }
    | 21 ->
        let dir = get_u64 c in
        ReaddirFilter { dir; prog = get_str c }
    | 22 ->
        let ino = get_u64 c in
        Bmap { ino; fbn = get_u64 c }
    | n -> raise (Malformed (Printf.sprintf "bad opcode %d" n))
  in
  (unique, req)

(* --- replies ------------------------------------------------------- *)

let add_attr b (a : attr) =
  add_u64 b a.ino;
  add_u16 b a.kind;
  add_u64 b a.size;
  add_u64 b a.nlink

let get_attr c =
  let ino = get_u64 c in
  let kind = get_u16 c in
  let size = get_u64 c in
  let nlink = get_u64 c in
  { ino; kind; size; nlink }

let encode_reply ~unique (r : reply) : Bytes.t =
  let b =
    Buffer.create
      (match r with
      | R_data d -> header_room + Bytes.length d
      | _ -> header_room)
  in
  add_u64 b unique;
  let err, tag =
    match r with
    | R_err e -> (Kernel.Errno.to_code e, 0)
    | R_none -> (0, 1)
    | R_attr _ -> (0, 2)
    | R_data _ -> (0, 3)
    | R_written _ -> (0, 4)
    | R_dirents _ -> (0, 5)
    | R_statfs _ -> (0, 6)
    | R_target _ -> (0, 7)
    | R_dirents_plus _ -> (0, 8)
    | R_block _ -> (0, 9)
  in
  Buffer.add_int32_le b (Int32.of_int err);
  add_u16 b tag;
  (match r with
  | R_err _ | R_none -> ()
  | R_attr a -> add_attr b a
  | R_data d -> add_bytes b d
  | R_written n -> add_u64 b n
  | R_dirents des ->
      add_u64 b (List.length des);
      List.iter
        (fun (name, ino, kind) ->
          add_str b name;
          add_u64 b ino;
          add_u16 b kind)
        des
  | R_statfs { blocks; bfree; files; ffree } ->
      add_u64 b blocks;
      add_u64 b bfree;
      add_u64 b files;
      add_u64 b ffree
  | R_target s -> add_str b s
  | R_dirents_plus des ->
      add_u64 b (List.length des);
      List.iter
        (fun (name, a) ->
          add_str b name;
          add_attr b a)
        des
  | R_block n -> add_u64 b n);
  Buffer.to_bytes b

let decode_reply (m : Bytes.t) : int * reply =
  let c = { buf = m; pos = 0 } in
  let unique = get_u64 c in
  let err = get_i32 c in
  let tag = get_u16 c in
  let r =
    if err <> 0 then
      match Kernel.Errno.of_code err with
      | Some e -> R_err e
      | None -> R_err Kernel.Errno.EIO
    else
      match tag with
      | 1 -> R_none
      | 2 -> R_attr (get_attr c)
      | 3 -> R_data (get_data c)
      | 4 -> R_written (get_u64 c)
      | 5 ->
          let n = get_u64 c in
          R_dirents
            (List.init n (fun _ ->
                 let name = get_str c in
                 let ino = get_u64 c in
                 let kind = get_u16 c in
                 (name, ino, kind)))
      | 6 ->
          let blocks = get_u64 c in
          let bfree = get_u64 c in
          let files = get_u64 c in
          R_statfs { blocks; bfree; files; ffree = get_u64 c }
      | 7 -> R_target (get_str c)
      | 8 ->
          let n = get_u64 c in
          R_dirents_plus
            (List.init n (fun _ ->
                 let name = get_str c in
                 (name, get_attr c)))
      | 9 -> R_block (get_u64 c)
      | n -> raise (Malformed (Printf.sprintf "bad reply tag %d" n))
  in
  (unique, r)
