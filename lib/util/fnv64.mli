(** The log checksum shared by the xv6 log and the ext4 journal: FNV-1a
    over 64-bit little-endian words. Each block mixes in its length, then
    every whole 8-byte word; a tail shorter than a word is not covered.

    Sampling stripes is not enough here: a torn commit can leave a
    {e previous} transaction's copy in a log slot, and that stale copy
    differs from the lost write in only a few bytes (one dirent, one
    inode), which a sparse sample can miss — recovery would then install
    the stale block. *)

val init : int64
(** The FNV-1a 64-bit offset basis: the checksum of no blocks. *)

val fold_block : int64 -> Bytes.t -> int64
(** Mix one block into a running checksum. Allocates only the boxed
    result, so a commit can fold each block in place as it writes it. *)

val checksum_blocks : Bytes.t list -> int64
(** [List.fold_left fold_block init]. *)
