let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A plain loop over a local ref: the compiler keeps [h] unboxed, which a
   ref captured by a closure would not allow. *)
let fold_block h0 b =
  let len = Bytes.length b in
  let h = ref (Int64.mul (Int64.logxor h0 (Int64.of_int len)) prime) in
  for i = 0 to (len / 8) - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b (i * 8))) prime
  done;
  !h

let checksum_blocks blocks = List.fold_left fold_block init blocks
