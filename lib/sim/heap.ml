(** Array-based binary min-heap of timed events, keyed by (event time,
    insertion sequence number). The sequence number makes event ordering
    total and hence the whole simulation deterministic.

    Entries sit in the array unboxed. A vacated slot is reset to a shared
    empty entry, and the backing array shrinks once the live size falls
    below a quarter of capacity; otherwise popped closures (and everything
    they capture) would stay reachable from [arr] for the lifetime of the
    run. *)

type entry = { time : int64; seq : int; owner : int; run : unit -> unit }
type t = { mutable arr : entry array; mutable size : int }

let vacant = { time = 0L; seq = 0; owner = -1; run = ignore }
let min_capacity = 16
let create () = { arr = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0
let capacity h = Array.length h.arr

let lt a b =
  match Int64.compare a.time b.time with 0 -> a.seq < b.seq | c -> c < 0

let resize h ncap =
  let narr = Array.make ncap vacant in
  Array.blit h.arr 0 narr 0 h.size;
  h.arr <- narr

let push h ~time ~seq ~owner run =
  let cap = Array.length h.arr in
  if h.size = cap then resize h (if cap = 0 then min_capacity else cap * 2);
  let e = { time; seq; owner; run } in
  (* sift up: move parents down into the hole until [e] fits *)
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && lt e h.arr.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    h.arr.(!i) <- h.arr.(p);
    i := p
  done;
  h.arr.(!i) <- e

let peek h = if h.size = 0 then invalid_arg "Heap.peek: empty" else h.arr.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let top = h.arr.(0) in
  let n = h.size - 1 in
  let last = h.arr.(n) in
  h.arr.(n) <- vacant;
  h.size <- n;
  if n > 0 then begin
    (* sift down: move the smaller child up into the hole until [last] fits *)
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && lt h.arr.(l + 1) h.arr.(l) then l + 1 else l in
        if lt h.arr.(c) last then begin
          h.arr.(!i) <- h.arr.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.arr.(!i) <- last
  end;
  (* Halve the backing array when occupancy drops below 1/4 so a burst of
     events does not pin a large array forever. *)
  let cap = Array.length h.arr in
  if cap > min_capacity && n < cap / 4 then resize h (max min_capacity (cap / 2));
  top
