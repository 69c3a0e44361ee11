(** Array-based binary min-heap keyed by (time, sequence), the engine's
    queue of future events. The sequence number totalises the order, which
    is what makes whole simulations deterministic. *)

type entry = {
  time : int64;
  seq : int;
  owner : int;  (** fid of the fiber the event resumes, -1 for none *)
  run : unit -> unit;
}

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** Current backing-array size. Popped slots are cleared and the array
    shrinks at 1/4 occupancy, so popped closures are unreachable. *)
val capacity : t -> int

val push : t -> time:int64 -> seq:int -> owner:int -> (unit -> unit) -> unit

val peek : t -> entry
(** The least entry. Raises [Invalid_argument] when empty. *)

val pop : t -> entry
(** Remove and return the least entry. Raises [Invalid_argument] when
    empty. *)
