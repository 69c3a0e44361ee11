(** Named counters, latency accumulators, and log-bucketed histograms used
    across the kernel, device, and workloads for utilisation and
    per-operation statistics. *)

module Counter : sig
  type t

  val create : string -> t
  val incr : ?by:int -> t -> unit
  val add64 : t -> int64 -> unit
  val get : t -> int64
  val get_int : t -> int
  val reset : t -> unit
  val name : t -> string
end

module Latency : sig
  type t

  val create : string -> t
  val record : t -> int64 -> unit
  val count : t -> int
  val total : t -> int64
  val mean : t -> int64
  val min_ns : t -> int64
  val max_ns : t -> int64
  val name : t -> string
  val reset : t -> unit
end

(** Log-bucketed duration histogram (HDR-style): exact below 32 ns, 16
    sub-buckets per power of two above, so any quantile is reported within
    ~6% relative error. O(1), allocation-free recording. *)
module Histogram : sig
  type t

  val create : string -> t

  val record : t -> int64 -> unit
  (** Record a duration in virtual nanoseconds (negative clamps to 0). *)

  val count : t -> int
  val total : t -> int64
  val mean : t -> int64
  val min_ns : t -> int64
  val max_ns : t -> int64

  val percentile : t -> float -> int64
  (** [percentile t q] for [q] in [0,100]; p0 equals [min_ns], p100 equals
      [max_ns], and the result is monotone nondecreasing in [q]. 0 when
      empty. *)

  val iter_buckets : t -> (lo:int64 -> hi:int64 -> count:int -> unit) -> unit
  (** Visit non-empty buckets in increasing value order, with the inclusive
      value range each covers. *)

  val name : t -> string
  val reset : t -> unit
end

type t
(** A registry of counters, latency trackers, and histograms, addressed by
    name. *)

val create : unit -> t

val counter : t -> string -> Counter.t
(** Find-or-create. *)

val lazy_counter : t -> string -> Counter.t Lazy.t
(** A handle to [counter t name] that is resolved once, when first
    forced. Hot paths hold one in their records instead of hashing the
    name on every increment; the counter still appears in the registry
    only once it is first bumped. *)

val bump : ?by:int -> Counter.t Lazy.t -> unit
(** [Counter.incr] through a {!lazy_counter} handle. *)

val latency : t -> string -> Latency.t
val histogram : t -> string -> Histogram.t

val iter_counters : t -> (string -> Counter.t -> unit) -> unit
(** In name order (deterministic output). *)

val iter_latencies : t -> (string -> Latency.t -> unit) -> unit
val iter_histograms : t -> (string -> Histogram.t -> unit) -> unit

val reset : t -> unit
