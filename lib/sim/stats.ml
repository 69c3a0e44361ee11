(** Named counters, latency accumulators, and log-bucketed histograms, used
    across the kernel, device, and workloads to report utilisation and
    per-op statistics. *)

module Counter = struct
  (* A native int (63 bits on a 64-bit host), so a bump allocates
     nothing. *)
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }
  let incr ?(by = 1) t = t.value <- t.value + by
  let add64 t v = t.value <- t.value + Int64.to_int v
  let get t = Int64.of_int t.value
  let get_int t = t.value
  let reset t = t.value <- 0
  let name t = t.name
end

module Latency = struct
  type t = {
    name : string;
    mutable count : int;
    mutable total : int64;
    mutable min : int64;
    mutable max : int64;
  }

  let create name = { name; count = 0; total = 0L; min = Int64.max_int; max = 0L }

  let record t dur =
    t.count <- t.count + 1;
    t.total <- Int64.add t.total dur;
    if Int64.compare dur t.min < 0 then t.min <- dur;
    if Int64.compare dur t.max > 0 then t.max <- dur

  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then 0L else Int64.div t.total (Int64.of_int t.count)
  let min_ns t = if t.count = 0 then 0L else t.min
  let max_ns t = t.max
  let name t = t.name
  let reset t =
    t.count <- 0;
    t.total <- 0L;
    t.min <- Int64.max_int;
    t.max <- 0L
end

(** Log-bucketed histogram of non-negative durations (virtual nanoseconds).

    HDR-style bucketing: values below 32 are exact; above that, each power
    of two is split into 16 sub-buckets, bounding the relative error of any
    reported quantile to < 1/16 (~6%). Recording is O(1) with no
    allocation, so it is cheap enough for per-operation latencies on the
    simulation's hot paths. *)
module Histogram = struct
  let sub_bits = 4
  let nsub = 1 lsl sub_bits (* 16 sub-buckets per power of two *)
  let nbuckets = (63 - sub_bits) * nsub (* covers the full 62-bit range *)

  type t = {
    name : string;
    buckets : int array;
    mutable count : int;
    mutable total : int64;
    mutable min : int64;
    mutable max : int64;
  }

  let create name =
    {
      name;
      buckets = Array.make nbuckets 0;
      count = 0;
      total = 0L;
      min = Int64.max_int;
      max = 0L;
    }

  let msb_pos v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  (* Values 0..31 map to buckets 0..31 exactly; beyond that bucket
     (m - sub_bits + 1) * nsub + sub where m is the top bit position. *)
  let bucket_of v =
    let v = Int64.to_int v in
    let v = if v < 0 then 0 else v in
    if v < 2 * nsub then v
    else
      let m = msb_pos v in
      let sub = (v lsr (m - sub_bits)) land (nsub - 1) in
      (((m - sub_bits) + 1) * nsub) + sub

  (* Inclusive [lo, hi] range of values falling into bucket [i]. *)
  let bucket_range i =
    if i < 2 * nsub then (Int64.of_int i, Int64.of_int i)
    else begin
      let m = (i / nsub) + sub_bits - 1 in
      let sub = i mod nsub in
      let lo = (1 lsl m) lor (sub lsl (m - sub_bits)) in
      let width = 1 lsl (m - sub_bits) in
      (Int64.of_int lo, Int64.of_int (lo + width - 1))
    end

  let record t dur =
    let dur = if Int64.compare dur 0L < 0 then 0L else dur in
    t.buckets.(bucket_of dur) <- t.buckets.(bucket_of dur) + 1;
    t.count <- t.count + 1;
    t.total <- Int64.add t.total dur;
    if Int64.compare dur t.min < 0 then t.min <- dur;
    if Int64.compare dur t.max > 0 then t.max <- dur

  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then 0L else Int64.div t.total (Int64.of_int t.count)
  let min_ns t = if t.count = 0 then 0L else t.min
  let max_ns t = t.max
  let name t = t.name

  (** [percentile t q] for [q] in [0, 100]: the smallest recorded-bucket
      value v such that at least q% of samples are <= v. Exact below 32 ns;
      within one sub-bucket (< ~6%) above. The top bucket is clamped to the
      recorded maximum so p100 = max, and q = 0 reports the recorded
      minimum directly — the rank-1 bucket's upper bound can exceed the
      minimum (e.g. a single sample of 32 lands in bucket [32..33], whose
      bound is 33), which would break the p0 = min invariant the property
      tests check. Since min <= every bucket bound, the special case also
      keeps percentiles monotone in q. *)
  let percentile t q =
    if t.count = 0 then 0L
    else if Float.compare q 0. <= 0 then t.min
    else begin
      let q = if Float.compare q 100. > 0 then 100. else q in
      let rank =
        let r = int_of_float (ceil (q /. 100. *. float_of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      let rec walk i seen =
        if i >= nbuckets then t.max
        else begin
          let seen = seen + t.buckets.(i) in
          if seen >= rank then begin
            let _, hi = bucket_range i in
            if Int64.compare hi t.max > 0 then t.max else hi
          end
          else walk (i + 1) seen
        end
      in
      walk 0 0
    end

  let iter_buckets t f =
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          let lo, hi = bucket_range i in
          f ~lo ~hi ~count:c
        end)
      t.buckets

  let reset t =
    Array.fill t.buckets 0 nbuckets 0;
    t.count <- 0;
    t.total <- 0L;
    t.min <- Int64.max_int;
    t.max <- 0L
end

(** A registry so components can expose their counters by name. *)
type t = {
  counters : (string, Counter.t) Hashtbl.t;
  latencies : (string, Latency.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    latencies = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = Counter.create name in
      Hashtbl.add t.counters name c;
      c

let lazy_counter t name = lazy (counter t name)
let bump ?by c = Counter.incr ?by (Lazy.force c)

let latency t name =
  match Hashtbl.find_opt t.latencies name with
  | Some l -> l
  | None ->
      let l = Latency.create name in
      Hashtbl.add t.latencies name l;
      l

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = Histogram.create name in
      Hashtbl.add t.histograms name h;
      h

let iter_sorted tbl f =
  let items =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (k, v) -> f k v) items

let iter_counters t f = iter_sorted t.counters f
let iter_latencies t f = iter_sorted t.latencies f
let iter_histograms t f = iter_sorted t.histograms f

let reset t =
  Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
  Hashtbl.iter (fun _ l -> Latency.reset l) t.latencies;
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms
