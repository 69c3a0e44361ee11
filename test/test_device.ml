(** Tests of the NVMe device model: timing, durability, crash semantics. *)

let tc = Alcotest.test_case

let with_dev ?config f =
  let e = Sim.Engine.create () in
  let d = Device.Ssd.create ?config ~nblocks:4096 ~block_size:4096 e in
  ignore (Sim.Engine.spawn e (fun () -> f e d));
  Sim.Engine.run e

let block c = Bytes.make 4096 c

let test_write_read_roundtrip () =
  with_dev (fun _e d ->
      Device.Ssd.write d 7 (block 'a');
      let got = Device.Ssd.read d 7 in
      Alcotest.(check bytes) "roundtrip" (block 'a') got;
      Alcotest.(check bytes) "unwritten reads zero" (block '\000')
        (Device.Ssd.read d 8))

let test_contig_cheaper_than_scattered () =
  let time_of f =
    let e = Sim.Engine.create () in
    let d = Device.Ssd.create ~nblocks:4096 ~block_size:4096 e in
    ignore (Sim.Engine.spawn e (fun () -> f d));
    Sim.Engine.run e;
    Sim.Engine.now e
  in
  let bufs = Array.init 64 (fun _ -> block 'x') in
  let contig = time_of (fun d -> Device.Ssd.write_contig d ~start:0 bufs) in
  let scattered =
    time_of (fun d -> Array.iteri (fun i b -> Device.Ssd.write d (i * 2) b) bufs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batched (%Ld) << scattered (%Ld)" contig scattered)
    true
    (Int64.compare (Int64.mul contig 4L) scattered < 0)

let test_flush_durability_and_crash () =
  with_dev (fun _e d ->
      Device.Ssd.write d 1 (block 'd');
      Device.Ssd.flush d;
      Device.Ssd.write d 2 (block 'v');
      Alcotest.(check int) "one dirty block" 1 (Device.Ssd.dirty_blocks d);
      Device.Ssd.crash d;
      Alcotest.(check bytes) "flushed survives" (block 'd') (Device.Ssd.read d 1);
      Alcotest.(check bytes) "unflushed lost" (block '\000') (Device.Ssd.read d 2))

let test_crash_partial_survival () =
  Helpers.with_seed ~default:5 @@ fun seed ->
  with_dev (fun _e d ->
      for i = 0 to 99 do
        Device.Ssd.write d i (block 'p')
      done;
      let rng = Sim.Rng.create seed in
      Device.Ssd.crash ~survive:0.5 ~rng d;
      let survivors = ref 0 in
      for i = 0 to 99 do
        if Bytes.equal (Device.Ssd.read d i) (block 'p') then incr survivors
      done;
      Alcotest.(check bool)
        (Printf.sprintf "some but not all survive (%d)" !survivors)
        true
        (!survivors > 10 && !survivors < 90))

(* Boundary cases of the survival probability: survive:0.0 must behave like a
   hard power cut (only flushed data remains), survive:1.0 like a clean
   shutdown (everything written remains), and in both cases the pre-crash
   [crash_view] must predict exactly what a post-crash read returns for
   survive:0.0. *)
let test_crash_survive_bounds () =
  Helpers.with_seed ~default:17 @@ fun seed ->
  (* survive:0.0 — nothing unflushed persists; crash_view agrees *)
  with_dev (fun _e d ->
      Device.Ssd.write d 0 (block 'F');
      Device.Ssd.write d 1 (block 'F');
      Device.Ssd.flush d;
      for i = 2 to 19 do
        Device.Ssd.write d i (block 'U')
      done;
      let view = Device.Ssd.crash_view d in
      Device.Ssd.crash ~survive:0.0 ~rng:(Sim.Rng.create seed) d;
      for i = 0 to 19 do
        let got = Device.Ssd.read d i in
        let expect = if i < 2 then block 'F' else block '\000' in
        Alcotest.(check bytes) (Printf.sprintf "survive=0 block %d" i) expect got;
        let predicted =
          match view.(i) with Some b -> b | None -> block '\000'
        in
        Alcotest.(check bytes)
          (Printf.sprintf "crash_view predicts block %d" i)
          predicted got
      done);
  (* survive:1.0 — every write persists even without a flush *)
  with_dev (fun _e d ->
      for i = 0 to 19 do
        Device.Ssd.write d i (block 'W')
      done;
      Device.Ssd.crash ~survive:1.0 ~rng:(Sim.Rng.create seed) d;
      for i = 0 to 19 do
        Alcotest.(check bytes)
          (Printf.sprintf "survive=1 block %d" i)
          (block 'W') (Device.Ssd.read d i)
      done)

let test_flush_cost_scales_with_dirty () =
  let flush_time ndirty =
    let e = Sim.Engine.create () in
    let d = Device.Ssd.create ~nblocks:8192 ~block_size:4096 e in
    ignore
      (Sim.Engine.spawn e (fun () ->
           for i = 0 to ndirty - 1 do
             Device.Ssd.write d i (block 'f')
           done;
           let t0 = Sim.Engine.now e in
           Device.Ssd.flush d;
           let dt = Int64.sub (Sim.Engine.now e) t0 in
           if Int64.compare dt 0L <= 0 then failwith "flush took no time";
           (* stash in block 0's first byte? simpler: assert relative below *)
           ignore dt));
    Sim.Engine.run e;
    Sim.Engine.now e
  in
  (* total times include the writes; compare flush-heavy runs *)
  let t_small = flush_time 8 in
  let t_big = flush_time 2048 in
  Alcotest.(check bool) "more dirty data, costlier flush" true
    (Int64.compare t_big t_small > 0)

let test_out_of_range () =
  with_dev (fun _e d ->
      (match Device.Ssd.read d 4096 with
      | exception Device.Ssd.Out_of_range _ -> ()
      | _ -> Alcotest.fail "read out of range accepted");
      match Device.Ssd.write d (-1) (block 'x') with
      | exception Device.Ssd.Out_of_range _ -> ()
      | _ -> Alcotest.fail "write out of range accepted")

let test_failed_device () =
  with_dev (fun _e d ->
      Device.Ssd.fail d;
      match Device.Ssd.read d 0 with
      | exception Device.Ssd.Device_failed -> ()
      | _ -> Alcotest.fail "failed device still serving")

let test_channels_parallelism () =
  (* 8 concurrent reads on 8 channels should take ~1 read time, not 8 *)
  let e = Sim.Engine.create () in
  let d = Device.Ssd.create ~nblocks:4096 ~block_size:4096 e in
  for i = 0 to 7 do
    ignore (Sim.Engine.spawn e (fun () -> ignore (Device.Ssd.read d i)))
  done;
  Sim.Engine.run e;
  let one = Int64.add (Device.Ssd.default_config.Device.Ssd.read_base) 2_000L in
  Alcotest.(check bool)
    (Printf.sprintf "parallel reads: %Ldns" (Sim.Engine.now e))
    true
    (Int64.compare (Sim.Engine.now e) one < 0)

let test_drain_overflow_fifo () =
  (* A tiny volatile cache forces the drain path: victims must become
     durable in FIFO *insertion* order, and rewriting a cached block must
     keep its original queue position (not refresh it). *)
  let config = { Device.Ssd.default_config with cache_blocks = 4 } in
  with_dev ~config (fun _e d ->
      Device.Ssd.write d 10 (block 'a');
      Device.Ssd.write d 20 (block 'b');
      Device.Ssd.write d 30 (block 'c');
      Device.Ssd.write d 40 (block 'd');
      (* rewrite the oldest entry; it stays at the head of the queue *)
      Device.Ssd.write d 10 (block 'A');
      Alcotest.(check int) "cache at capacity" 4 (Device.Ssd.dirty_blocks d);
      let stable blk =
        match (Device.Ssd.crash_view d).(blk) with
        | Some data -> Some (Bytes.get data 0)
        | None -> None
      in
      Alcotest.(check (option char)) "nothing durable yet" None (stable 10);
      (* one more block overflows by one: the oldest insertion drains *)
      Device.Ssd.write d 50 (block 'e');
      Alcotest.(check int) "still at capacity" 4 (Device.Ssd.dirty_blocks d);
      Alcotest.(check (option char)) "oldest drained, rewritten payload"
        (Some 'A') (stable 10);
      Alcotest.(check (option char)) "second-oldest still volatile" None
        (stable 20);
      (* two more: 20 then 30 drain, in insertion order *)
      Device.Ssd.write d 60 (block 'f');
      Device.Ssd.write d 70 (block 'g');
      Alcotest.(check (option char)) "then the second" (Some 'b') (stable 20);
      Alcotest.(check (option char)) "then the third" (Some 'c') (stable 30);
      Alcotest.(check (option char)) "newer stays volatile" None (stable 40);
      (* a crash keeps exactly the drained prefix *)
      Device.Ssd.crash d;
      Alcotest.(check bytes) "drained survives" (block 'A')
        (Device.Ssd.read d 10);
      Alcotest.(check bytes) "undrained lost" (block '\000')
        (Device.Ssd.read d 40))

(* Stored blocks are immutable: a read hands out the stored block itself,
   so neither it nor an earlier crash_view may change when the same block
   is later written, flushed or lost in a crash; and the device must not
   keep the caller's write payload. *)
let test_read_views_immutable () =
  with_dev (fun _e d ->
      let payload = block 'a' in
      Device.Ssd.write d 5 payload;
      Bytes.fill payload 0 4096 'X';
      let volatile_read = Device.Ssd.read d 5 in
      Device.Ssd.flush d;
      let view = Device.Ssd.crash_view d in
      let stable_read = Device.Ssd.read d 5 in
      Device.Ssd.write d 5 (block 'b');
      Device.Ssd.flush d;
      Device.Ssd.write d 5 (block 'c');
      Device.Ssd.crash d;
      Alcotest.(check bytes) "volatile read" (block 'a') volatile_read;
      Alcotest.(check bytes) "stable read" (block 'a') stable_read;
      (match view.(5) with
      | Some b -> Alcotest.(check bytes) "crash_view" (block 'a') b
      | None -> Alcotest.fail "flushed block missing from crash_view");
      Alcotest.(check bytes) "device now" (block 'b') (Device.Ssd.read d 5))

(* An all-zero payload is stored as the device's shared zero block. The
   sequence zero -> nonzero -> zero on one block must read, snapshot and
   count exactly as with a private copy per write, whatever the caller
   later does to its buffers. *)
let test_zero_block_copy_semantics () =
  with_dev (fun _e d ->
      let view_block view =
        match view.(9) with Some b -> b | None -> block '\000'
      in
      let z = block '\000' in
      Device.Ssd.write d 9 z;
      Bytes.fill z 0 4096 'Z';
      Alcotest.(check int) "zero write is dirty" 1 (Device.Ssd.dirty_blocks d);
      Alcotest.(check bytes) "zero read back" (block '\000') (Device.Ssd.read d 9);
      let v0 = Device.Ssd.crash_view d in
      Alcotest.(check bool) "unflushed zero not durable" true (v0.(9) = None);
      Device.Ssd.flush d;
      let v1 = Device.Ssd.crash_view d in
      Alcotest.(check int) "flushed" 0 (Device.Ssd.dirty_blocks d);
      let a = block 'a' in
      Device.Ssd.write d 9 a;
      Bytes.fill a 0 4096 '\000';
      Alcotest.(check bytes) "nonzero read back" (block 'a') (Device.Ssd.read d 9);
      Alcotest.(check int) "nonzero write is dirty" 1 (Device.Ssd.dirty_blocks d);
      Device.Ssd.flush d;
      let v2 = Device.Ssd.crash_view d in
      Device.Ssd.write d 9 (block '\000');
      Alcotest.(check bytes) "zero again" (block '\000') (Device.Ssd.read d 9);
      Alcotest.(check bytes) "stable still nonzero" (block 'a')
        (Device.Ssd.Offline.stable_read d 9);
      Device.Ssd.flush d;
      let v3 = Device.Ssd.crash_view d in
      Alcotest.(check bytes) "snapshot after first flush" (block '\000')
        (view_block v1);
      Alcotest.(check bytes) "snapshot after nonzero flush" (block 'a')
        (view_block v2);
      Alcotest.(check bytes) "snapshot after zero flush" (block '\000')
        (view_block v3);
      Alcotest.(check int) "clean" 0 (Device.Ssd.dirty_blocks d);
      Device.Ssd.Offline.write d 10 (block '\000');
      Alcotest.(check bytes) "offline zero" (block '\000')
        (Device.Ssd.Offline.read d 10);
      Device.Ssd.check_invariants d)

(* A caller that writes into a read view of a never-written block writes
   into the one zero block every such read shares: the invariant check
   must see it. *)
let test_zero_block_mutation_detected () =
  with_dev (fun _e d ->
      Device.Ssd.check_invariants d;
      let view = Device.Ssd.read d 3 in
      Bytes.set view 17 'x';
      match Device.Ssd.check_invariants d with
      | () -> Alcotest.fail "mutated zero block went unnoticed"
      | exception Failure _ -> ())

let suite =
  [
    tc "read views immutable" `Quick test_read_views_immutable;
    tc "zero block keeps copy semantics" `Quick test_zero_block_copy_semantics;
    tc "zero block mutation detected" `Quick
      test_zero_block_mutation_detected;
    tc "write/read roundtrip" `Quick test_write_read_roundtrip;
    tc "overflow drain is FIFO" `Quick test_drain_overflow_fifo;
    tc "contiguous command batching" `Quick test_contig_cheaper_than_scattered;
    tc "flush durability + crash" `Quick test_flush_durability_and_crash;
    tc "partial survival crash" `Quick test_crash_partial_survival;
    tc "crash survive bounds + crash_view" `Quick test_crash_survive_bounds;
    tc "flush cost scales" `Quick test_flush_cost_scales_with_dirty;
    tc "out of range" `Quick test_out_of_range;
    tc "failed device" `Quick test_failed_device;
    tc "channel parallelism" `Quick test_channels_parallelism;
  ]
