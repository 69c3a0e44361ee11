(** Object lifetimes: a machine, with everything mounted on it, must be
    collectable once the caller drops it; a finished run must not keep a
    handle on its engine; per-engine diagnostics must stay per engine;
    and the device's shared zero block must survive every
    stack's traffic and the crash checker unmodified. *)

open Helpers

let tc = Alcotest.test_case

type stack = Bento | C | Fuse | Ext4

let stacks = [ (Bento, "bento"); (C, "c"); (Fuse, "fuse"); (Ext4, "ext4") ]
let cas_blocks = 1024

(* mkfs + mount [stack] on [machine] (CAS on Bento), without background
   fibers so a bounded run goes quiet. *)
let mount machine stack =
  let vfs =
    match stack with
    | Bento ->
        ok (Bento.Bentofs.mkfs ~cas_blocks machine xv6_maker);
        fst
          (ok
             (Bento.Bentofs.mount ~background:false ~cas_blocks machine
                xv6_maker))
    | C ->
        ok (Vfs_xv6.mkfs machine);
        ok (Vfs_xv6.mount ~background:false machine)
    | Fuse ->
        ok (Bento.Bentofs.mkfs machine xv6_maker);
        fst (ok (Bento_user.mount ~background:false machine xv6_maker))
    | Ext4 ->
        ok (Ext4sim.Ext4.mkfs machine);
        fst (ok (Ext4sim.Ext4.mount ~background:false machine))
  in
  Kernel.Os.create vfs

(* A short workload touching the pushdown registry, all-zero and nonzero
   file data, readback, unlink and sync. *)
let workload machine os =
  let reg = Kernel.Pushdown.registry machine in
  let cap = Kernel.Pushdown.grant reg ~client:"lifetime" in
  ok
    (Kernel.Pushdown.register reg ~cap ~name:"odd"
       (Kernel.Pushdown.Dir_filter { contains = "1" }));
  ok (Kernel.Os.mkdir os "/d");
  let data i =
    if i mod 2 = 0 then Bytes.make 8192 '\000' else payload ~seed:i 10_000
  in
  for i = 0 to 5 do
    ok (Kernel.Os.write_file os (Printf.sprintf "/d/f%d" i) (data i))
  done;
  ok (Kernel.Os.sync os);
  for i = 0 to 5 do
    Alcotest.(check bytes)
      (Printf.sprintf "f%d reads back" i)
      (data i)
      (ok (Kernel.Os.read_file os (Printf.sprintf "/d/f%d" i)))
  done;
  Alcotest.(check int)
    "pushdown filter" 1
    (List.length (ok (Kernel.Os.readdir_filtered os "/d" ~prog:"odd")));
  ok (Kernel.Os.unlink os "/d/f0");
  ok (Kernel.Os.sync os)

(* Build a machine, mount [stack], run the workload, and leave it all
   mounted. Only a weak pointer to the machine escapes. *)
let[@inline never] abandoned_machine stack =
  let machine =
    Kernel.Machine.create ~disk_blocks:default_disk_blocks ~block_size:4096 ()
  in
  let finished = ref false in
  Kernel.Machine.spawn ~name:"lifetime" machine (fun () ->
      workload machine (mount machine stack);
      finished := true);
  Kernel.Machine.run_until machine 10_000_000_000L;
  Alcotest.(check bool) "workload finished" true !finished;
  Device.Ssd.check_invariants (Kernel.Machine.disk machine);
  let probe = Weak.create 1 in
  Weak.set probe 0 (Some machine);
  probe

let test_machine_collected stack () =
  Gc.full_major ();
  let live_before = Kernel.Machine.machines_live () in
  let probe = abandoned_machine stack in
  Gc.full_major ();
  Alcotest.(check bool) "machine collected" false (Weak.check probe 0);
  Alcotest.(check int)
    "machines_live back to its start" live_before
    (Kernel.Machine.machines_live ())

let test_gauge_counts_live () =
  Gc.full_major ();
  let before = Kernel.Machine.machines_live () in
  let m = Kernel.Machine.create ~disk_blocks:16 ~block_size:4096 () in
  Alcotest.(check int) "one more live" (before + 1)
    (Kernel.Machine.machines_live ());
  (match Kernel.Machine.inspect m with
  | Util.Json.Obj fields ->
      Alcotest.(check bool)
        "inspect reports machines_live" true
        (List.assoc_opt "machines_live" fields
        = Some (Util.Json.Int (before + 1)))
  | _ -> Alcotest.fail "inspect did not return an object");
  ignore (Sys.opaque_identity m)

(* Run a fiber that sleeps and then returns or raises, and keep only weak
   pointers to the machine and its engine. *)
let[@inline never] finished_run ~fail =
  let machine = Kernel.Machine.create ~disk_blocks:16 ~block_size:4096 () in
  Kernel.Machine.spawn ~name:"short" machine (fun () ->
      Sim.Engine.sleep 1_000L;
      if fail then failwith "boom");
  (match Kernel.Machine.run_until machine 10_000L with
  | () -> if fail then Alcotest.fail "expected Fiber_failure"
  | exception Sim.Engine.Fiber_failure ("short", Failure _) when fail -> ());
  let probe = Weak.create 2 in
  Weak.set probe 0 (Some (Obj.repr machine));
  Weak.set probe 1 (Some (Obj.repr (Kernel.Machine.engine machine)));
  probe

(* [run_until] hands its fibers the engine directly; once it returns,
   normally or by raising, that handle is gone again. *)
let test_engine_handle_released ~fail () =
  Gc.full_major ();
  let live_before = Kernel.Machine.machines_live () in
  let probe = finished_run ~fail in
  Alcotest.(check bool)
    "self_engine outside the run raises" true
    (match Sim.Engine.self_engine () with
    | _ -> false
    | exception Effect.Unhandled _ -> true);
  Gc.full_major ();
  Alcotest.(check bool) "engine collected" false (Weak.check probe 1);
  Alcotest.(check bool) "machine collected" false (Weak.check probe 0);
  Alcotest.(check int)
    "machines_live back to its start" live_before
    (Kernel.Machine.machines_live ())

(* Fibers are numbered per engine, so engine B's fiber #1 and a blocked
   fiber #0 of engine A are different fibers: B's report must name only
   its own. *)
let test_deadlock_report_per_engine () =
  let a = Sim.Engine.create () in
  let ma = Sim.Sync.Mutex.create ~name:"ma" () in
  ignore
    (Sim.Engine.spawn ~name:"alpha" a (fun () ->
         Sim.Sync.Mutex.lock ma;
         Sim.Sync.Mutex.lock ma));
  Sim.Engine.run_until a 1_000L;
  let b = Sim.Engine.create () in
  let mb = Sim.Sync.Mutex.create ~name:"mb" () in
  ignore (Sim.Engine.spawn ~name:"quick" b (fun () -> ()));
  ignore
    (Sim.Engine.spawn ~name:"beta" b (fun () ->
         Sim.Sync.Mutex.lock mb;
         Sim.Sync.Mutex.lock mb));
  match Sim.Engine.run b with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock msg ->
      Alcotest.(check string)
        "only engine B's fiber"
        "1 fiber(s) still blocked at t=0ns [beta#1 waiting on mutex mb]" msg

(* The crash checker captures and replays device images on many machines;
   it checks each device's zero block itself, so a clean report also means
   no stack or replay mutated a read view. *)
let test_zero_block_under_checker () =
  let r =
    Check.Checker.run ~seed:3 ~ops:40
      ~mode:(Some (Check.Checker.Sample 4))
      ~stacks:Check.Stack.all ()
  in
  if not (Check.Checker.report_ok r) then
    Alcotest.failf "%s" (Format.asprintf "%a" Check.Checker.pp_report r)

let suite =
  List.map
    (fun (stack, name) ->
      tc
        (Printf.sprintf "machine collected after %s mount" name)
        `Quick (test_machine_collected stack))
    stacks
  @ [
      tc "machines_live gauge" `Quick test_gauge_counts_live;
      tc "engine handle released after run_until" `Quick
        (test_engine_handle_released ~fail:false);
      tc "engine handle released after Fiber_failure" `Quick
        (test_engine_handle_released ~fail:true);
      tc "deadlock report per engine" `Quick test_deadlock_report_per_engine;
      tc "zero block intact under crash checker" `Quick
        test_zero_block_under_checker;
    ]
