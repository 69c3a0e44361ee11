(** Tests of the discrete-event engine and synchronisation primitives. *)

let tc = Alcotest.test_case

let test_virtual_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.spawn ~name:"a" e (fun () ->
         Sim.Engine.sleep 100L;
         log := ("a", Sim.Engine.now e) :: !log));
  ignore
    (Sim.Engine.spawn ~name:"b" e (fun () ->
         Sim.Engine.sleep 50L;
         log := ("b", Sim.Engine.now e) :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "events in time order"
    [ ("a", 100L); ("b", 50L) ]
    !log

let test_sleep_zero_is_yield () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore
    (Sim.Engine.spawn e (fun () ->
         order := 1 :: !order;
         Sim.Engine.yield ();
         order := 3 :: !order));
  ignore (Sim.Engine.spawn e (fun () -> order := 2 :: !order));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "yield interleaves" [ 3; 2; 1 ] !order

let test_determinism () =
  Helpers.with_seed ~default:11 @@ fun seed ->
  let run () =
    let e = Sim.Engine.create () in
    let rng = Sim.Rng.create seed in
    let trace = Buffer.create 64 in
    for i = 0 to 9 do
      ignore
        (Sim.Engine.spawn e (fun () ->
             Sim.Engine.sleep (Int64.of_int (Sim.Rng.int rng 1000));
             Buffer.add_string trace (Printf.sprintf "%d@%Ld;" i (Sim.Engine.now e))))
    done;
    Sim.Engine.run e;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let test_fiber_failure_propagates () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.spawn ~name:"boom" e (fun () -> failwith "boom"));
  match Sim.Engine.run e with
  | () -> Alcotest.fail "expected Fiber_failure"
  | exception Sim.Engine.Fiber_failure ("boom", Failure _) -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)

let test_deadlock_detected () =
  let e = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Sync.Mutex.lock m;
         Sim.Sync.Mutex.lock m (* self-deadlock *)));
  match Sim.Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Engine.Deadlock _ -> ()

let test_mutex_mutual_exclusion () =
  let e = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           Sim.Sync.Mutex.with_lock m (fun () ->
               incr inside;
               max_inside := max !max_inside !inside;
               Sim.Engine.sleep 10L;
               decr inside)))
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check int) "contended count" 9 (Sim.Sync.Mutex.contended m)

let test_mutex_fifo_fairness () =
  (* FIFO handoff must rotate the lock round-robin through contending
     fibers — no barging, no starvation — and bound every single wait by
     the other fibers' combined hold time. *)
  let e = Sim.Engine.create () in
  let m = Sim.Sync.Mutex.create ~name:"fair" () in
  let n = 8 and rounds = 20 in
  let hold = 1_000L in
  let grants = ref [] in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           for _ = 1 to rounds do
             Sim.Sync.Mutex.lock m;
             grants := i :: !grants;
             Sim.Engine.sleep hold;
             Sim.Sync.Mutex.unlock m
           done))
  done;
  Sim.Engine.run e;
  let grants = Array.of_list (List.rev !grants) in
  Alcotest.(check int) "every round granted" (n * rounds)
    (Array.length grants);
  (* strict round-robin: after the first lap the grant order repeats *)
  for k = n to Array.length grants - 1 do
    if grants.(k) <> grants.(k - n) then
      Alcotest.failf "grant %d went to fiber %d, expected %d (barging)" k
        grants.(k)
        grants.(k - n)
  done;
  Alcotest.(check bool) "waits were measured" true
    (Int64.compare (Sim.Sync.Mutex.wait_ns m) 0L > 0);
  (* the longest wait is exactly the other fibers' holds: (n-1) x hold *)
  Alcotest.(check int64) "max wait bounded by (n-1) holds"
    (Int64.mul (Int64.of_int (n - 1)) hold)
    (Sim.Sync.Mutex.max_wait_ns m)

let test_rwlock_readers_parallel_writers_exclusive () =
  let e = Sim.Engine.create () in
  let rw = Sim.Sync.Rwlock.create () in
  let readers = ref 0 in
  let max_readers = ref 0 in
  let writer_active = ref false in
  let violations = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           Sim.Sync.Rwlock.with_read rw (fun () ->
               if !writer_active then incr violations;
               incr readers;
               max_readers := max !max_readers !readers;
               Sim.Engine.sleep 20L;
               decr readers)))
  done;
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Sync.Rwlock.with_write rw (fun () ->
             writer_active := true;
             if !readers > 0 then incr violations;
             Sim.Engine.sleep 20L;
             writer_active := false)));
  Sim.Engine.run e;
  Alcotest.(check int) "no lock violations" 0 !violations;
  Alcotest.(check bool) "readers overlapped" true (!max_readers > 1)

let test_semaphore_bounds () =
  let e = Sim.Engine.create () in
  let sem = Sim.Sync.Semaphore.create 3 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Sim.Engine.spawn e (fun () ->
           Sim.Sync.Semaphore.acquire sem;
           incr inside;
           max_inside := max !max_inside !inside;
           Sim.Engine.sleep 10L;
           decr inside;
           Sim.Sync.Semaphore.release sem))
  done;
  Sim.Engine.run e;
  Alcotest.(check bool) "at most 3 inside" true (!max_inside <= 3)

let test_resource_queueing () =
  let e = Sim.Engine.create () in
  let r = Sim.Resource.create 2 in
  ignore
    (Sim.Engine.spawn e (fun () ->
         for _ = 1 to 3 do
           ()
         done));
  for _ = 1 to 4 do
    ignore (Sim.Engine.spawn e (fun () -> Sim.Resource.use r 100L))
  done;
  Sim.Engine.run e;
  (* 4 jobs x 100ns on 2 servers: finishes at t=200 *)
  Alcotest.(check int64) "makespan" 200L (Sim.Engine.now e);
  Alcotest.(check int64) "busy time" 400L (Sim.Resource.busy_ns r)

let test_channel_fifo () =
  let e = Sim.Engine.create () in
  let ch = Sim.Sync.Channel.create () in
  let got = ref [] in
  ignore
    (Sim.Engine.spawn e (fun () ->
         for i = 1 to 5 do
           Sim.Sync.Channel.send ch i
         done;
         Sim.Sync.Channel.close ch));
  ignore
    (Sim.Engine.spawn e (fun () ->
         try
           while true do
             got := Sim.Sync.Channel.recv ch :: !got
           done
         with Sim.Sync.Channel.Closed -> ()));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 5; 4; 3; 2; 1 ] !got

let test_ivar () =
  let e = Sim.Engine.create () in
  let iv = Sim.Sync.Ivar.create () in
  let got = ref 0 in
  ignore (Sim.Engine.spawn e (fun () -> got := Sim.Sync.Ivar.read iv));
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Engine.sleep 500L;
         Sim.Sync.Ivar.fill iv 42));
  Sim.Engine.run e;
  Alcotest.(check int) "ivar value" 42 !got;
  Alcotest.(check int64) "reader woke at fill time" 500L (Sim.Engine.now e)

let test_run_until () =
  let e = Sim.Engine.create () in
  let ticks = ref 0 in
  ignore
    (Sim.Engine.spawn e (fun () ->
         for _ = 1 to 100 do
           Sim.Engine.sleep 10L;
           incr ticks
         done));
  Sim.Engine.run_until e 250L;
  Alcotest.(check int) "partial progress" 25 !ticks;
  Sim.Engine.run e;
  Alcotest.(check int) "completes later" 100 !ticks

let test_channel_close_while_blocked () =
  let e = Sim.Engine.create () in
  let ch = Sim.Sync.Channel.create () in
  let got = ref (Some 99) in
  ignore
    (Sim.Engine.spawn ~name:"recv" e (fun () ->
         (* blocks on the empty channel before the closer runs *)
         got := Sim.Sync.Channel.recv_opt ch));
  ignore
    (Sim.Engine.spawn ~name:"closer" e (fun () ->
         Sim.Engine.sleep 10L;
         Sim.Sync.Channel.close ch));
  Sim.Engine.run e;
  Alcotest.(check (option int)) "recv_opt sees close as None" None !got

let test_channel_close_drains_then_none () =
  let e = Sim.Engine.create () in
  let ch = Sim.Sync.Channel.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Sync.Channel.send ch 1;
         Sim.Sync.Channel.send ch 2;
         Sim.Sync.Channel.close ch;
         log := Sim.Sync.Channel.recv_opt ch :: !log;
         log := Sim.Sync.Channel.recv_opt ch :: !log;
         log := Sim.Sync.Channel.recv_opt ch :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list (option int)))
    "queued values drain before None"
    [ Some 1; Some 2; None ]
    (List.rev !log)

(* The popped-closure space leak: after pop, the heap's backing array must
   not keep the event's closure (and what it captures) reachable. A weak
   pointer observes collection. *)
let payload_witness : Obj.t Weak.t = Weak.create 1

let[@inline never] heap_push_pop_cycle () =
  (* Built in a non-inlined frame so no register keeps the payload alive
     once we return. *)
  let h = Sim.Heap.create () in
  let payload = Bytes.make 4096 'p' in
  Weak.set payload_witness 0 (Some (Obj.repr payload));
  let run () = ignore (Sys.opaque_identity payload) in
  Sim.Heap.push h ~time:5L ~seq:1 ~owner:(-1) run;
  assert ((Sim.Heap.pop h).Sim.Heap.run == run);
  h

let test_heap_pop_clears_slot () =
  let h = heap_push_pop_cycle () in
  Gc.full_major ();
  (match Weak.get payload_witness 0 with
  | None -> ()
  | Some _ -> Alcotest.fail "popped payload still reachable from the heap");
  (* the heap itself is still usable *)
  Sim.Heap.push h ~time:1L ~seq:2 ~owner:(-1) ignore;
  Alcotest.(check int) "heap usable after clearing" 1 (Sim.Heap.length h)

let test_heap_shrinks_after_drain () =
  let h = Sim.Heap.create () in
  for i = 0 to 999 do
    Sim.Heap.push h ~time:(Int64.of_int (i * 31 mod 1009)) ~seq:i ~owner:i ignore
  done;
  let cap_full = Sim.Heap.capacity h in
  Alcotest.(check bool) "grew to hold 1000" true (cap_full >= 1000);
  for _ = 1 to 990 do
    ignore (Sim.Heap.pop h)
  done;
  Alcotest.(check int) "10 left" 10 (Sim.Heap.length h);
  Alcotest.(check bool) "backing array shrank" true
    (Sim.Heap.capacity h < cap_full / 8);
  (* remaining entries still drain in order *)
  let last = ref Int64.min_int in
  while not (Sim.Heap.is_empty h) do
    let e = Sim.Heap.pop h in
    Alcotest.(check bool) "ordered" true (Int64.compare !last e.Sim.Heap.time <= 0);
    last := e.Sim.Heap.time
  done

(* Property: the heap pops in increasing (time, seq) order. *)
let prop_heap_ordering =
  QCheck.Test.make ~count:200 ~name:"heap pops in order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i t -> Sim.Heap.push h ~time:(Int64.of_int t) ~seq:i ~owner:i ignore)
        times;
      let ok = ref true and last = ref (Int64.min_int, -1) in
      while not (Sim.Heap.is_empty h) do
        let e = Sim.Heap.pop h in
        let key = (e.Sim.Heap.time, e.Sim.Heap.seq) in
        ok := !ok && compare !last key < 0;
        last := key
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The engine's dispatch order against a reference (time, seq) scheduler *)

(* A fiber script. [Lock] is always followed by a [Sleep] and an
   [Unlock], so no fiber blocks while holding the mutex. *)
type op =
  | Sleep of int  (** [Engine.sleep]; 0 is a no-op *)
  | Yield
  | Spawn of op list
  | Read of int  (** read ivar i, blocking until it is filled *)
  | Fill of int  (** fill ivar i unless already full *)
  | Lock
  | Unlock
  | Callback of int  (** [schedule_at] a callback this far ahead *)

let n_ivars = 3

let rec pp_op = function
  | Sleep d -> Printf.sprintf "Sleep %d" d
  | Yield -> "Yield"
  | Spawn ops -> "Spawn [" ^ String.concat "; " (List.map pp_op ops) ^ "]"
  | Read i -> Printf.sprintf "Read %d" i
  | Fill i -> Printf.sprintf "Fill %d" i
  | Lock -> "Lock"
  | Unlock -> "Unlock"
  | Callback d -> Printf.sprintf "Callback %d" d

(* Wake-up times come from a handful of small delays, so many collide. *)
let rec gen_ops depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun d -> [ Sleep d ]) (int_bound 4));
        (1, return [ Yield ]);
        (2, map (fun i -> [ Read i ]) (int_bound (n_ivars - 1)));
        (2, map (fun i -> [ Fill i ]) (int_bound (n_ivars - 1)));
        (2, map (fun d -> [ Lock; Sleep d; Unlock ]) (int_bound 3));
        (1, map (fun d -> [ Callback d ]) (int_bound 4));
      ]
  in
  let one =
    if depth = 0 then leaf
    else frequency [ (6, leaf); (1, map (fun s -> [ Spawn s ]) (gen_ops (depth - 1))) ]
  in
  map List.concat (list_size (int_range 1 6) one)

(* Root scripts, and the lengths of the [run_until] slices that drive
   them (0 re-runs the current instant). *)
let arb_program =
  QCheck.make
    ~print:(fun (roots, slices) ->
      Printf.sprintf "roots: %s\nslices: %s"
        (String.concat "\n  "
           (List.map (fun ops -> "[" ^ String.concat "; " (List.map pp_op ops) ^ "]") roots))
        (String.concat " " (List.map string_of_int slices)))
    QCheck.Gen.(
      pair (list_size (int_range 1 5) (gen_ops 2)) (list_size (int_range 1 8) (int_bound 6)))

(* What both schedulers log: (fiber or -1 - callback, step, time). A
   fiber logs each step as it starts it and its exit as step [length]. *)
type entry = int * int * int64

(* The reference: events in a list sorted by (time, seq), fibers as
   scripts with a program counter — no effects, no fast paths. Returns
   the log and how many events it ran. *)
let reference roots slices =
  let now = ref 0L and seq = ref 0 and events = ref [] and ran = ref 0 in
  let log = ref [] and next_fiber = ref 0 and next_cb = ref 0 in
  let full = Array.make n_ivars false in
  let readers = Array.init n_ivars (fun _ -> Queue.create ()) in
  let locked = ref false and lockers = Queue.create () in
  let schedule time ev =
    incr seq;
    let key = (time, !seq) in
    let rec ins = function
      | (k, _) as x :: rest when compare k key < 0 -> x :: ins rest
      | l -> (key, ev) :: l
    in
    events := ins !events
  in
  let rec spawn ops =
    let id = !next_fiber in
    incr next_fiber;
    let ops = Array.of_list ops and pc = ref 0 in
    let rec resume () =
      if !pc >= Array.length ops then log := (id, !pc, !now) :: !log
      else begin
        let op = ops.(!pc) in
        log := (id, !pc, !now) :: !log;
        incr pc;
        match op with
        | Sleep 0 -> resume ()
        | Sleep d -> schedule (Int64.add !now (Int64.of_int d)) resume
        | Yield -> schedule !now resume
        | Spawn child ->
            spawn child;
            resume ()
        | Read i -> if full.(i) then resume () else Queue.push resume readers.(i)
        | Fill i ->
            if not full.(i) then begin
              full.(i) <- true;
              Queue.iter (fun w -> schedule !now w) readers.(i);
              Queue.clear readers.(i)
            end;
            resume ()
        | Lock ->
            if !locked then Queue.push resume lockers
            else begin
              locked := true;
              resume ()
            end
        | Unlock ->
            (match Queue.take_opt lockers with
            | Some w -> schedule !now w
            | None -> locked := false);
            resume ()
        | Callback d ->
            let cb = !next_cb in
            incr next_cb;
            let time = Int64.add !now (Int64.of_int d) in
            schedule time (fun () -> log := (-1 - cb, 0, !now) :: !log);
            resume ()
      end
    in
    schedule !now resume
  in
  List.iter spawn roots;
  let deadline = ref 0L in
  List.iter
    (fun slice ->
      deadline := Int64.add !deadline (Int64.of_int slice);
      let rec go () =
        match !events with
        | ((time, _), ev) :: rest when Int64.compare time !deadline <= 0 ->
            events := rest;
            now := time;
            incr ran;
            ev ();
            go ()
        | _ -> ()
      in
      go ();
      if Int64.compare !now !deadline < 0 then now := !deadline)
    slices;
  (List.rev !log, !ran)

(* The same program on the engine, with the [Sync] primitives. *)
let on_engine roots slices =
  let e = Sim.Engine.create () in
  let log = ref [] and next_fiber = ref 0 and next_cb = ref 0 in
  let ivars = Array.init n_ivars (fun _ -> Sim.Sync.Ivar.create ()) in
  let m = Sim.Sync.Mutex.create () in
  let rec spawn ops =
    let id = !next_fiber in
    incr next_fiber;
    ignore
      (Sim.Engine.spawn e (fun () ->
           List.iteri
             (fun pc op ->
               log := (id, pc, Sim.Engine.now e) :: !log;
               match op with
               | Sleep d -> Sim.Engine.sleep (Int64.of_int d)
               | Yield -> Sim.Engine.yield ()
               | Spawn child -> spawn child
               | Read i -> Sim.Sync.Ivar.read ivars.(i)
               | Fill i ->
                   if not (Sim.Sync.Ivar.is_full ivars.(i)) then
                     Sim.Sync.Ivar.fill ivars.(i) ()
               | Lock -> Sim.Sync.Mutex.lock m
               | Unlock -> Sim.Sync.Mutex.unlock m
               | Callback d ->
                   let cb = !next_cb in
                   incr next_cb;
                   Sim.Engine.schedule_at e
                     (Int64.add (Sim.Engine.now e) (Int64.of_int d))
                     (fun () -> log := (-1 - cb, 0, Sim.Engine.now e) :: !log))
             ops;
           log := (id, List.length ops, Sim.Engine.now e) :: !log))
  in
  List.iter spawn roots;
  let deadline = ref 0L in
  List.iter
    (fun slice ->
      deadline := Int64.add !deadline (Int64.of_int slice);
      Sim.Engine.run_until e !deadline)
    slices;
  ( List.rev !log,
    Sim.Engine.events_dispatched e + Sim.Engine.in_place_advances e )

let prop_dispatch_order =
  QCheck.Test.make ~count:500 ~name:"engine dispatch order = (time, seq) reference"
    arb_program (fun (roots, slices) ->
      let expected, ran = reference roots slices in
      let got, events = on_engine roots slices in
      if got <> expected then
        QCheck.Test.fail_reportf "log differs:\nexpected %s\ngot      %s"
          (String.concat " " (List.map (fun (f, pc, t) -> Printf.sprintf "%d.%d@%Ld" f pc t) expected))
          (String.concat " " (List.map (fun (f, pc, t) -> Printf.sprintf "%d.%d@%Ld" f pc t) got));
      (* every in-place advance stands for exactly one queued event *)
      if events <> ran then
        QCheck.Test.fail_reportf "engine ran %d events + in-place advances, reference %d"
          events ran;
      true)

(* A sleep ending exactly at a pending event's time is queued behind it,
   not advanced in place. *)
let test_sleep_ties_pending_event () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.spawn ~name:"a" e (fun () ->
         Sim.Engine.sleep 10L;
         log := ("a", Sim.Engine.now e) :: !log));
  ignore
    (Sim.Engine.spawn ~name:"b" e (fun () ->
         Sim.Engine.sleep 5L;
         log := ("b5", Sim.Engine.now e) :: !log;
         Sim.Engine.sleep 5L;
         log := ("b10", Sim.Engine.now e) :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int64)))
    "a's earlier-queued event at t=10 runs first"
    [ ("b5", 5L); ("a", 10L); ("b10", 10L) ]
    (List.rev !log);
  Alcotest.(check int) "only b's first sleep advanced in place" 1
    (Sim.Engine.in_place_advances e)

(* A sleep past the [run_until] deadline leaves the clock at the deadline
   and the sleeper queued, even with nothing else pending. *)
let test_sleep_crosses_deadline () =
  let e = Sim.Engine.create () in
  let woke = ref None in
  ignore
    (Sim.Engine.spawn e (fun () ->
         Sim.Engine.sleep 100L;
         woke := Some (Sim.Engine.now e)));
  Sim.Engine.run_until e 50L;
  Alcotest.(check int64) "clock stops at the deadline" 50L (Sim.Engine.now e);
  Alcotest.(check (option int64)) "sleeper still asleep" None !woke;
  Sim.Engine.run_until e 150L;
  Alcotest.(check (option int64)) "woke at its own time" (Some 100L) !woke;
  Alcotest.(check int64) "then padded to the deadline" 150L (Sim.Engine.now e)

let raises_unhandled f =
  match f () with _ -> false | exception Effect.Unhandled _ -> true

let test_self_engine_outside_run () =
  Alcotest.(check bool) "before any run" true
    (raises_unhandled Sim.Engine.self_engine);
  let e = Sim.Engine.create () in
  let inside = ref None in
  ignore (Sim.Engine.spawn e (fun () -> inside := Some (Sim.Engine.self_engine ())));
  Sim.Engine.run e;
  Alcotest.(check bool) "inside a fiber: its engine" true
    (match !inside with Some x -> x == e | None -> false);
  Alcotest.(check bool) "after the run" true
    (raises_unhandled Sim.Engine.self_engine);
  Alcotest.(check bool) "sleep outside a run" true
    (raises_unhandled (fun () -> Sim.Engine.sleep 1L))

let suite =
  [
    tc "virtual time ordering" `Quick test_virtual_time;
    tc "yield" `Quick test_sleep_zero_is_yield;
    tc "determinism" `Quick test_determinism;
    tc "fiber failure propagates" `Quick test_fiber_failure_propagates;
    tc "deadlock detection" `Quick test_deadlock_detected;
    tc "mutex exclusion" `Quick test_mutex_mutual_exclusion;
    tc "mutex fifo fairness" `Quick test_mutex_fifo_fairness;
    tc "rwlock semantics" `Quick test_rwlock_readers_parallel_writers_exclusive;
    tc "semaphore bounds" `Quick test_semaphore_bounds;
    tc "resource queueing" `Quick test_resource_queueing;
    tc "channel fifo + close" `Quick test_channel_fifo;
    tc "channel close while blocked" `Quick test_channel_close_while_blocked;
    tc "channel drains then None" `Quick test_channel_close_drains_then_none;
    tc "heap pop clears slot" `Quick test_heap_pop_clears_slot;
    tc "heap shrinks after drain" `Quick test_heap_shrinks_after_drain;
    tc "ivar" `Quick test_ivar;
    tc "run_until" `Quick test_run_until;
    QCheck_alcotest.to_alcotest prop_heap_ordering;
    QCheck_alcotest.to_alcotest prop_dispatch_order;
    tc "sleep tying a pending event queues behind it" `Quick
      test_sleep_ties_pending_event;
    tc "sleep crossing a run_until deadline stops there" `Quick
      test_sleep_crosses_deadline;
    tc "self_engine outside a run raises Unhandled" `Quick
      test_self_engine_outside_run;
  ]
