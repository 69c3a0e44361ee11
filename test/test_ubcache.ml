(** Tests of the FUSE daemon's user-level buffer cache: eviction order
    against the full-scan rule it replaced, exhaustion, and its invariants. *)

open Helpers

let tc = Alcotest.test_case

let with_ubc ?(capacity = 6) f =
  in_sim ~disk_blocks:64 (fun machine ->
      let ufile = Fusesim.Ufile.create machine in
      f (Fusesim.Ubcache.create ~capacity ufile))

(* The eviction rule as first written: scan every cached buffer and take
   the unreferenced, unpinned one released longest ago. Each release
   stamps a fresh tick, so the victim is unique. *)
module Scan = struct
  type entry = { mutable refs : int; mutable pins : int; mutable tick : int }
  type t = { cap : int; table : (int, entry) Hashtbl.t; mutable now : int }

  let create cap = { cap; table = Hashtbl.create 16; now = 0 }

  (* [Error ()] where the cache raises No_buffers *)
  let acquire t blk =
    match Hashtbl.find_opt t.table blk with
    | Some e ->
        e.refs <- e.refs + 1;
        Ok ()
    | None ->
        let room =
          Hashtbl.length t.table < t.cap
          ||
          let victim =
            Hashtbl.fold
              (fun b e acc ->
                if e.refs > 0 || e.pins > 0 then acc
                else
                  match acc with
                  | Some (_, tick) when tick < e.tick -> acc
                  | _ -> Some (b, e.tick))
              t.table None
          in
          match victim with
          | Some (b, _) ->
              Hashtbl.remove t.table b;
              true
          | None -> false
        in
        if room then begin
          Hashtbl.replace t.table blk { refs = 1; pins = 0; tick = 0 };
          Ok ()
        end
        else Error ()

  let release t blk =
    let e = Hashtbl.find t.table blk in
    e.refs <- e.refs - 1;
    t.now <- t.now + 1;
    e.tick <- t.now

  let pin t blk =
    let e = Hashtbl.find t.table blk in
    e.pins <- e.pins + 1

  let unpin t blk =
    let e = Hashtbl.find t.table blk in
    e.pins <- e.pins - 1

  let cached t = Hashtbl.fold (fun b _ acc -> b :: acc) t.table [] |> List.sort compare
end

type op = Read of int | Release of int | Pin of int | Unpin of int

let pp_op = function
  | Read b -> Printf.sprintf "read %d" b
  | Release i -> Printf.sprintf "release #%d" i
  | Pin i -> Printf.sprintf "pin #%d" i
  | Unpin i -> Printf.sprintf "unpin #%d" i

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (5, map (fun b -> Read b) (int_range 0 11));
           (4, map (fun i -> Release i) (int_range 0 7));
           (1, map (fun i -> Pin i) (int_range 0 7));
           (1, map (fun i -> Unpin i) (int_range 0 7));
         ]))

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

(* Replay [ops] on the cache and on the scan model. Release/Pin pick a
   held buffer by index; Unpin picks a pinned one. After every op the
   cached block sets must agree, so every victim was the scan's. *)
let prop_eviction_matches_scan =
  QCheck.Test.make ~count:200 ~name:"ubcache victims match the full-scan rule"
    arb_ops (fun ops ->
      let agreed = ref true in
      with_ubc (fun ubc ->
          let model = Scan.create 6 in
          let held = ref [] and pinned = ref [] in
          let nth l i = List.nth l (i mod List.length l) in
          let drop x l =
            let rec go = function
              | [] -> []
              | y :: r -> if y == x then r else y :: go r
            in
            go l
          in
          List.iter
            (fun op ->
              (match op with
              | Read blk -> (
                  let got =
                    match Fusesim.Ubcache.bread ubc blk with
                    | b -> Ok b
                    | exception Fusesim.Ubcache.No_buffers -> Error ()
                  in
                  match (got, Scan.acquire model blk) with
                  | Ok b, Ok () -> held := b :: !held
                  | Error (), Error () -> ()
                  | _ -> agreed := false)
              | Release i when !held <> [] ->
                  let b = nth !held i in
                  held := drop b !held;
                  Fusesim.Ubcache.brelse ubc b;
                  Scan.release model b.Fusesim.Ubcache.block
              | Pin i when !held <> [] ->
                  let b = nth !held i in
                  Fusesim.Ubcache.pin b;
                  Scan.pin model b.Fusesim.Ubcache.block;
                  pinned := b :: !pinned
              | Unpin i when !pinned <> [] ->
                  let b = nth !pinned i in
                  pinned := drop b !pinned;
                  Fusesim.Ubcache.unpin b;
                  Scan.unpin model b.Fusesim.Ubcache.block
              | Release _ | Pin _ | Unpin _ -> ());
              Fusesim.Ubcache.check_invariants ubc;
              let cached =
                List.filter (Fusesim.Ubcache.mem ubc) (List.init 12 Fun.id)
              in
              if cached <> Scan.cached model then agreed := false)
            ops);
      !agreed)

let test_lru_order () =
  with_ubc ~capacity:4 (fun ubc ->
      let touch blk = Fusesim.Ubcache.brelse ubc (Fusesim.Ubcache.bread ubc blk) in
      List.iter touch [ 0; 1; 2; 3 ];
      (* re-release 0: 1 is now the least recently released *)
      touch 0;
      touch 9;
      Alcotest.(check bool) "1 evicted" false (Fusesim.Ubcache.mem ubc 1);
      Alcotest.(check bool) "0 kept" true (Fusesim.Ubcache.mem ubc 0);
      Alcotest.(check int) "capacity respected" 4 (Fusesim.Ubcache.cached_blocks ubc);
      Fusesim.Ubcache.check_invariants ubc)

let test_pinned_skipped () =
  with_ubc ~capacity:3 (fun ubc ->
      let b0 = Fusesim.Ubcache.bread ubc 0 in
      Fusesim.Ubcache.pin b0;
      Fusesim.Ubcache.brelse ubc b0;
      List.iter
        (fun blk -> Fusesim.Ubcache.brelse ubc (Fusesim.Ubcache.bread ubc blk))
        [ 1; 2 ];
      Fusesim.Ubcache.brelse ubc (Fusesim.Ubcache.bread ubc 7);
      Alcotest.(check bool) "pinned 0 kept" true (Fusesim.Ubcache.mem ubc 0);
      Alcotest.(check bool) "1 evicted" false (Fusesim.Ubcache.mem ubc 1);
      Fusesim.Ubcache.check_invariants ubc)

let test_no_buffers () =
  with_ubc ~capacity:4 (fun ubc ->
      (* two held, two released but pinned: nothing is evictable *)
      let held = List.map (Fusesim.Ubcache.bread ubc) [ 0; 1 ] in
      List.iter
        (fun blk ->
          let b = Fusesim.Ubcache.bread ubc blk in
          Fusesim.Ubcache.pin b;
          Fusesim.Ubcache.brelse ubc b)
        [ 2; 3 ];
      (match Fusesim.Ubcache.bread ubc 10 with
      | exception Fusesim.Ubcache.No_buffers -> ()
      | _ -> Alcotest.fail "expected No_buffers");
      Fusesim.Ubcache.check_invariants ubc;
      List.iter (Fusesim.Ubcache.brelse ubc) held;
      let b = Fusesim.Ubcache.bread ubc 10 in
      Alcotest.(check bool) "released 0 evicted first" false (Fusesim.Ubcache.mem ubc 0);
      Fusesim.Ubcache.brelse ubc b;
      Fusesim.Ubcache.check_invariants ubc)

let test_recycled_payload_private () =
  in_sim ~disk_blocks:64 (fun machine ->
      let dev = Kernel.Machine.disk machine in
      let ubc = Fusesim.Ubcache.create ~capacity:2 (Fusesim.Ufile.create machine) in
      for blk = 0 to 5 do
        let b = Fusesim.Ubcache.getblk ubc blk in
        Bytes.fill b.Fusesim.Ubcache.data 0 4096 (Char.chr (65 + blk));
        Fusesim.Ubcache.bwrite ubc b;
        Fusesim.Ubcache.brelse ubc b;
        if blk = 2 then Fusesim.Ubcache.flush ubc
      done;
      let stored () =
        Array.to_list (Device.Ssd.crash_view dev) |> List.filter_map Fun.id
        |> List.append (List.map snd (Device.Ssd.volatile_view dev))
      in
      for blk = 0 to 5 do
        let b = Fusesim.Ubcache.bread ubc blk in
        let raw = Fusesim.Ubcache.raw_read ubc blk in
        if List.exists (fun s -> s == b.Fusesim.Ubcache.data) (raw :: stored ()) then
          Alcotest.failf "block %d: buffer payload aliases a device block" blk;
        Bytes.fill b.Fusesim.Ubcache.data 0 4096 'Z';
        Alcotest.(check bytes) "device untouched"
          (Bytes.make 4096 (Char.chr (65 + blk)))
          (Device.Ssd.Offline.read dev blk);
        Fusesim.Ubcache.brelse ubc b
      done;
      Fusesim.Ubcache.check_invariants ubc)

let suite =
  [
    tc "recycled payload never aliases the device" `Quick
      test_recycled_payload_private;
    QCheck_alcotest.to_alcotest prop_eviction_matches_scan;
    tc "lru order" `Quick test_lru_order;
    tc "pinned buffers skipped" `Quick test_pinned_skipped;
    tc "No_buffers when all held or pinned" `Quick test_no_buffers;
  ]
