(** The userspace daemon's view of the disk: a huge file opened with
    O_DIRECT (§6.2). Every block operation pays a syscall crossing, the
    VFS/block-layer traversal the paper measures at 200–400 ns, and the
    device command itself (O_DIRECT bypasses the kernel page cache).

    Durability from userspace is the real penalty: the file interface
    cannot sync a byte range, so syncing one block means fsync()ing the
    whole disk file — the kernel walks the file's mapping (cost scales with
    the nominal file size) and issues a device flush. This is the paper's
    explanation for FUSE's collapse on write/create/delete workloads
    (§6.4). *)

type t = {
  machine : Kernel.Machine.t;
  disk : Device.Ssd.t;
  nominal_gb : int;  (** size of the disk file the paper used: 512 GB *)
  stats : Sim.Stats.t;
  preads : Sim.Stats.Counter.t Lazy.t;
  pwrites : Sim.Stats.Counter.t Lazy.t;
  fsyncs : Sim.Stats.Counter.t Lazy.t;
}

let create ?(nominal_gb = 512) machine =
  let stats = Sim.Stats.create () in
  {
    machine;
    disk = Kernel.Machine.disk machine;
    nominal_gb;
    stats;
    preads = Sim.Stats.lazy_counter stats "preads";
    pwrites = Sim.Stats.lazy_counter stats "pwrites";
    fsyncs = Sim.Stats.lazy_counter stats "fsyncs";
  }

let block_size t = Device.Ssd.block_size t.disk
let nblocks t = Device.Ssd.nblocks t.disk
let stats t = t.stats

let charge_block_io t =
  let c = Kernel.Machine.cost t.machine in
  Kernel.Machine.cpu_work t.machine
    (Int64.add c.Kernel.Cost.syscall c.Kernel.Cost.odirect_op)

(** pread(2) of one aligned block with O_DIRECT. *)
let pread_block t blk : Bytes.t =
  Sim.Stats.bump t.preads;
  charge_block_io t;
  Device.Ssd.read t.disk blk

(** pwrite(2) of one aligned block with O_DIRECT. *)
let pwrite_block t blk data =
  Sim.Stats.bump t.pwrites;
  charge_block_io t;
  Device.Ssd.write t.disk blk data

(** fsync(2) on the whole disk file: mapping walk over the nominal file
    size, then the device flush. *)
let fsync_disk t =
  Sim.Stats.bump t.fsyncs;
  let c = Kernel.Machine.cost t.machine in
  Kernel.Machine.cpu_work t.machine c.Kernel.Cost.syscall;
  (* The kernel walks the whole file's mapping: no way to sync a range. *)
  Kernel.Machine.cpu_work t.machine
    (Int64.mul
       (Int64.of_int t.nominal_gb)
       c.Kernel.Cost.odirect_fsync_per_gb);
  Device.Ssd.flush t.disk
