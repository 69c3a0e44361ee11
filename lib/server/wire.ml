(** The server wire: a simulated connection between a client session and
    the file server, plus the listener the acceptor blocks on.

    Each direction charges the per-message request cost and a copy of the
    payload at the server copy bandwidth — the per-request overhead a file
    *server* pays on top of the file system under it, the quantity the
    per-tenant benchmarks sweep. Requests flow client-to-server on [c2s];
    replies and lease recalls flow back on [s2c]. *)

type net = {
  machine : Kernel.Machine.t;
  crossings : Sim.Stats.Counter.t;
      (** machine-wide count of wire crossings, one per message *)
  connects : Sim.Stats.Counter.t Lazy.t;
  requests : Sim.Stats.Counter.t Lazy.t;
  replies : Sim.Stats.Counter.t Lazy.t;
}

type conn = {
  net : net;
  c2s : Bytes.t Sim.Sync.Channel.t;
  s2c : Bytes.t Sim.Sync.Channel.t;
  mutable conn_closed : bool;
}

type listener = { l_net : net; backlog : conn Sim.Sync.Channel.t }

exception Connection_closed

let listen machine =
  let stats = Sim.Stats.create () in
  (* Expose message counts in machine-wide counter snapshots. *)
  Kernel.Machine.register_stats machine ~prefix:"server" stats;
  {
    l_net =
      {
        machine;
        crossings = Kernel.Machine.counter machine "server_crossings";
        connects = Sim.Stats.lazy_counter stats "connects";
        requests = Sim.Stats.lazy_counter stats "requests";
        replies = Sim.Stats.lazy_counter stats "replies";
      };
    backlog = Sim.Sync.Channel.create ();
  }

let machine t = t.net.machine

let charge t nbytes =
  let c = Kernel.Machine.cost t.machine in
  Sim.Stats.Counter.incr t.crossings;
  Kernel.Machine.with_layer t.machine "server-wire" (fun () ->
      Kernel.Machine.cpu_work t.machine
        (Int64.add c.Kernel.Cost.server_request
           (Kernel.Cost.copy_time ~bw:c.Kernel.Cost.server_copy_bw nbytes)))

(** Client side: open a connection and queue it for the acceptor. *)
let connect (l : listener) : conn =
  let conn =
    {
      net = l.l_net;
      c2s = Sim.Sync.Channel.create ();
      s2c = Sim.Sync.Channel.create ();
      conn_closed = false;
    }
  in
  Sim.Stats.bump l.l_net.connects;
  (match Sim.Sync.Channel.send l.backlog conn with
  | () -> ()
  | exception Sim.Sync.Channel.Closed -> raise Connection_closed);
  conn

(** Server side: block for the next incoming connection; [None] once the
    listener is shut down. *)
let accept (l : listener) : conn option = Sim.Sync.Channel.recv_opt l.backlog

let close_listener (l : listener) = Sim.Sync.Channel.close l.backlog

let send_request (c : conn) (msg : Bytes.t) =
  if c.conn_closed then raise Connection_closed;
  Sim.Stats.bump c.net.requests;
  charge c.net (Bytes.length msg);
  match Sim.Sync.Channel.send c.c2s msg with
  | () -> ()
  | exception Sim.Sync.Channel.Closed -> raise Connection_closed

let recv_request (c : conn) : Bytes.t option = Sim.Sync.Channel.recv_opt c.c2s

let send_smsg (c : conn) (msg : Bytes.t) =
  Sim.Stats.bump c.net.replies;
  charge c.net (Bytes.length msg);
  match Sim.Sync.Channel.send c.s2c msg with
  | () -> ()
  | exception Sim.Sync.Channel.Closed -> () (* client already gone *)

let recv_smsg (c : conn) : Bytes.t option = Sim.Sync.Channel.recv_opt c.s2c

let close (c : conn) =
  if not c.conn_closed then begin
    c.conn_closed <- true;
    Sim.Sync.Channel.close c.c2s;
    Sim.Sync.Channel.close c.s2c
  end
