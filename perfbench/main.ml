(* The repository benchmark: three closed-loop workloads, each driving
   a whole simulated cluster (simkit + blockdev + cluster + petal +
   locksvc + frangipani) from its own seeded generator.

     dune exec perfbench/main.exe -- \
       --workload tenants|bulk_io|shared_rw --seed N --seconds S --trace 0|1

   A plain run (--trace 0) times every Vfs call in simulated time and
   prints the end-to-end metrics. A traced run (--trace 1) alternates
   plain and traced passes: it reads every layer's counters from
   outside the library (Fs/Petal/Rpc stats, Sim and Gc counters,
   Resource utilisation) and taps the lock protocol with
   [Cluster.Rpc.on_oneway], then prints the per-layer metrics and the
   traced-minus-plain difference of every end-to-end metric (the
   tracing overhead).

   Each pass builds a fresh cluster and replays the same seed, so the
   simulated results of all passes of one run must be bit-identical;
   host-time metrics are medians over the passes. The output checks
   (fsck on a quiesced mount, a byte-for-byte ledger read-back, and
   every read verified against the generator's ledger while the
   traffic runs) must pass, or the run prints [correct: false] and
   exits 1. The last line of stdout is one JSON object; README.md in
   this directory documents workloads and metrics. *)

open Simkit
module T = Workloads.Testbed
module V = Workloads.Vfs
module Fs = Frangipani.Fs

let mb = 1024 * 1024

(* --- samples and percentiles -------------------------------------------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n

  let sort a =
    Array.sort compare a;
    a

  let sorted t = sort (contents t)
end

(* Nearest-rank percentile of a sorted array of nanoseconds, in ms. *)
let pct_ms sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) i)) /. 1e6

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* --- per-call recording -------------------------------------------------- *)

let k_create = 0
let k_write = 1
let k_read = 2
let k_readdir = 3
let k_lookup = 4
let kind_names = [| "create"; "write"; "read"; "readdir"; "lookup" |]
let nkinds = Array.length kind_names

type recorder = {
  lat : Samples.t array;  (** per op kind, simulated ns per call *)
  attempts : int array;
  failures : int array;
  mutable read_bytes : int;
  mutable write_bytes : int;
  mutable problems : int;  (** output-check failures *)
  mutable first_problems : string list;
}

let recorder () =
  {
    lat = Array.init nkinds (fun _ -> Samples.create ());
    attempts = Array.make nkinds 0;
    failures = Array.make nkinds 0;
    read_bytes = 0;
    write_bytes = 0;
    problems = 0;
    first_problems = [];
  }

let problem r fmt =
  Printf.ksprintf
    (fun s ->
      r.problems <- r.problems + 1;
      if r.problems <= 10 then r.first_problems <- s :: r.first_problems)
    fmt

(* Time one file-system call. A failure the file system reports is
   counted against its op kind and the generator carries on; anything
   else aborts the run. *)
let timed r k f =
  r.attempts.(k) <- r.attempts.(k) + 1;
  let t0 = Sim.now () in
  match f () with
  | v ->
    Samples.add r.lat.(k) (Sim.now () - t0);
    Some v
  | exception (Frangipani.Errors.Error _ | Locksvc.Types.Lease_expired) ->
    r.failures.(k) <- r.failures.(k) + 1;
    None

(* --- ledger contents -------------------------------------------------- *)

(* Every buffer the generators write is a 16-byte stamp (tag, two
   coordinates, version) followed by one fill byte derived from the
   seed and the stamp, so a read is checked against the ledger without
   building the expected buffer. *)
let stamp_len = 16

let fill_char ~seed ~tag ~a ~b ~v =
  Char.chr (97 + (Hashtbl.hash (seed, tag, a, b, v) mod 26))

let content ~seed ~tag ~a ~b ~v len =
  let buf = Bytes.make len (fill_char ~seed ~tag ~a ~b ~v) in
  Bytes.set_int32_le buf 0 (Int32.of_int tag);
  Bytes.set_int32_le buf 4 (Int32.of_int a);
  Bytes.set_int32_le buf 8 (Int32.of_int b);
  Bytes.set_int32_le buf 12 (Int32.of_int v);
  buf

let stamp_version buf = Int32.to_int (Bytes.get_int32_le buf 12)

let matches buf ~seed ~tag ~a ~b ~v len =
  Bytes.length buf = len
  && Int32.to_int (Bytes.get_int32_le buf 0) = tag
  && Int32.to_int (Bytes.get_int32_le buf 4) = a
  && Int32.to_int (Bytes.get_int32_le buf 8) = b
  && stamp_version buf = v
  &&
  let c = fill_char ~seed ~tag ~a ~b ~v in
  let ok = ref true and i = ref stamp_len in
  while !ok && !i < len do
    if Bytes.unsafe_get buf !i <> c then ok := false;
    incr i
  done;
  !ok

(* --- what a workload hands back ----------------------------------------- *)

type outcome = {
  r : recorder;
  traffic_ns : int;  (** first op to last op, final sync excluded *)
  read_ns : int;  (** denominator of read_mb_s *)
  write_ns : int;  (** denominator of write_mb_s *)
  makespan_ns : int;  (** first op to the last server's sync return *)
  sync_tail_ns : int;  (** the final sync calls *)
  user_ops : int;  (** generator iterations (tenants: BENCH scale "ops") *)
}

(* Hooks the pass runner gives a workload: [ready] once the cluster is
   built and populated (traffic starts right after), [finished] when
   the last final sync has returned, and [check] says whether to run
   the post-traffic output checks. *)
type probe = {
  ready : T.t -> Fs.t list -> unit;
  finished : unit -> unit;
  check : bool;
}

let wait_all n spawn_each =
  let left = ref n and all = Sim.Ivar.create () in
  spawn_each (fun () ->
      decr left;
      if !left = 0 then Sim.Ivar.fill all ());
  if n > 0 then Sim.Ivar.read all

(* Final sync of every server in turn, as the old BENCH scale rows
   did; returns its duration. *)
let sync_all r vs =
  let t0 = Sim.now () in
  List.iter
    (fun (v : V.t) ->
      match v.V.sync () with
      | () -> ()
      | exception (Frangipani.Errors.Error _ | Locksvc.Types.Lease_expired) ->
        problem r "final sync failed on %s" (Cluster.Host.name v.V.host))
    vs;
  Sim.now () - t0

(* Output checks on the quiesced file system (traffic stopped, every
   server synced): mount one more server, whose cache is cold, require
   a clean fsck through it, then hand it to [verify] to read the
   ledger back. (A snapshot through the backup barrier would be the
   natural quiesced mount, but the barrier's cost grows so fast with
   the number of holders that it exhausts memory at 64 servers.) *)
let check_quiesced r (tb : T.t) verify =
  let fs = T.add_server tb ~name:"perfbench-check" () in
  (match Frangipani.Fsck.check fs with
  | [] -> ()
  | f :: _ as l ->
    problem r "fsck: %d findings, first: %s" (List.length l)
      (Format.asprintf "%a" Frangipani.Fsck.pp_finding f));
  verify fs

let read_back r sfs ~dir name ~len ok =
  match Fs.lookup sfs ~dir name with
  | exception Frangipani.Errors.Error e ->
    problem r "ledger: %s missing (%s)" name (Frangipani.Errors.to_string e)
  | inum ->
    let b = Fs.read sfs inum ~off:0 ~len in
    if not (ok b) then problem r "ledger: %s differs from the generator's ledger" name

(* --- workload: tenants --------------------------------------------------- *)

(* Multi-tenant Zipf small-file mix (Workloads.Multitenant's shape) at
   BENCH_10's servers_128 scale: 128 Frangipani servers over 32 Petal
   servers x 4 disks, 16 users per server, 24 ops per user. *)
module Tenants = struct
  let servers = 128
  let petal_servers = 32
  let users = 16
  let ops_per_user = 24
  let namespace = 16384
  let zipf_s = 1.1
  let write_frac = 0.3
  let shared_frac = 0.05
  let nshared = 8
  let think = Sim.ms 2
  let io = 4096
  let tag = 1
  let shared_tag = 2
  let ledger_sample = 512

  type file = {
    inum : int;
    mutable version : int;  (** last acknowledged content; -1 unknown *)
    mutable next : int;
    mutable busy : bool;  (** a write is in flight *)
    mutable gen : int;  (** writes started *)
  }

  type slot = Inflight | Done of file

  let zipf gen =
    let acc = ref 0.0 in
    let cdf =
      Array.init namespace (fun i ->
          acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) zipf_s);
          !acc)
    in
    let total = !acc in
    fun () ->
      let u = Random.State.float gen total in
      let lo = ref 0 and hi = ref (namespace - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo

  let run ~seed ~gen p =
    let r = recorder () in
    let tb =
      T.build ~petal_servers ~ndisks:4 ~disk_capacity:(512 * mb) ()
    in
    let fss = List.init servers (fun _ -> T.add_server tb ()) in
    let vs = Array.of_list (List.map V.of_frangipani fss) in
    let v0 = vs.(0) in
    let shared_data i = content ~seed ~tag:shared_tag ~a:i ~b:0 ~v:0 io in
    let shared_dir = v0.V.mkdir ~dir:v0.V.root "shared" in
    let shared =
      Array.init nshared (fun i ->
          let inum = v0.V.create ~dir:shared_dir (Printf.sprintf "s%d" i) in
          v0.V.write inum ~off:0 (shared_data i);
          inum)
    in
    v0.V.sync ();
    let dirs =
      Array.mapi (fun i (v : V.t) -> v.V.mkdir ~dir:v.V.root (Printf.sprintf "tenant%d" i)) vs
    in
    let tables = Array.init servers (fun _ -> Hashtbl.create 256) in
    let sample = zipf gen in
    let user_ops = ref 0 in
    p.ready tb fss;
    let t0 = Sim.now () in
    let write ti id (v : V.t) f =
      let ver = f.next in
      f.next <- ver + 1;
      f.busy <- true;
      f.gen <- f.gen + 1;
      (match
         timed r k_write (fun () ->
             v.V.write f.inum ~off:0 (content ~seed ~tag ~a:ti ~b:id ~v:ver io))
       with
      | Some () ->
        f.version <- ver;
        r.write_bytes <- r.write_bytes + io
      | None -> f.version <- -1);
      f.busy <- false
    in
    let read ti id (v : V.t) f =
      let busy0 = f.busy and gen0 = f.gen and ver0 = f.version in
      match timed r k_read (fun () -> v.V.read f.inum ~off:0 ~len:io) with
      | None -> ()
      | Some b ->
        r.read_bytes <- r.read_bytes + Bytes.length b;
        (* Only a read that overlapped no write has one right answer. *)
        if (not busy0) && gen0 = f.gen && ver0 >= 0
           && not (matches b ~seed ~tag ~a:ti ~b:id ~v:ver0 io)
        then problem r "tenant%d/f%d: read does not match version %d" ti id ver0
    in
    let user ti (v : V.t) =
      let files = tables.(ti) and dir = dirs.(ti) in
      for _ = 1 to ops_per_user do
        Sim.sleep (Random.State.int gen think);
        (if Random.State.float gen 1.0 < shared_frac then begin
           let i = Random.State.int gen nshared in
           match timed r k_read (fun () -> v.V.read shared.(i) ~off:0 ~len:io) with
           | None -> ()
           | Some b ->
             r.read_bytes <- r.read_bytes + Bytes.length b;
             if not (Bytes.equal b (shared_data i)) then
               problem r "shared s%d: read differs from the ledger" i
         end
         else
           let id = sample () in
           match Hashtbl.find_opt files id with
           | None -> (
             Hashtbl.replace files id Inflight;
             match timed r k_create (fun () -> v.V.create ~dir (Printf.sprintf "f%d" id)) with
             | None -> Hashtbl.remove files id
             | Some inum ->
               let f = { inum; version = -1; next = 0; busy = false; gen = 0 } in
               write ti id v f;
               Hashtbl.replace files id (Done f))
           | Some Inflight ->
             (* A same-tenant user is mid-create: touch the namespace
                instead of racing it (Workloads.Multitenant's rule). *)
             ignore (timed r k_readdir (fun () -> v.V.readdir dir))
           | Some (Done f) ->
             if Random.State.float gen 1.0 < write_frac && not f.busy then
               write ti id v f
             else read ti id v f);
        incr user_ops
      done
    in
    wait_all (servers * users) (fun fin ->
        Array.iteri
          (fun ti v ->
            for _ = 1 to users do
              Sim.spawn (fun () ->
                  user ti v;
                  fin ())
            done)
          vs);
    let traffic_ns = Sim.now () - t0 in
    let sync_tail_ns = sync_all r (Array.to_list vs) in
    let makespan_ns = Sim.now () - t0 in
    p.finished ();
    if p.check then
      check_quiesced r tb (fun sfs ->
          let sdir = Fs.lookup sfs ~dir:Fs.root "shared" in
          for i = 0 to nshared - 1 do
            read_back r sfs ~dir:sdir (Printf.sprintf "s%d" i) ~len:io (fun b ->
                Bytes.equal b (shared_data i))
          done;
          let known = ref [] in
          Array.iteri
            (fun ti files ->
              let tdir = Fs.lookup sfs ~dir:Fs.root (Printf.sprintf "tenant%d" ti) in
              let entries = List.length (Fs.readdir sfs tdir) in
              let created = Hashtbl.length files in
              if entries <> created then
                problem r "tenant%d: %d entries on disk, %d files created" ti entries created;
              Hashtbl.iter
                (fun id -> function
                  | Done f when f.version >= 0 -> known := (ti, id, f.version) :: !known
                  | Done _ | Inflight -> ())
                files)
            tables;
          let known = Array.of_list (List.sort compare !known) in
          let n = Array.length known in
          for _ = 1 to min n ledger_sample do
            let ti, id, ver = known.(Random.State.int gen n) in
            read_back r sfs ~dir:(Fs.lookup sfs ~dir:Fs.root (Printf.sprintf "tenant%d" ti))
              (Printf.sprintf "f%d" id) ~len:io (fun b ->
                matches b ~seed ~tag ~a:ti ~b:id ~v:ver io)
          done);
    {
      r;
      traffic_ns;
      read_ns = traffic_ns;
      write_ns = traffic_ns;
      makespan_ns;
      sync_tail_ns;
      user_ops = !user_ops;
    }
end

(* --- workload: bulk_io --------------------------------------------------- *)

(* The data path: 4 Frangipani servers on the paper's 7 x 9-disk Petal
   each stream a private 16 MB file in 64 KB writes and sync; then,
   after drop_caches everywhere, each cold-reads a file another server
   wrote (a seeded derangement). Each stream pauses a seeded 0-1 ms
   between calls, so the four streams do not lock into one phase. *)
module Bulk_io = struct
  let servers = 4
  let file_mb = 16
  let unit = 65536
  let units = file_mb * mb / unit
  let tag = 3
  let ledger_units = 32
  let think = Sim.ms 1

  (* A random permutation of [0, n) with no fixed point. *)
  let rec derangement gen n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int gen (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    if Array.exists (fun i -> a.(i) = i) (Array.init n Fun.id) then derangement gen n
    else a

  let run ~seed ~gen p =
    let r = recorder () in
    let tb = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(128 * mb) () in
    let fss = List.init servers (fun _ -> T.add_server tb ()) in
    let vs = Array.of_list (List.map V.of_frangipani fss) in
    let name i = Printf.sprintf "big%d" i in
    let inums = Array.mapi (fun i (v : V.t) -> v.V.create ~dir:v.V.root (name i)) vs in
    let source = derangement gen servers in
    let stagger () = Random.State.int gen (Sim.ms 1) in
    let wdelay = Array.init servers (fun _ -> stagger ()) in
    let rdelay = Array.init servers (fun _ -> stagger ()) in
    p.ready tb fss;
    let t0 = Sim.now () in
    wait_all servers (fun fin ->
        Array.iteri
          (fun i (v : V.t) ->
            Sim.spawn (fun () ->
                Sim.sleep wdelay.(i);
                for u = 0 to units - 1 do
                  Sim.sleep (Random.State.int gen think);
                  let data = content ~seed ~tag ~a:i ~b:u ~v:0 unit in
                  match timed r k_write (fun () -> v.V.write inums.(i) ~off:(u * unit) data) with
                  | Some () -> r.write_bytes <- r.write_bytes + unit
                  | None -> ()
                done;
                ignore (sync_all r [ v ]);
                fin ()))
          vs);
    let write_ns = Sim.now () - t0 in
    Array.iter (fun (v : V.t) -> v.V.drop_caches ()) vs;
    let tr = Sim.now () in
    wait_all servers (fun fin ->
        Array.iteri
          (fun i (v : V.t) ->
            Sim.spawn (fun () ->
                Sim.sleep rdelay.(i);
                let s = source.(i) in
                (match timed r k_lookup (fun () -> v.V.lookup ~dir:v.V.root (name s)) with
                | None -> ()
                | Some inum ->
                  for u = 0 to units - 1 do
                    Sim.sleep (Random.State.int gen think);
                    match timed r k_read (fun () -> v.V.read inum ~off:(u * unit) ~len:unit) with
                    | None -> ()
                    | Some b ->
                      r.read_bytes <- r.read_bytes + Bytes.length b;
                      if not (matches b ~seed ~tag ~a:s ~b:u ~v:0 unit) then
                        problem r "%s: unit %d read on server %d differs from the ledger"
                          (name s) u i
                  done);
                fin ()))
          vs);
    let read_ns = Sim.now () - tr in
    let traffic_ns = Sim.now () - t0 in
    let sync_tail_ns = sync_all r (Array.to_list vs) in
    let makespan_ns = Sim.now () - t0 in
    p.finished ();
    if p.check then
      check_quiesced r tb (fun sfs ->
          for i = 0 to servers - 1 do
            match Fs.lookup sfs ~dir:Fs.root (name i) with
            | exception Frangipani.Errors.Error _ -> problem r "ledger: %s missing" (name i)
            | inum ->
              let size = (Fs.stat sfs inum).Fs.size in
              if size <> units * unit then problem r "ledger: %s has size %d" (name i) size;
              for _ = 1 to ledger_units do
                let u = Random.State.int gen units in
                let b = Fs.read sfs inum ~off:(u * unit) ~len:unit in
                if not (matches b ~seed ~tag ~a:i ~b:u ~v:0 unit) then
                  problem r "ledger: %s unit %d differs" (name i) u
              done
          done);
    { r; traffic_ns; read_ns; write_ns; makespan_ns; sync_tail_ns; user_ops = 0 }
end

(* --- workload: shared_rw ------------------------------------------------- *)

(* Figure 8's shape with 4 readers: readers stream a shared 1 MB file
   in 64 KB reads (default read-ahead) while one writer keeps
   rewriting its first 64 KB, each pausing a seeded 0-2 ms between
   calls. A trial settles into one of a few seed-dependent lock
   ping-pong regimes, so a pass pools sixteen 10-simulated-second
   trials. *)
module Shared_rw = struct
  let readers = 4
  let unit = 65536
  let units = 16
  let duration = Sim.sec 10.0
  let think = Sim.ms 2
  let tag = 4

  let run ~seed ~gen p =
    let r = recorder () in
    let tb = T.build ~petal_servers:7 ~ndisks:9 () in
    let writer_fs = T.add_server tb () in
    let reader_fss = List.init readers (fun _ -> T.add_server tb ()) in
    let w = V.of_frangipani writer_fs in
    let rs = Array.of_list (List.map V.of_frangipani reader_fss) in
    let data u ver = content ~seed ~tag ~a:0 ~b:u ~v:ver unit in
    let inum = w.V.create ~dir:w.V.root "shared" in
    for u = 0 to units - 1 do
      w.V.write inum ~off:(u * unit) (data u 0)
    done;
    w.V.sync ();
    let rinums = Array.map (fun (v : V.t) -> v.V.lookup ~dir:v.V.root "shared") rs in
    let start = Array.init readers (fun _ -> Random.State.int gen units) in
    let delay = Array.init readers (fun _ -> Random.State.int gen (Sim.ms 1)) in
    (* Versions of unit 0: every write that returned before a read
       began must be visible to it, none that began after it ended. *)
    let acked = ref 0 and started = ref 0 in
    p.ready tb (writer_fs :: reader_fss);
    let t0 = Sim.now () in
    let stop = t0 + duration in
    wait_all (readers + 1) (fun fin ->
        Sim.spawn (fun () ->
            while Sim.now () < stop do
              Sim.sleep (Random.State.int gen think);
              let ver = !started + 1 in
              started := ver;
              match timed r k_write (fun () -> w.V.write inum ~off:0 (data 0 ver)) with
              | Some () ->
                acked := ver;
                r.write_bytes <- r.write_bytes + unit
              | None -> ()
            done;
            fin ());
        Array.iteri
          (fun i (v : V.t) ->
            Sim.spawn (fun () ->
                Sim.sleep delay.(i);
                let k = ref start.(i) in
                while Sim.now () < stop do
                  Sim.sleep (Random.State.int gen think);
                  let u = !k mod units in
                  let lo = if u = 0 then !acked else 0 in
                  (match timed r k_read (fun () -> v.V.read rinums.(i) ~off:(u * unit) ~len:unit) with
                  | None -> ()
                  | Some b ->
                    r.read_bytes <- r.read_bytes + Bytes.length b;
                    let ver = if u = 0 then stamp_version b else 0 in
                    if ver < lo || ver > !started
                       || not (matches b ~seed ~tag ~a:0 ~b:u ~v:ver unit)
                    then
                      problem r "reader %d: unit %d read version %d outside [%d, %d] or corrupt"
                        i u ver lo !started);
                  incr k
                done;
                fin ()))
          rs);
    let traffic_ns = Sim.now () - t0 in
    let sync_tail_ns = sync_all r (w :: Array.to_list rs) in
    let makespan_ns = Sim.now () - t0 in
    p.finished ();
    if p.check then
      check_quiesced r tb (fun sfs ->
          match Fs.lookup sfs ~dir:Fs.root "shared" with
          | exception Frangipani.Errors.Error _ -> problem r "ledger: shared missing"
          | sinum ->
            for u = 0 to units - 1 do
              let b = Fs.read sfs sinum ~off:(u * unit) ~len:unit in
              let ver = if u = 0 then stamp_version b else 0 in
              let lo = if u = 0 then !acked else 0 in
              if ver < lo || ver > !started || not (matches b ~seed ~tag ~a:0 ~b:u ~v:ver unit)
              then problem r "ledger: shared unit %d holds version %d, acked %d" u ver !acked
            done);
    { r; traffic_ns; read_ns = traffic_ns; write_ns = traffic_ns; makespan_ns; sync_tail_ns;
      user_ops = 0 }
end

(* name -> generator tag, trials per pass, workload. A pass runs its
   trials one after another, each a fresh cluster under its own seed
   derived from the run's seed; the simulated metrics pool them. *)
let workloads =
  [
    ("tenants", (11, 1, Tenants.run));
    ("bulk_io", (12, 4, Bulk_io.run));
    ("shared_rw", (13, 16, Shared_rw.run));
  ]

let trial_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

(* --- layer counters, read from outside the library ----------------------- *)

type resources = {
  arms : Sim.Resource.t list;
  fs_cpus : Sim.Resource.t list;
  petal_cpus : Sim.Resource.t list;
  petal_links : Sim.Resource.t list;
}

let resources (tb : T.t) fss =
  let p = tb.T.petal in
  {
    arms =
      List.concat_map
        (fun ds -> List.map Blockdev.Disk.arm (Array.to_list ds))
        (Array.to_list p.Petal.Testbed.disks);
    fs_cpus = List.map (fun fs -> Cluster.Host.cpu (Fs.host fs)) fss;
    petal_cpus = List.map Cluster.Host.cpu (Array.to_list p.Petal.Testbed.hosts);
    petal_links =
      List.concat_map
        (fun rpc ->
          let port = Cluster.Rpc.port rpc in
          [ Cluster.Net.tx_link port; Cluster.Net.rx_link port ])
        (Array.to_list p.Petal.Testbed.rpcs);
  }

let util_mean l =
  ratio
    (List.fold_left (fun a x -> a +. Sim.Resource.utilization x) 0.0 l)
    (float_of_int (List.length l))

let util_max l =
  List.fold_left (fun a x -> Float.max a (Sim.Resource.utilization x)) 0.0 l

(* Utilisation since the resources were reset at the start of traffic. *)
let utilisation res =
  [
    ("arm_mean", util_mean res.arms);
    ("arm_max", util_max res.arms);
    ("fs_cpu_mean", util_mean res.fs_cpus);
    ("petal_cpu_mean", util_mean res.petal_cpus);
    ("petal_cpu_max", util_max res.petal_cpus);
    ("link_mean", util_mean res.petal_links);
    ("link_max", util_max res.petal_links);
  ]

(* Cumulative counters as a named list, so a window's delta and the
   sum over trials are elementwise. *)
let counters (tb : T.t) fss res =
  let sum f = List.fold_left (fun a x -> a +. float_of_int (f x)) 0.0 in
  let wal f = sum (fun fs -> f (Fs.wal_stats fs)) fss in
  let petal f = sum (fun fs -> f (Fs.petal_stats fs)) fss in
  let petal_s f = List.fold_left (fun a fs -> a +. f (Fs.petal_stats fs)) 0.0 fss in
  let rpc f =
    sum
      (fun e -> f (Cluster.Rpc.stats e))
      (List.map (T.rpc_of tb) fss @ Array.to_list tb.T.petal.Petal.Testbed.rpcs)
  in
  let st = Sim.stats () and g = Gc.quick_stat () in
  let open Petal.Client in
  [
    ("events", float_of_int st.Sim.events);
    ("spawns", float_of_int st.Sim.spawns);
    ("skipped", float_of_int st.Sim.skipped);
    ("minor_words", g.Gc.minor_words);
    ("promoted_words", g.Gc.promoted_words);
    ("hits", sum (fun fs -> fst (Fs.cache_stats fs)) fss);
    ("misses", sum (fun fs -> snd (Fs.cache_stats fs)) fss);
    ("flush_groups", wal (fun w -> w.Frangipani.Wal.flush_groups));
    ("append_stalls", wal (fun w -> w.Frangipani.Wal.append_stalls));
    ("ensure_stalls", wal (fun w -> w.Frangipani.Wal.ensure_stalls));
    ("log_pressure_stalls", wal (fun w -> w.Frangipani.Wal.log_pressure_stalls));
    ("petal_reads", petal (fun s -> s.reads));
    ("petal_read_s", petal_s (fun s -> s.read_seconds));
    ("petal_read_rpcs", petal (fun s -> s.read_rpcs));
    ("petal_writes", petal (fun s -> s.writes));
    ("petal_write_s", petal_s (fun s -> s.write_seconds));
    ("petal_write_rpcs", petal (fun s -> s.write_rpcs));
    ("petal_pieces", petal (fun s -> s.read_pieces + s.write_pieces));
    ("petal_coalesced", petal (fun s -> s.read_coalesced + s.write_coalesced));
    ("petal_failovers", petal (fun s -> s.failovers));
    ("petal_wrong_epoch", petal (fun s -> s.wrong_epoch_retries));
    ("rpc_calls", sum (fun fs -> (Fs.net_stats fs).Cluster.Rpc.calls) fss);
    ("rpc_timeouts", rpc (fun s -> s.Cluster.Rpc.timeouts));
    ("rpc_retries", rpc (fun s -> s.Cluster.Rpc.retries));
    ("arm_busy_ns", sum Sim.Resource.busy_time res.arms);
  ]

let zip f a b = List.map2 (fun (k, x) (_, y) -> (k, f x y)) a b

(* Lock-protocol taps: [Rpc.on_oneway] subscribers on every lock
   server endpoint and every Frangipani endpoint see L_request /
   L_grant / L_revoke / L_release as they arrive. A wait runs from the
   first request (revoke) still unanswered to the grant (release) that
   answers it, so retransmissions do not restart it. *)
type taps = {
  mutable on : bool;  (** count only inside the measured window *)
  mutable requests : int;
  mutable revokes : int;
  per_server : (Cluster.Net.addr, int ref) Hashtbl.t;
  pending_req : (Cluster.Net.addr * string * int, int) Hashtbl.t;
  pending_rev : (Cluster.Net.addr * string * int, int) Hashtbl.t;
  grant_wait : Samples.t;
  revoke_release : Samples.t;
}

let install_taps (tb : T.t) fss =
  let t =
    {
      on = false;
      requests = 0;
      revokes = 0;
      per_server = Hashtbl.create 64;
      pending_req = Hashtbl.create 4096;
      pending_rev = Hashtbl.create 4096;
      grant_wait = Samples.create ();
      revoke_release = Samples.create ();
    }
  in
  let start tbl key = if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key (Sim.now ()) in
  let answer tbl key samples =
    match Hashtbl.find_opt tbl key with
    | Some t0 ->
      Hashtbl.remove tbl key;
      Samples.add samples (Sim.now () - t0)
    | None -> ()
  in
  Array.iter
    (fun rpc ->
      let me = Cluster.Rpc.addr rpc in
      Cluster.Rpc.on_oneway rpc (fun ~src body ->
          if t.on then
            match body with
            | Locksvc.Types.L_request { table; lock; _ } ->
              t.requests <- t.requests + 1;
              (match Hashtbl.find_opt t.per_server me with
              | Some c -> incr c
              | None -> Hashtbl.replace t.per_server me (ref 1));
              start t.pending_req (src, table, lock)
            | Locksvc.Types.L_release { table; lock; _ } ->
              answer t.pending_rev (src, table, lock) t.revoke_release
            | _ -> ()))
    tb.T.petal.Petal.Testbed.rpcs;
  List.iter
    (fun fs ->
      let rpc = T.rpc_of tb fs in
      let me = Cluster.Rpc.addr rpc in
      Cluster.Rpc.on_oneway rpc (fun ~src:_ body ->
          if t.on then
            match body with
            | Locksvc.Types.L_grant { table; lock; _ } ->
              answer t.pending_req (me, table, lock) t.grant_wait
            | Locksvc.Types.L_revoke { table; lock; _ } ->
              t.revokes <- t.revokes + 1;
              start t.pending_rev (me, table, lock)
            | _ -> ()))
    fss;
  t

(* --- trials and passes --------------------------------------------------- *)

type trial = {
  o : outcome;
  setup_s : float;  (** host CPU s: build, format, mount, populate *)
  host_s : float;  (** host CPU s: first op to last sync return *)
  delta : (string * float) list;  (** counters over the same window *)
  utils : (string * float) list;
  sizes : int * int * int * int;  (** arms, FS CPUs, Petal CPUs, Petal links *)
  taps : taps option;
  top_heap_words : int;  (** the trial process's peak heap, checks excluded *)
}

(* Each trial runs in a child process of its own, so every trial
   starts from the same small heap and its peak heap is its own; the
   result comes back marshalled over a pipe. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let res : ('a, string) result =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    Marshal.to_channel oc res [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let res : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "trial process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match res with Ok v -> v | Error e -> failwith ("perfbench: trial failed: " ^ e))

(* Trial [i] of a workload, under its seed derived from the run's. *)
let simulate ~name ~seed i probe =
  let tag, _, run = List.assoc name workloads in
  let seed = trial_seed seed i in
  Sim.run ~seed (fun () -> run ~seed ~gen:(Random.State.make [| seed; tag |]) probe)

exception Setup_only of float

let run_trial ~name ~seed ~traced ~check i =
  let h0 = Sys.time () in
  let start = ref None and result = ref None in
  let ready tb fss =
    let setup_s = Sys.time () -. h0 in
    let taps = if traced then Some (install_taps tb fss) else None in
    let res = resources tb fss in
    List.iter Sim.Resource.reset_stats
      (res.arms @ res.fs_cpus @ res.petal_cpus @ res.petal_links);
    Option.iter (fun t -> t.on <- true) taps;
    start := Some (tb, fss, setup_s, taps, res, counters tb fss res, Sys.time ())
  in
  let finished () =
    match !start with
    | None -> failwith "perfbench: workload finished before it was ready"
    | Some (tb, fss, setup_s, taps, res, c0, th) ->
      let host_s = Sys.time () -. th in
      Option.iter (fun t -> t.on <- false) taps;
      (* Read before the output checks run: the window is first op
         to last sync return. *)
      let c1 = counters tb fss res in
      result :=
        Some
          ( (Gc.quick_stat ()).Gc.top_heap_words,
            setup_s,
            host_s,
            zip ( -. ) c1 c0,
            utilisation res,
            ( List.length res.arms,
              List.length res.fs_cpus,
              List.length res.petal_cpus,
              List.length res.petal_links ),
            taps )
  in
  let o = simulate ~name ~seed i { ready; finished; check } in
  match !result with
  | Some (top_heap_words, setup_s, host_s, delta, utils, sizes, taps) ->
    { o; setup_s; host_s; delta; utils; sizes; taps; top_heap_words }
  | None -> failwith "perfbench: workload never finished"

(* Build and populate a trial's cluster only; its host CPU seconds. *)
let setup_trial ~name ~seed i =
  let h0 = Sys.time () in
  let ready _ _ = raise (Setup_only (Sys.time () -. h0)) in
  match simulate ~name ~seed i { ready; finished = ignore; check = false } with
  | _ -> failwith "perfbench: workload ran without becoming ready"
  | exception Setup_only s -> s

let trials_of name =
  let _, n, _ = List.assoc name workloads in
  List.init n Fun.id

let setup_pass ~name ~seed =
  List.map (fun i -> in_child (fun () -> setup_trial ~name ~seed i)) (trials_of name)

(* A pass's host cost from many: the median of each trial's samples
   (trial i runs the same simulation in every pass), summed. *)
let sum_of_medians samples =
  match samples with
  | [] -> 0.0
  | first :: _ ->
    List.fold_left ( +. ) 0.0
      (List.mapi (fun i _ -> median (List.map (fun l -> List.nth l i) samples)) first)

let sum_f f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let peak_mb ts =
  let words = List.fold_left (fun a t -> max a t.top_heap_words) 0 ts in
  float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* One outcome pooling a pass's trials: samples and counts add up,
   times add up (so rates are totals over totals), and the makespan
   and sync tail are means per trial. *)
let pool ts =
  let os = List.map (fun t -> t.o) ts in
  let r = recorder () and n = List.length os in
  let sum f = List.fold_left (fun a o -> a + f o) 0 os in
  List.iter
    (fun o ->
      for k = 0 to nkinds - 1 do
        let s = o.r.lat.(k) in
        Array.iter (Samples.add r.lat.(k)) (Samples.contents s);
        r.attempts.(k) <- r.attempts.(k) + o.r.attempts.(k);
        r.failures.(k) <- r.failures.(k) + o.r.failures.(k)
      done;
      r.read_bytes <- r.read_bytes + o.r.read_bytes;
      r.write_bytes <- r.write_bytes + o.r.write_bytes;
      r.problems <- r.problems + o.r.problems;
      r.first_problems <- o.r.first_problems @ r.first_problems)
    os;
  {
    r;
    traffic_ns = sum (fun o -> o.traffic_ns);
    read_ns = sum (fun o -> o.read_ns);
    write_ns = sum (fun o -> o.write_ns);
    makespan_ns = sum (fun o -> o.makespan_ns) / n;
    sync_tail_ns = sum (fun o -> o.sync_tail_ns) / n;
    user_ops = sum (fun o -> o.user_ops);
  }

let digest ts =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (List.map
             (fun t ->
               let o = t.o in
               ( Array.map Samples.contents o.r.lat,
                 o.r.attempts,
                 o.r.failures,
                 (o.r.read_bytes, o.r.write_bytes, o.traffic_ns, o.read_ns, o.write_ns),
                 (o.makespan_ns, o.sync_tail_ns, o.user_ops) ))
             ts)
          []))

(* A pass keeps its trials marshalled: a string is not scanned by the
   GC, so the trial processes forked later inherit a small live heap
   and their host time does not grow with the passes before them. *)
type pass = {
  raw : string list;
  traced : bool;
  setups : float list;  (** per trial *)
  hosts : float list;  (** per trial *)
  sim_digest : string;
}

let trials p : trial list = List.map (fun s -> Marshal.from_string s 0) p.raw

let run_pass ~name ~seed ~traced ~check =
  let raw =
    List.map
      (fun i ->
        Gc.full_major ();
        in_child (fun () -> Marshal.to_string (run_trial ~name ~seed ~traced ~check i) []))
      (trials_of name)
  in
  let ts = List.map (fun s -> (Marshal.from_string s 0 : trial)) raw in
  {
    raw;
    traced;
    setups = List.map (fun (t : trial) -> t.setup_s) ts;
    hosts = List.map (fun (t : trial) -> t.host_s) ts;
    sim_digest = digest ts;
  }

(* --- metrics ------------------------------------------------------------- *)

type metric = { mname : string; unit_ : string; value : float; n : int }

let m mname unit_ value n = { mname; unit_; value; n }
let ops o = Array.fold_left ( + ) 0 o.r.attempts
let failed o = Array.fold_left ( + ) 0 o.r.failures
let sec ns = float_of_int ns /. 1e9

let mean_ms sorted =
  ratio (Array.fold_left (fun a x -> a +. float_of_int x) 0.0 sorted /. 1e6)
    (float_of_int (Array.length sorted))

(* The end-to-end metrics: [gated] ones are on every workload and go
   into the JSON line (BENCHMARK.json lists them); [printed] ones are
   reported with their sample counts only (see README.md). *)
let end_to_end (o : outcome) ~host_s ~setup_s ~peak_heap_mb =
  let lat k = Samples.sorted o.r.lat.(k) in
  let reads = lat k_read and writes = lat k_write and creates = lat k_create in
  let all = Samples.sort (Array.concat (Array.to_list (Array.map Samples.contents o.r.lat))) in
  let n = ops o and nr = Array.length reads and nw = Array.length writes in
  let gated =
    [
      m "ops_per_s" "ops/s" (ratio (float_of_int n) (sec o.traffic_ns)) n;
      m "read_mb_s" "MB/s" (ratio (float_of_int o.r.read_bytes /. 1e6) (sec o.read_ns)) nr;
      m "write_mb_s" "MB/s" (ratio (float_of_int o.r.write_bytes /. 1e6) (sec o.write_ns)) nw;
      m "read_mean_ms" "ms" (mean_ms reads) nr;
      m "write_mean_ms" "ms" (mean_ms writes) nw;
      m "makespan_s" "s" (sec o.makespan_ns) n;
      m "host_s" "s" (fst host_s) (snd host_s);
      m "setup_s" "s" (fst setup_s) (snd setup_s);
      m "peak_heap_mb" "MB" peak_heap_mb 1;
    ]
  in
  let printed =
    [
      m "read_p50_ms" "ms" (pct_ms reads 0.5) nr;
      m "read_p99_ms" "ms" (pct_ms reads 0.99) nr;
      m "write_p50_ms" "ms" (pct_ms writes 0.5) nw;
      m "write_p99_ms" "ms" (pct_ms writes 0.99) nw;
      m "create_p50_ms" "ms" (pct_ms creates 0.5) (Array.length creates);
      m "create_p99_ms" "ms" (pct_ms creates 0.99) (Array.length creates);
      m "op_p999_ms" "ms" (pct_ms all 0.999) (Array.length all);
      m "error_rate" "fraction" (fratio (failed o) n) n;
    ]
  in
  (gated, printed)

let per_layer ~(plain : pass) ~(traced : pass) ~host_s =
  let tt = trials traced in
  let o = pool tt in
  let n = ops o in
  let fn = float_of_int n in
  let total p =
    match trials p with
    | [] -> []
    | t :: rest -> List.fold_left (fun a t -> zip ( +. ) a t.delta) t.delta rest
  in
  let mean_util k =
    sum_f (fun t -> List.assoc k t.utils) tt /. float_of_int (List.length tt)
  in
  let max_util k = List.fold_left (fun a t -> Float.max a (List.assoc k t.utils)) 0.0 tt in
  (* Simulator and GC costs come from a plain pass: the taps add
     events and allocation of their own. *)
  let sp = total plain and d = total traced in
  let s k = List.assoc k sp and c k = List.assoc k d in
  let ci k = int_of_float (c k) in
  let per_op k = c k /. fn in
  let events = s "events" in
  let nev = int_of_float events in
  let narms, nfs, npc, nlinks = (List.hd tt).sizes in
  let taps = List.filter_map (fun t -> t.taps) tt in
  let tap f = List.fold_left (fun a t -> a + f t) 0 taps in
  let tap_samples f = Samples.sort (Array.concat (List.map (fun t -> Samples.contents (f t)) taps)) in
  let requests = tap (fun t -> t.requests) in
  let busiest = tap (fun t -> Hashtbl.fold (fun _ c a -> max a !c) t.per_server 0) in
  let gw = tap_samples (fun t -> t.grant_wait) and rr = tap_samples (fun t -> t.revoke_release) in
  let hits = c "hits" and lookups = c "hits" +. c "misses" in
  [
    m "simkit.events_per_op" "events/op" (events /. fn) n;
    m "simkit.spawns_per_op" "spawns/op" (s "spawns" /. fn) n;
    m "simkit.cancelled_frac" "fraction" (ratio (s "skipped") events) nev;
    m "simkit.host_ns_per_event" "ns" (ratio (host_s *. 1e9) events) nev;
    m "simkit.alloc_words_per_event" "words" (ratio (s "minor_words") events) nev;
    m "simkit.promoted_words_per_op" "words/op" (s "promoted_words" /. fn) n;
    m "frangipani.cache_hit_rate" "fraction" (ratio hits lookups) (int_of_float lookups);
    m "frangipani.wal.flush_groups_per_op" "groups/op" (per_op "flush_groups") n;
    m "frangipani.wal.append_stalls" "count" (c "append_stalls") n;
    m "frangipani.wal.ensure_stalls" "count" (c "ensure_stalls") n;
    m "frangipani.wal.log_pressure_stalls" "count" (c "log_pressure_stalls") n;
    m "frangipani.sync_tail_s" "s" (sec o.sync_tail_ns) nfs;
    m "petal.read_rpcs_per_op" "rpcs/op" (per_op "petal_read_rpcs") n;
    m "petal.read_ms_mean" "ms" (ratio (1e3 *. c "petal_read_s") (c "petal_reads")) (ci "petal_reads");
    m "petal.write_rpcs_per_op" "rpcs/op" (per_op "petal_write_rpcs") n;
    m "petal.write_ms_mean" "ms" (ratio (1e3 *. c "petal_write_s") (c "petal_writes")) (ci "petal_writes");
    m "petal.coalesced_frac" "fraction" (ratio (c "petal_coalesced") (c "petal_pieces")) (ci "petal_pieces");
    m "petal.failovers" "count" (c "petal_failovers") n;
    m "petal.wrong_epoch_retries" "count" (c "petal_wrong_epoch") n;
    m "locksvc.requests_per_op" "msgs/op" (fratio requests n) n;
    m "locksvc.revokes_per_op" "msgs/op" (fratio (tap (fun t -> t.revokes)) n) n;
    m "locksvc.grant_wait_ms_p50" "ms" (pct_ms gw 0.5) (Array.length gw);
    m "locksvc.grant_wait_ms_p99" "ms" (pct_ms gw 0.99) (Array.length gw);
    m "locksvc.revoke_to_release_ms_p50" "ms" (pct_ms rr 0.5) (Array.length rr);
    m "locksvc.revoke_to_release_ms_p99" "ms" (pct_ms rr 0.99) (Array.length rr);
    m "locksvc.busiest_server_share" "fraction" (fratio busiest requests) requests;
    m "cluster.rpc_calls_per_op" "calls/op" (per_op "rpc_calls") n;
    m "cluster.rpc_timeouts" "count" (c "rpc_timeouts") n;
    m "cluster.rpc_retries" "count" (c "rpc_retries") n;
    m "cluster.petal_link_util_mean" "fraction" (mean_util "link_mean") nlinks;
    m "cluster.petal_link_util_max" "fraction" (max_util "link_max") nlinks;
    m "cluster.fs_cpu_util_mean" "fraction" (mean_util "fs_cpu_mean") nfs;
    m "cluster.petal_cpu_util_mean" "fraction" (mean_util "petal_cpu_mean") npc;
    m "cluster.petal_cpu_util_max" "fraction" (max_util "petal_cpu_max") npc;
    m "blockdev.arm_util_mean" "fraction" (mean_util "arm_mean") narms;
    m "blockdev.arm_util_max" "fraction" (max_util "arm_max") narms;
    m "blockdev.arm_busy_ms_per_op" "ms/op" (c "arm_busy_ns" /. 1e6 /. fn) n;
  ]

(* --- command line -------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname (json_num x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let print_metric x = Printf.printf "  %-38s %16.6f %-10s n=%d\n" x.mname x.value x.unit_ x.n

let usage () =
  prerr_endline
    "usage: main.exe --workload tenants|bulk_io|shared_rw --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some f -> seconds := f | None -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name = !workload and traced_run = !trace = 1 in
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem_assoc name workloads) then usage ();
  Logs.set_level (Some Logs.Error);
  Printf.printf "perfbench: workload %s, seed %d, %s run, %.0f s budget, %d trials per pass\n%!"
    name seed (if traced_run then "traced" else "plain") !seconds
    (List.length (trials_of name));
  (* Passes repeat while the time budget allows. A plain run needs
     three for its host-time medians; a traced run alternates plain
     and traced passes and needs one of each. Only the first pass runs
     the post-traffic output checks. *)
  let min_passes = if traced_run then 2 else 3 in
  let wall0 = Unix.gettimeofday () in
  let rec loop acc i =
    let traced = traced_run && i mod 2 = 1 in
    let t = Unix.gettimeofday () in
    let p = run_pass ~name ~seed ~traced ~check:(i = 0) in
    let took = Unix.gettimeofday () -. t in
    Printf.printf "  pass %d (%s): setup %.3f host-s, traffic %.3f host-s, sim digest %s\n%!" i
      (if traced then "traced" else "plain")
      (sum_f Fun.id p.setups) (sum_f Fun.id p.hosts) p.sim_digest;
    let acc = p :: acc in
    let elapsed = Unix.gettimeofday () -. wall0 in
    if i + 1 < min_passes || (elapsed +. took <= !seconds && i < 60) then loop acc (i + 1)
    else List.rev acc
  in
  let passes = loop [] 0 in
  (* setup_s is gated on its median: top the samples up with
     set-up-only passes, within the budget where it allows. *)
  let rec more_setups acc =
    let n = List.length passes + List.length acc in
    if n < 5 || (n < 15 && Unix.gettimeofday () -. wall0 < !seconds) then
      more_setups (setup_pass ~name ~seed :: acc)
    else acc
  in
  let extra_setups = more_setups [] in
  let first = List.hd passes in
  let o = pool (trials first) in
  let plain = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let nondet = List.length (List.filter (fun p -> p.sim_digest <> first.sim_digest) plain) in
  let correct = o.r.problems = 0 && nondet = 0 in
  let attempted = ops o and nfailed = failed o in
  List.iter (Printf.printf "  check failed: %s\n") (List.rev o.r.first_problems);
  if nondet > 0 then
    Printf.printf "  check failed: %d plain passes disagree with the first (seed %d)\n" nondet seed;
  if not correct then begin
    json_line ~correct ~attempted ~failed:nfailed [];
    exit 1
  end;
  Printf.printf "  checks: fsck clean, ledger read back, every traffic read verified\n";
  let summary ?(setups = []) ps =
    let hosts = List.map (fun p -> p.hosts) ps in
    let setups = setups @ List.map (fun p -> p.setups) ps in
    let host_s = (sum_of_medians hosts, List.length hosts) in
    let setup_s = (sum_of_medians setups, List.length setups) in
    let ts = trials (List.hd ps) in
    end_to_end (pool ts) ~host_s ~setup_s ~peak_heap_mb:(peak_mb ts)
  in
  let gated, printed = summary ~setups:extra_setups plain in
  Printf.printf
    "end-to-end (%d plain passes, %d more set-ups; simulated metrics from seed %d):\n"
    (List.length plain) (List.length extra_setups) seed;
  List.iter print_metric (gated @ printed);
  Printf.printf "  traffic mix:";
  Array.iteri
    (fun k nm ->
      if o.r.attempts.(k) > 0 then
        Printf.printf " %s %.1f%%" nm (100.0 *. fratio o.r.attempts.(k) attempted))
    kind_names;
  Printf.printf " (of %d calls%s)\n" attempted
    (if o.user_ops > 0 then Printf.sprintf ", %d generator ops" o.user_ops else "");
  if not traced_run then json_line ~correct ~attempted ~failed:nfailed gated
  else begin
    let tgated, tprinted = summary traced in
    Printf.printf "tracing overhead (traced - plain, %d traced passes):\n" (List.length traced);
    List.iter2
      (fun a b ->
        Printf.printf "  %-38s %+16.6f %-10s (plain %.6f, traced %.6f)\n" a.mname
          (b.value -. a.value) a.unit_ a.value b.value)
      (gated @ printed) (tgated @ tprinted);
    let layers =
      per_layer ~plain:(List.hd plain) ~traced:(List.hd traced)
        ~host_s:(sum_of_medians (List.map (fun p -> p.hosts) plain))
    in
    Printf.printf "per-layer (first traced pass; simkit from the first plain pass):\n";
    List.iter print_metric layers;
    json_line ~correct ~attempted ~failed:nfailed layers
  end
