open Simkit
open Frangipani

(* A private vdisk for log experiments. *)
let mkvd () =
  let net = Cluster.Net.create () in
  let tb = Petal.Testbed.build ~net ~nservers:3 ~ndisks:2 () in
  let h = Cluster.Host.create "walclient" in
  let rpc = Cluster.Rpc.create (Cluster.Net.attach net h) in
  let c = Petal.Testbed.client tb ~rpc in
  Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2)

let diff addr doff data version = { Wal.addr; doff; data; version }

let d i =
  diff
    (Layout.inode_addr i)
    8
    (Bytes.of_string (Printf.sprintf "record-%04d" i))
    (i + 1)

let test_roundtrip () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      for i = 0 to 9 do
        ignore (Wal.append w [ d i ])
      done;
      Wal.flush w;
      let diffs = Wal.scan vd ~slot:3 in
      Alcotest.(check int) "all diffs recovered" 10 (List.length diffs);
      List.iteri
        (fun i (x : Wal.diff) ->
          Alcotest.(check int) "order" (Layout.inode_addr i) x.Wal.addr;
          Alcotest.(check string) "payload"
            (Printf.sprintf "record-%04d" i)
            (Bytes.to_string x.Wal.data))
        diffs)

let test_unflushed_not_durable () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:0 ~synchronous:false ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w [ d 1 ]);
      Alcotest.(check int) "nothing on disk yet" 0 (List.length (Wal.scan vd ~slot:0));
      Wal.discard_volatile w;
      Wal.flush w;
      Alcotest.(check int) "discarded tail lost" 0 (List.length (Wal.scan vd ~slot:0)))

let test_synchronous_mode () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:1 ~synchronous:true ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w [ d 7 ]);
      (* Durable immediately, no explicit flush. *)
      Alcotest.(check int) "already durable" 1 (List.length (Wal.scan vd ~slot:1)))

let test_ensure_flushed_barrier () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:2 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let r1 = Wal.append w [ d 1 ] in
      let r2 = Wal.append w [ d 2 ] in
      Wal.ensure_flushed w r1;
      (* r2 was grouped into the same flush (group commit). *)
      Alcotest.(check bool) "group commit" true (r2 <= Wal.last_rid w);
      Alcotest.(check int) "both durable" 2 (List.length (Wal.scan vd ~slot:2)))

let test_wraparound_keeps_window () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:4 ~synchronous:false ~lease_ok:(fun () -> true) () in
      (* Push far more than 128 KB of records through: the log wraps
         several times; scan must return a consistent recent window,
         newest record always included. *)
      let n = 3000 in
      for i = 0 to n - 1 do
        ignore (Wal.append w [ d i ]);
        if i mod 50 = 0 then Wal.flush w
      done;
      Wal.flush w;
      let diffs = Wal.scan vd ~slot:4 in
      Alcotest.(check bool) "non-empty window" true (List.length diffs > 100);
      (* Monotone order, ending at the newest record. *)
      let versions = List.map (fun (x : Wal.diff) -> x.Wal.version) diffs in
      let sorted = List.sort compare versions in
      Alcotest.(check bool) "in order" true (versions = sorted);
      Alcotest.(check int) "newest present" n (List.nth versions (List.length versions - 1)))

let test_isolated_slots () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w5 = Wal.create ~vd ~slot:5 ~synchronous:true ~lease_ok:(fun () -> true) () in
      let w6 = Wal.create ~vd ~slot:6 ~synchronous:true ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w5 [ d 100 ]);
      ignore (Wal.append w6 [ d 200 ]);
      Alcotest.(check int) "slot5" 1 (List.length (Wal.scan vd ~slot:5));
      Alcotest.(check int) "slot6" 1 (List.length (Wal.scan vd ~slot:6));
      Alcotest.(check int) "slot7 empty" 0 (List.length (Wal.scan vd ~slot:7)))

let test_lease_check_blocks_writes () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let ok = ref true in
      let w = Wal.create ~vd ~slot:8 ~synchronous:false ~lease_ok:(fun () -> !ok) () in
      ignore (Wal.append w [ d 1 ]);
      ok := false;
      (try
         Wal.flush w;
         Alcotest.fail "expected EIO"
       with Errors.Error Errors.Eio -> ()))

(* A crash mid-group-commit leaves the tail of a multi-sector record
   missing: scan must report the torn tail and replay exactly the
   valid prefix rather than raise. Simulated by zeroing the last log
   sector after a flush of one small record plus one record big
   enough to span several sectors. *)
let test_torn_tail_replays_prefix () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w [ d 1 ]);
      ignore
        (Wal.append w
           [
             diff (Layout.inode_addr 10) 0 (Bytes.make 500 'a') 11;
             diff (Layout.inode_addr 11) 0 (Bytes.make 500 'b') 12;
             diff (Layout.inode_addr 12) 0 (Bytes.make 500 'c') 13;
           ]);
      Wal.flush w;
      let whole = Wal.scan_report vd ~slot:3 in
      Alcotest.(check bool) "intact log not torn" false whole.Wal.torn;
      Alcotest.(check int) "intact log has both records" 2 whole.Wal.records;
      (* Tear off the last sector of the log (the big record's tail). *)
      let last = Layout.log_addr ~slot:3 + ((whole.Wal.live_sectors - 1) * Layout.sector) in
      Petal.Client.write vd ~off:last (Bytes.make Layout.sector '\000');
      let torn = Wal.scan_report vd ~slot:3 in
      Alcotest.(check bool) "torn tail detected" true torn.Wal.torn;
      Alcotest.(check int) "only the complete record survives" 1 torn.Wal.records;
      Alcotest.(check int) "its single diff is the prefix" 1
        (List.length torn.Wal.diffs);
      Alcotest.(check int) "prefix diff is record 1" 2
        (List.hd torn.Wal.diffs).Wal.version)

(* A sector whose CRC happens to validate but whose header claims an
   impossible payload length must be excluded from the live window,
   not crash the scanner (it used to raise Invalid_argument from
   Bytes.sub). *)
let test_garbage_sector_with_valid_crc () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let b = Bytes.make Layout.sector '\000' in
      Stdext.Codec.put_int b 0 1 (* lsn 1 *);
      Stdext.Codec.put_u16 b 8 0 (* first_rec 0 *);
      Stdext.Codec.put_u16 b 10 5000 (* payload "length" way past the cap *);
      Stdext.Codec.put_u32 b 508 (Stdext.Crc32.bytes b 0 508);
      Petal.Client.write vd ~off:(Layout.log_addr ~slot:0) b;
      let r = Wal.scan_report vd ~slot:0 in
      Alcotest.(check int) "garbage sector not live" 0 r.Wal.live_sectors;
      Alcotest.(check (list string)) "no diffs" []
        (List.map (fun (x : Wal.diff) -> Bytes.to_string x.Wal.data) r.Wal.diffs))

(* A failed flush (host died mid-commit) must release the
   group-commit latch and put the batch back: a second flush attempt
   fails the same way instead of wedging forever, and ensure_flushed
   does not spin. *)
let test_flush_failure_releases_group_commit () =
  Sim.run (fun () ->
      let net = Cluster.Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:3 ~ndisks:2 () in
      let h = Cluster.Host.create "walclient" in
      let rpc = Cluster.Rpc.create (Cluster.Net.attach net h) in
      let c = Petal.Testbed.client tb ~rpc in
      let vd = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      let w = Wal.create ~vd ~slot:0 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let r = Wal.append w [ d 1 ] in
      Cluster.Host.crash h;
      (match Wal.flush w with
      | () -> Alcotest.fail "flush from a dead host should fail"
      | exception Cluster.Host.Crashed _ -> ());
      (match Wal.ensure_flushed w r with
      | () -> Alcotest.fail "ensure_flushed should propagate the failure"
      | exception Cluster.Host.Crashed _ -> ());
      (match Wal.flush w with
      | () -> Alcotest.fail "flush should fail again, not wedge"
      | exception Cluster.Host.Crashed _ -> ()))

(* The flush pipeline: while one group of sectors is in flight to
   Petal, the next batch of appends is formatted and queued behind it.
   Even though the second batch finishes formatting while the first is
   still on the wire, the single submitter must land everything in
   strict LSN (= rid) order. *)
let test_pipelined_groups_land_in_order () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      (* Batch 1: ~127 sectors, several pipeline groups. *)
      for i = 0 to 149 do
        ignore
          (Wal.append w [ diff (Layout.inode_addr i) 0 (Bytes.make 400 'x') (i + 1) ])
      done;
      let done1 = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Wal.flush w;
          Sim.Ivar.fill done1 ());
      (* Let the submitter put group 1 on the wire, then format batch
         2 while it is still in flight. *)
      Sim.sleep (Sim.us 100);
      for i = 150 to 199 do
        ignore
          (Wal.append w [ diff (Layout.inode_addr i) 0 (Bytes.make 400 'y') (i + 1) ])
      done;
      Wal.flush w;
      Sim.Ivar.read done1;
      Alcotest.(check bool) "formatting overlapped an in-flight group" true
        ((Wal.stats w).Wal.pipeline_overlaps > 0);
      Alcotest.(check bool) "several groups were submitted" true
        ((Wal.stats w).Wal.flush_groups > 1);
      let diffs = Wal.scan vd ~slot:3 in
      Alcotest.(check (list int)) "every record present, in rid order"
        (List.init 200 (fun i -> i + 1))
        (List.map (fun (x : Wal.diff) -> x.Wal.version) diffs))

(* A larger-than-default log retains a wider replay window: ~1000
   records of ~1 sector each overflow the 128 KB default several
   times over, but stay almost entirely live in a 512 KB log. *)
let test_larger_log_widens_window () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let log_bytes = 512 * 1024 in
      let w =
        Wal.create ~log_bytes ~vd ~slot:4 ~synchronous:false
          ~lease_ok:(fun () -> true) ()
      in
      for i = 0 to 999 do
        ignore
          (Wal.append w [ diff (Layout.inode_addr i) 0 (Bytes.make 500 'z') (i + 1) ]);
        if i mod 100 = 0 then Wal.flush w
      done;
      Wal.flush w;
      let r = Wal.scan_report ~log_bytes vd ~slot:4 in
      Alcotest.(check bool) "not torn" false r.Wal.torn;
      Alcotest.(check bool)
        (Printf.sprintf "window wider than a 128 KB log allows (got %d records)"
           r.Wal.records)
        true (r.Wal.records > 400);
      (* The log wrapped, so reclaim must have run. *)
      Alcotest.(check bool) "reclaim ran" true ((Wal.stats w).Wal.reclaim_rounds > 0))

let prop_scan_returns_complete_prefix_records =
  QCheck.Test.make ~name:"random record sizes survive the sector packer" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 400))
    (fun sizes ->
      Sim.run (fun () ->
          let vd = mkvd () in
          let w = Wal.create ~vd ~slot:9 ~synchronous:false ~lease_ok:(fun () -> true) () in
          List.iteri
            (fun i sz ->
              ignore
                (Wal.append w
                   [ diff (Layout.inode_addr i) 8 (Bytes.make (min sz 500) 'p') (i + 1) ]))
            sizes;
          Wal.flush w;
          let diffs = Wal.scan vd ~slot:9 in
          List.length diffs = List.length sizes
          && List.for_all2
               (fun (x : Wal.diff) sz -> Bytes.length x.Wal.data = min sz 500)
               diffs sizes))

(* A WAL-reclaim write-back must not race a regular flush of the same
   sector: two writes of it in flight together could land out of
   order. The reclaim skips the entry the flush has in flight and
   returns only once that write has landed. *)
let test_reclaim_waits_for_inflight_flush () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:5 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let c = Cache.create ~vd ~wal:w ~lease_ok:(fun () -> true) in
      let lock = Lockns.inode_lock 3 in
      Cache.with_txn c (fun txn ->
          Cache.update c txn ~lock ~addr:(Layout.inode_addr 3) ~off:8
            ~bytes:(Bytes.of_string "reclaim"));
      Wal.flush w;
      let writes () = (Petal.Client.op_stats vd).Petal.Client.write_pieces in
      let w0 = writes () in
      let flushed = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Cache.flush_lock c lock;
          Sim.Ivar.fill flushed ());
      Sim.sleep (Sim.us 50);
      Alcotest.(check int) "flush write in flight" 1 (writes () - w0);
      Alcotest.(check int) "sector still dirty" 1 (Cache.dirty_count c);
      Cache.flush_upto_rid c (Wal.last_rid w);
      Alcotest.(check int) "no second write of the sector" 1 (writes () - w0);
      Alcotest.(check int) "sector clean on return" 0 (Cache.dirty_count c);
      Sim.Ivar.read flushed)

(* A cache over a private log, plus helpers to commit a logged
   update of inode 3's sector and to dirty unlogged data blocks. *)
let mkcache ~slot =
  let vd = mkvd () in
  let w = Wal.create ~vd ~slot ~synchronous:false ~lease_ok:(fun () -> true) () in
  (vd, w, Cache.create ~vd ~wal:w ~lease_ok:(fun () -> true))

let ino = Layout.inode_addr 3
let ino_lock = Lockns.inode_lock 3

let log_inode c s =
  Cache.with_txn c (fun txn ->
      Cache.update c txn ~lock:ino_lock ~addr:ino ~off:8 ~bytes:(Bytes.of_string s))

(* [n] data blocks from small data block [b], all under the inode's
   lock (like a file's blocks). *)
let dirty_data c ~b ~n =
  for i = b to b + n - 1 do
    Cache.write_data c ~lock:ino_lock
      ~addr:(Layout.small_addr Layout.Small_data i)
      ~bytes:(Bytes.make Layout.small_block 'd')
  done

let spawn_flush f =
  let iv = Sim.Ivar.create () in
  Sim.spawn (fun () ->
      f ();
      Sim.Ivar.fill iv ());
  iv

(* Two flushers parked in the same log wait (here a revoke's flush and
   the sync demon's) must not both put a write of the sector in flight:
   the two writes could land out of order. Whichever resumes second
   finds the sector in flight and only waits for it. *)
let test_parked_flushers_write_once () =
  Sim.run (fun () ->
      let vd, _, c = mkcache ~slot:6 in
      log_inode c "parked";
      let writes () = (Petal.Client.op_stats vd).Petal.Client.write_pieces in
      let w0 = writes () in
      let revoke = spawn_flush (fun () -> Cache.flush_lock c ino_lock) in
      let sync = spawn_flush (fun () -> Cache.flush_all c) in
      Sim.Ivar.read revoke;
      Sim.Ivar.read sync;
      Alcotest.(check int) "one log write, one write of the sector" 2 (writes () - w0);
      Alcotest.(check int) "sector clean" 0 (Cache.dirty_count c))

(* The write-ahead rule under the overlapped write-back: no logged
   sector reaches Petal before its record is durable. Every write-back
   run records how far the log was durable when it was submitted, and
   Petal's copy of the inode sector never carries a version the
   durable log does not hold — also when a transaction commits a newer
   record for the sector while a flush waits on the log. *)
let test_logged_sector_waits_for_its_record () =
  Sim.run (fun () ->
      let vd, w, c = mkcache ~slot:7 in
      Faultpoint.reset ();
      Faultpoint.enable ();
      let seen = ref [] in
      for k = 1 to 8 do
        Faultpoint.arm_site "cache.write_run" ~at:k
          (Faultpoint.Crash (fun _ -> seen := Wal.durable_rid w :: !seen))
      done;
      let on_petal () = Stdext.Codec.get_int (Petal.Client.read vd ~off:ino ~len:Layout.sector) 0 in
      let in_log () =
        List.fold_left
          (fun acc (x : Wal.diff) -> if x.Wal.addr = ino then max acc x.Wal.version else acc)
          0 (Wal.scan vd ~slot:7)
      in
      log_inode c "first";
      let r1 = Wal.last_rid w in
      dirty_data c ~b:0 ~n:1;
      dirty_data c ~b:16 ~n:1;
      let flushed = spawn_flush (fun () -> Cache.flush_lock c ino_lock) in
      Sim.sleep (Sim.us 50);
      log_inode c "second";
      let r2 = Wal.last_rid w in
      Sim.Ivar.read flushed;
      Alcotest.(check bool) "no unlogged version on Petal while a newer record waits" true
        (on_petal () <= in_log ());
      Cache.flush_all c;
      Faultpoint.reset ();
      Alcotest.(check int) "sector written once its newest record landed" 2 (on_petal ());
      Alcotest.(check int) "newest record durable" 2 (in_log ());
      match List.rev !seen with
      | [ d1; d2; sector ] ->
        Alcotest.(check bool) "both data runs went out before the first record landed" true
          (d1 < r1 && d2 < r1);
        Alcotest.(check bool) "the sector went out after its newest record landed" true
          (sector >= r2)
      | runs -> Alcotest.failf "expected 3 write-back runs, got %d" (List.length runs))

(* A flush whose batch holds an unlogged data block and a logged inode
   puts the data write in flight while the log group is still in
   flight, instead of after it. *)
let test_data_overlaps_log_flush () =
  Sim.run (fun () ->
      let vd, w, c = mkcache ~slot:8 in
      log_inode c "overlap";
      let r = Wal.last_rid w in
      dirty_data c ~b:0 ~n:1;
      let writes () = (Petal.Client.op_stats vd).Petal.Client.write_pieces in
      let w0 = writes () in
      let flushed = spawn_flush (fun () -> Cache.flush_lock c ino_lock) in
      Sim.sleep (Sim.us 50);
      Alcotest.(check bool) "log group still in flight" true (Wal.durable_rid w < r);
      Alcotest.(check int) "log group and data write both in flight" 2 (writes () - w0);
      Sim.Ivar.read flushed;
      Alcotest.(check int) "then the inode" 3 (writes () - w0);
      Alcotest.(check int) "all clean" 0 (Cache.dirty_count c))

(* A WAL reclaim never waits on a data write: the logged entries of a
   flush travel in a batch of their own, so a reclaim that finds one in
   flight returns once that batch lands, while the flush's data write
   is still stalled (a one-second delay at its Petal submission). *)
let test_reclaim_never_waits_on_data () =
  Sim.run (fun () ->
      let _, w, c = mkcache ~slot:9 in
      log_inode c "reclaim";
      let r = Wal.last_rid w in
      dirty_data c ~b:0 ~n:1;
      Faultpoint.reset ();
      Faultpoint.enable ();
      (* Petal write piece 1 is the log group's, piece 2 the data's. *)
      Faultpoint.arm_site "petal.write_piece" ~at:2 (Faultpoint.Delay (Sim.sec 1.0));
      let flushed = spawn_flush (fun () -> Cache.flush_lock c ino_lock) in
      while Wal.durable_rid w < r do
        Sim.sleep (Sim.ms 1)
      done;
      let t0 = Sim.now () in
      Cache.flush_upto_rid c r;
      Alcotest.(check bool) "reclaim did not wait out the stalled data write" true
        (Sim.now () - t0 < Sim.sec 0.5);
      Alcotest.(check int) "only the data block still dirty" 1 (Cache.dirty_count c);
      Sim.Ivar.read flushed;
      Faultpoint.reset ();
      Alcotest.(check int) "all clean" 0 (Cache.dirty_count c))

(* A flush whose data batch overflows the Petal client's 64-piece
   in-flight pool, with the inode's record already durable: [k] runs
   while the data still waits for pool slots, with faultpoints enabled
   and the flush's Ivar in hand. *)
let with_pool_overflow_flush ~slot k =
  Sim.run (fun () ->
      let vd, w, c = mkcache ~slot in
      log_inode c "first";
      Wal.flush w;
      for i = 0 to 79 do
        dirty_data c ~b:(16 * i) ~n:1
      done;
      Faultpoint.reset ();
      Faultpoint.enable ();
      let flushed = spawn_flush (fun () -> Cache.flush_lock c ino_lock) in
      let pieces () = Faultpoint.count "petal.write_piece" in
      let t0 = Sim.now () in
      while pieces () <= Petal.Client.max_inflight_pieces && Sim.now () - t0 < Sim.sec 1.0 do
        Sim.sleep (Sim.us 100)
      done;
      Alcotest.(check bool) "data batch overflows the pool" true
        (pieces () > Petal.Client.max_inflight_pieces);
      Alcotest.(check int) "nothing landed yet" 81 (Cache.dirty_count c);
      k vd w c flushed;
      Faultpoint.reset ())

let inode_on_petal vd =
  let b = Petal.Client.read vd ~off:ino ~len:Layout.sector in
  (Stdext.Codec.get_int b 0, Bytes.sub_string b 8 5)

(* The write-ahead rule when the log is already durable: a transaction
   that commits a newer record for the inode while the flush's data
   waits for pool slots (its log write held back a second) must not
   get that version of the sector onto Petal ahead of the record. *)
let test_commit_during_pool_overflow () =
  with_pool_overflow_flush ~slot:10 (fun vd w c flushed ->
      Faultpoint.arm_site "petal.write_piece"
        ~at:(Faultpoint.count "petal.write_piece" + 1)
        (Faultpoint.Delay (Sim.sec 1.0));
      log_inode c "newer";
      let r2 = Wal.last_rid w in
      Sim.Ivar.read flushed;
      Alcotest.(check bool) "newer record still held back" true (Wal.durable_rid w < r2);
      Alcotest.(check (pair int string)) "Petal has only the durable version" (1, "first")
        (inode_on_petal vd);
      Wal.flush w;
      Cache.flush_all c;
      Alcotest.(check (pair int string)) "newer version once its record landed" (2, "newer")
        (inode_on_petal vd))

(* Likewise for a transaction still open while the data waits for pool
   slots: its bytes never reach Petal, and once it aborts the sector
   is written back with its committed content. *)
let test_open_txn_during_pool_overflow () =
  with_pool_overflow_flush ~slot:11 (fun vd _ c flushed ->
      let aborted =
        spawn_flush (fun () ->
            try
              Cache.with_txn c (fun txn ->
                  Cache.update c txn ~lock:ino_lock ~addr:ino ~off:8
                    ~bytes:(Bytes.of_string "wrong");
                  Sim.sleep (Sim.sec 1.0);
                  failwith "abort")
            with Failure _ -> ())
      in
      Sim.Ivar.read flushed;
      Alcotest.(check (pair int string)) "open transaction's bytes kept off Petal" (1, "first")
        (inode_on_petal vd);
      Sim.Ivar.read aborted;
      Cache.flush_all c;
      Alcotest.(check (pair int string)) "committed content after the abort" (1, "first")
        (inode_on_petal vd);
      Alcotest.(check int) "all clean" 0 (Cache.dirty_count c))

(* A flush that finds a data block in flight elsewhere must not return
   with the block still dirty. The sync demon's write of "a" is held
   back a second after its copy was taken, the block is rewritten "b",
   and a revoke's flush of the lock (or an fsync) must leave "b" on
   Petal when it returns, not only wait for the stale write. *)
let test_flush_resends_rewritten_data () =
  Sim.run (fun () ->
      let vd, _, c = mkcache ~slot:12 in
      let addr = Layout.small_addr Layout.Small_data 0 in
      let write ch =
        Cache.write_data c ~lock:ino_lock ~addr ~bytes:(Bytes.make Layout.small_block ch)
      in
      write 'a';
      Faultpoint.reset ();
      Faultpoint.enable ();
      Faultpoint.arm_site "petal.write_piece" ~at:1 (Faultpoint.Delay (Sim.sec 1.0));
      let sync = spawn_flush (fun () -> Cache.flush_all c) in
      Sim.sleep (Sim.us 50);
      write 'b';
      Cache.flush_lock c ino_lock;
      Faultpoint.reset ();
      Alcotest.(check char) "Petal has the rewritten block" 'b'
        (Bytes.get (Petal.Client.read vd ~off:addr ~len:Layout.small_block) 0);
      Alcotest.(check int) "nothing dirty" 0 (Cache.dirty_count c);
      Sim.Ivar.read sync)

(* The re-send round never writes a sector an open transaction has
   modified. Inode 3's sector holds an unlogged (atime-style) update and
   is in flight as data in the sync demon's flush, a revoke's flush
   finds it there and waits, and meanwhile a transaction updates it and
   is held open before its record is appended. When the revoke's wait
   ends the sector is dirty again, but its new version is in no log
   record, so it must stay off Petal until the record is durable. *)
let test_resend_skips_open_txn () =
  Sim.run (fun () ->
      let vd, w, c = mkcache ~slot:13 in
      let on_petal () = Stdext.Codec.get_int (Petal.Client.read vd ~off:ino ~len:Layout.sector) 0 in
      let in_log () =
        List.fold_left
          (fun acc (x : Wal.diff) -> if x.Wal.addr = ino then max acc x.Wal.version else acc)
          0 (Wal.scan vd ~slot:13)
      in
      Cache.update_nolog c ~lock:ino_lock ~addr:ino ~off:8 ~bytes:(Bytes.of_string "atime");
      Faultpoint.reset ();
      Faultpoint.enable ();
      Faultpoint.arm_site "petal.write_piece" ~at:1 (Faultpoint.Delay (Sim.sec 1.0));
      Faultpoint.arm_site "wal.append" ~at:1 (Faultpoint.Delay (Sim.sec 2.0));
      let sync = spawn_flush (fun () -> Cache.flush_all c) in
      Sim.sleep (Sim.us 50);
      let revoke = spawn_flush (fun () -> Cache.flush_lock c ino_lock) in
      Sim.sleep (Sim.us 50);
      let txn = spawn_flush (fun () -> log_inode c "txn") in
      Sim.Ivar.read revoke;
      Alcotest.(check int) "Petal holds the unlogged atime version only" 1 (on_petal ());
      Alcotest.(check bool) "no version on Petal ahead of the durable log" true
        (on_petal () <= max 1 (in_log ()));
      Sim.Ivar.read sync;
      Sim.Ivar.read txn;
      Cache.flush_all c;
      Faultpoint.reset ();
      Alcotest.(check int) "record durable" 2 (in_log ());
      Alcotest.(check bool) "log durable" true (Wal.durable_rid w >= Wal.last_rid w);
      Alcotest.(check int) "sector written after its record" 2 (on_petal ());
      Alcotest.(check int) "all clean" 0 (Cache.dirty_count c))

let () =
  Alcotest.run "wal"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "unflushed not durable" `Quick test_unflushed_not_durable;
          Alcotest.test_case "synchronous mode" `Quick test_synchronous_mode;
          Alcotest.test_case "ensure_flushed barrier" `Quick test_ensure_flushed_barrier;
          Alcotest.test_case "wraparound window" `Quick test_wraparound_keeps_window;
          Alcotest.test_case "isolated slots" `Quick test_isolated_slots;
          Alcotest.test_case "lease check blocks writes" `Quick
            test_lease_check_blocks_writes;
          Alcotest.test_case "torn tail replays prefix" `Quick
            test_torn_tail_replays_prefix;
          Alcotest.test_case "garbage sector with valid crc" `Quick
            test_garbage_sector_with_valid_crc;
          Alcotest.test_case "flush failure releases group commit" `Quick
            test_flush_failure_releases_group_commit;
          Alcotest.test_case "pipelined groups land in lsn order" `Quick
            test_pipelined_groups_land_in_order;
          Alcotest.test_case "larger log widens replay window" `Quick
            test_larger_log_widens_window;
          QCheck_alcotest.to_alcotest prop_scan_returns_complete_prefix_records;
          Alcotest.test_case "reclaim waits for in-flight flush" `Quick
            test_reclaim_waits_for_inflight_flush;
          Alcotest.test_case "parked flushers write a sector once" `Quick
            test_parked_flushers_write_once;
          Alcotest.test_case "logged sector waits for its record" `Quick
            test_logged_sector_waits_for_its_record;
          Alcotest.test_case "data write overlaps the log flush" `Quick
            test_data_overlaps_log_flush;
          Alcotest.test_case "reclaim never waits on data" `Quick
            test_reclaim_never_waits_on_data;
          Alcotest.test_case "commit during pool overflow" `Quick
            test_commit_during_pool_overflow;
          Alcotest.test_case "flush re-sends rewritten data" `Quick
            test_flush_resends_rewritten_data;
          Alcotest.test_case "re-send skips a sector an open txn holds" `Quick
            test_resend_skips_open_txn;
          Alcotest.test_case "open txn during pool overflow" `Quick
            test_open_txn_during_pool_overflow;
        ] );
    ]
