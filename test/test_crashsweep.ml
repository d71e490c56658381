(* The deterministic crash-point fault-injection harness: a bounded
   subset of the recovery sweep (the exhaustive sweep over every
   registered crash point is `sweep_full.exe crash`), plus directed
   tests for racing recoveries and a replay that aborts mid-way. *)

open Simkit
open Frangipani
module T = Workloads.Testbed
module Sweep = Workloads.Crashsweep

let check_clean what (o : Sweep.outcome) =
  Alcotest.(check (list string)) what [] (Sweep.failures o)

let test_counting_run_deterministic () =
  let o = Sweep.run () in
  check_clean "no-crash run is clean" o;
  Alcotest.(check bool)
    (Printf.sprintf "sweep has >= 50 crash points (got %d)" o.Sweep.total_hits)
    true
    (o.Sweep.total_hits >= 50);
  (* The whole point of the harness: the same seed must produce the
     same faultpoint schedule, or "crash at hit k" means nothing. *)
  let o' = Sweep.run () in
  Alcotest.(check int) "hit total is deterministic" o.Sweep.total_hits
    o'.Sweep.total_hits;
  Alcotest.(check bool) "per-site counts are deterministic" true
    (o.Sweep.sites = o'.Sweep.sites)

(* Replay-drift guard for the zero-copy data path: RPC payloads are
   now shared slices and ownership-transfer writes may alias the
   sender's buffer, so any accidental mutation-after-send would show
   up as schedule divergence between two runs of the same seed. The
   guard demands not just an equal outcome record but a bit-identical
   event trace, proxied by the engine's exact event/spawn/skip
   counters — one stray event and they differ. *)
let test_replay_drift_guard () =
  let n = (Sweep.run ()).Sweep.total_hits in
  let observe () =
    let o = Sweep.run ~crash_at:(n / 2) () in
    (o, Sim.stats ())
  in
  let o1, s1 = observe () in
  let o2, s2 = observe () in
  Alcotest.(check bool) "outcome record identical" true (o1 = o2);
  Alcotest.(check bool) "event trace identical (events/spawns/skips)" true
    (s1 = s2);
  check_clean "mid-schedule crash case is clean" o1

let test_quick_sweep () =
  let n = (Sweep.run ()).Sweep.total_hits in
  (* Eight crash points spread across the whole schedule; the full
     sweep covers every k in [1, n]. *)
  let ks = List.init 8 (fun i -> 1 + (i * (n - 1) / 7)) |> List.sort_uniq compare in
  List.iter
    (fun k ->
      check_clean (Printf.sprintf "crash at hit %d/%d" k n) (Sweep.run ~crash_at:k ()))
    ks

(* The same sweep against NVRAM-fronted Petal servers: the write path
   gains the nvram.write / nvram.destage boundaries. *)
let test_quick_sweep_nvram () =
  let o = Sweep.run ~nvram:true () in
  check_clean "no-crash nvram run is clean" o;
  Alcotest.(check bool) "nvram faultpoints fire" true
    (List.mem_assoc "nvram.write" o.Sweep.sites);
  let n = o.Sweep.total_hits in
  List.iter
    (fun k ->
      check_clean
        (Printf.sprintf "nvram crash at hit %d/%d" k n)
        (Sweep.run ~crash_at:k ~nvram:true ()))
    (List.sort_uniq compare [ 1; n / 3; (2 * n) / 3; n ])

(* Two peers racing Recovery.run over the same dead log: the log lock
   serializes them, and the version checks make the loser's replay a
   no-op — the disk image must come out byte-identical. *)
let test_racing_recoveries () =
  Sim.run ~until:(Sim.sec 3600.0) (fun () ->
      Faultpoint.reset ();
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let cfg = { Ctx.default_config with synchronous_log = true } in
      let a = T.add_server t ~config:cfg () in
      let b = T.add_server t () in
      let c = T.add_server t () in
      let dir = Fs.mkdir a ~dir:Fs.root "race" in
      for i = 0 to 9 do
        let f = Fs.create a ~dir (Printf.sprintf "f%d" i) in
        Fs.write a f ~off:0 (Bytes.make 600 (Char.chr (65 + i)))
      done;
      Fs.crash a;
      (* Let the lease expire and the automatic recovery finish. *)
      Sim.sleep (Sim.sec 90.0);
      let slot = Fs.log_slot a in
      let vd = b.Ctx.vd in
      let diffs = Wal.scan vd ~slot in
      let addrs =
        List.sort_uniq compare (List.map (fun (d : Wal.diff) -> d.addr) diffs)
      in
      Alcotest.(check bool) "dead log is non-trivial" true (addrs <> []);
      let snap () =
        List.map (fun addr -> Petal.Client.read vd ~off:addr ~len:Layout.sector) addrs
      in
      let before = snap () in
      (* The automatic recovery already ran on one of the peers; the
         race below adds exactly one more replay to each. *)
      let b0 = (Fs.recovery_stats b).Fs.replays in
      let c0 = (Fs.recovery_stats c).Fs.replays in
      let done_b = Sim.Ivar.create () and done_c = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Recovery.run b ~dead_lease:slot;
          Sim.Ivar.fill done_b ());
      Sim.spawn (fun () ->
          Recovery.run c ~dead_lease:slot;
          Sim.Ivar.fill done_c ());
      Sim.Ivar.read done_b;
      Sim.Ivar.read done_c;
      Alcotest.(check int) "b replayed once more" (b0 + 1)
        (Fs.recovery_stats b).Fs.replays;
      Alcotest.(check int) "c replayed once more" (c0 + 1)
        (Fs.recovery_stats c).Fs.replays;
      Alcotest.(check bool) "disk image byte-identical" true
        (List.for_all2 Bytes.equal before (snap ()));
      Alcotest.(check (list string)) "fsck clean" []
        (List.map (Format.asprintf "%a" Fsck.pp_finding) (Fsck.check b));
      (* The racing replays really were no-ops on disk. *)
      for i = 0 to 9 do
        let f = Fs.lookup b ~dir:(Fs.lookup b ~dir:Fs.root "race") (Printf.sprintf "f%d" i) in
        ignore (Fs.stat b f)
      done)

(* A replay that aborts mid-way (the check_lease_margin Eio path in
   apply_diff): the clerk must stay silent (no L_recovered), release
   the log lock, and the lock service's nag must get a second, clean
   attempt through. *)
let test_recovery_abort_then_retry () =
  Sim.run ~until:(Sim.sec 3600.0) (fun () ->
      Faultpoint.reset ();
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let cfg = { Ctx.default_config with synchronous_log = true } in
      let a = T.add_server t ~config:cfg () in
      let b = T.add_server t () in
      let dir = Fs.mkdir a ~dir:Fs.root "abort" in
      for i = 0 to 9 do
        let f = Fs.create a ~dir (Printf.sprintf "f%d" i) in
        Fs.write a f ~off:0 (Bytes.make 600 'y')
      done;
      (* Fail the first replay attempt at its third applied diff —
         the same exception check_lease_margin produces. *)
      Faultpoint.arm_site "recovery.apply" ~at:3
        (Faultpoint.Raise (Errors.Error Errors.Eio));
      Faultpoint.enable ();
      Fs.crash a;
      Sim.sleep (Sim.sec 120.0);
      let st = Fs.recovery_stats b in
      Alcotest.(check bool)
        (Printf.sprintf "aborted attempt was retried (replays=%d)" st.Fs.replays)
        true (st.Fs.replays >= 2);
      Alcotest.(check bool) "retry skipped the already-applied diffs" true
        (st.Fs.diffs_skipped >= 2);
      Alcotest.(check (list string)) "fsck clean" []
        (List.map (Format.asprintf "%a" Fsck.pp_finding) (Fsck.check b));
      let dir = Fs.lookup b ~dir:Fs.root "abort" in
      Alcotest.(check int) "all files recovered" 10
        (List.length (Fs.readdir b dir)))

let () =
  Alcotest.run "crashsweep"
    [
      ( "sweep",
        [
          Alcotest.test_case "counting run, determinism" `Quick
            test_counting_run_deterministic;
          Alcotest.test_case "replay-drift guard" `Quick
            test_replay_drift_guard;
          Alcotest.test_case "strided crash sweep" `Quick test_quick_sweep;
          Alcotest.test_case "strided crash sweep, nvram" `Quick
            test_quick_sweep_nvram;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "racing recoveries are idempotent" `Quick
            test_racing_recoveries;
          Alcotest.test_case "aborted replay is retried" `Quick
            test_recovery_abort_then_retry;
        ] );
    ]
