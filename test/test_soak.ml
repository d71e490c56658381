(* The quick soak subset: the scripted freeze/interlock scenarios,
   one short seeded round at reduced scale, and the determinism
   contract. The 20-seed x 1-simulated-hour soak is
   `sweep_full.exe soak`, run from the verify workflow. *)

module Soak = Workloads.Soak
module Sim = Simkit.Sim

let check_clean what (o : Soak.outcome) =
  Alcotest.(check (list string)) what [] (Soak.failures o)

(* The drain-time write freeze: a sustained hot-chunk writer spans the
   whole handoff, yet the cutover commits within the bound — and the
   writer was provably frozen at least once (otherwise the case shows
   nothing). Bounded cutover is asserted inside [failures]. The
   determinism case replays this same run. *)
let hot_cutover = lazy (Soak.run (Soak.Scripted "hot_cutover"))

let test_hot_cutover () =
  let o = Lazy.force hot_cutover in
  check_clean "hot_cutover" o;
  Alcotest.(check bool)
    (Printf.sprintf "freeze engaged (rejects %d)" o.Soak.freeze_rejects)
    true
    (o.Soak.freeze_rejects > 0);
  Alcotest.(check bool)
    (Printf.sprintf "cutover %.1fs within 30s bound"
       (Sim.to_sec o.Soak.max_cutover_ns))
    true
    (o.Soak.max_cutover_ns <= Sim.sec 30.0)

(* A writer frozen at handoff drain time must retry invisibly through
   the Wrong_epoch route — no error surfaces, its data lands. *)
let test_freeze_retry () =
  let o = Soak.run (Soak.Scripted "freeze_retry") in
  check_clean "freeze_retry" o;
  Alcotest.(check int) "no surfaced errors" 0 o.Soak.raw_errors;
  Alcotest.(check bool) "rode through the freeze" true
    (o.Soak.raw_freeze_waits > 0)

(* The §8 snapshot / reconfiguration interlock, in both orders. *)
let test_snapshot_reconf_interlock () =
  let o = Soak.run (Soak.Scripted "snap_during_reconf") in
  check_clean "snap_during_reconf" o;
  let o = Soak.run (Soak.Scripted "reconf_during_snap") in
  check_clean "reconf_during_snap" o

(* One full random-style round with everything composed. *)
let test_composed_quick () =
  check_clean "composed_quick" (Soak.run (Soak.Scripted "composed_quick"))

(* A short seeded soak at reduced scale: one 10-minute round on a
   16-server cluster. *)
let test_seeded_round () =
  check_clean "soak:1"
    (Soak.run ~duration:(Sim.sec 600.0) ~fs_servers:16
       (Soak.Random (Soak.Composed, 1)))

(* Same spec, twice: every outcome field — timeline, violations and
   the simulated end time included — must match, or a failing seed
   from the full soak would be unreproducible in replay.exe. *)
let test_deterministic_replay () =
  let o' = Soak.run (Soak.Scripted "hot_cutover") in
  Alcotest.(check bool) "scripted replay is bit-identical" true
    (Lazy.force hot_cutover = o');
  let seeded () =
    Soak.run ~duration:(Sim.sec 600.0) ~fs_servers:16
      (Soak.Random (Soak.Composed, 2))
  in
  let r = seeded () in
  let r' = seeded () in
  Alcotest.(check bool) "seeded replay is bit-identical" true (r = r')

let () =
  Alcotest.run "soak"
    [
      ( "soak",
        [
          Alcotest.test_case "hot-chunk cutover is bounded" `Quick
            test_hot_cutover;
          Alcotest.test_case "frozen writer retries invisibly" `Quick
            test_freeze_retry;
          Alcotest.test_case "snapshot/reconf interlock" `Quick
            test_snapshot_reconf_interlock;
          Alcotest.test_case "composed quick round" `Quick test_composed_quick;
          Alcotest.test_case "seeded round" `Quick test_seeded_round;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
        ] );
    ]
