(* The partition and reconfiguration families of the scenario engine:
   every scripted schedule, a few seeded ones (the full 200-schedule
   sweeps are `sweep_full.exe partition` and `sweep_full.exe reconf`),
   and the determinism contract — the same spec must replay
   bit-identically, or a label in a failure report would be
   unreproducible.

   [Soak.failures] carries each label's own teeth: isolate_server must
   expire the lease after missed renewals, isolate_brief must not,
   lossy must show nemesis drops and RPC retries, add_plain must
   stream chunks and make a client refresh its map after Wrong_epoch,
   remove_plain must garbage-collect the leaver, and back_to_back must
   commit three epochs. *)

module Soak = Workloads.Soak

let check (o : Soak.outcome) =
  Alcotest.(check (list string)) o.Soak.label [] (Soak.failures o)

let check_all specs = List.iter (fun spec -> check (Soak.run spec)) specs
let scripted = List.map (fun l -> Soak.Scripted l)
let shaping_labels = [ "lossy"; "lossy_cut"; "slow" ]

let crash_labels =
  [ "owner_dies_mid_transfer"; "proposer_dies_mid_add"; "cutover_proposer_dies" ]

let replayed =
  [
    Soak.Scripted "flap"; Soak.Random (Soak.Partition, 7);
    Soak.Scripted "add_then_remove"; Soak.Random (Soak.Reconf, 5);
  ]

(* Every label the cases below do not run. *)
let test_scripted () =
  Soak.labels Soak.Partition @ Soak.labels Soak.Reconf
  |> scripted
  |> List.filter (fun spec ->
         not
           (List.mem spec (replayed @ scripted (shaping_labels @ crash_labels))))
  |> check_all

(* Loss and delay exercise the retry path end to end: everything
   still lands. *)
let test_lossy () = check_all (scripted shaping_labels)

(* A transfer source dying mid-stream, the proposing server dying
   inside the management call, and the cutover proposer dying must
   all leave the handoff able to finish. *)
let test_crash_schedules () = check_all (scripted crash_labels)

(* Same spec, twice: every field of the outcome — including the
   simulated end time, the timeline and the nemesis counters — must
   match. *)
let test_deterministic_replay () =
  List.iter
    (fun spec ->
      let o = Soak.run spec in
      check o;
      Alcotest.(check bool) (o.Soak.label ^ " replays bit-identically") true
        (o = Soak.run spec))
    replayed

let test_random_seeds () =
  check_all
    (List.concat_map
       (fun f -> List.map (fun n -> Soak.Random (f, n)) [ 1; 2; 3 ])
       [ Soak.Partition; Soak.Reconf ])

let () =
  Alcotest.run "sweeps"
    [
      ( "sweep",
        [
          Alcotest.test_case "scripted schedules" `Quick test_scripted;
          Alcotest.test_case "lossy network, retries" `Quick test_lossy;
          Alcotest.test_case "crash schedules" `Quick test_crash_schedules;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "seeded schedules" `Quick test_random_seeds;
        ] );
    ]
