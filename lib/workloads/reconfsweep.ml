(** The reconfiguration family of the {!Soak} scenario engine: a
    five-member Petal cluster starts with members 0, 1, 2 active, one
    tracked Frangipani server [a] runs a paced, ledger-acked workload,
    and the engine's reconfiguration driver adds and removes Petal
    members mid-flight — each change Paxos-agreed, each handoff
    streamed in the background, each cutover an atomic map-epoch bump.

    Schedules compose the membership changes with nemesis windows
    (partitions that isolate the joining member, loss, delay, link
    cuts) and with Petal faultpoint crashes (a transfer source dies
    mid-stream, the proposing server dies inside [Add_server], the
    cutover proposer dies; the victim restarts a few seconds later).
    On top of the engine's generic checks — every requested change
    commits, the final map is the expected member set, acked data
    survives a post-cutover write and a fresh-server verify, no chunk
    is left on a non-owner — the scripted cases assert that a join
    streams chunks and makes clients re-route, a drain-out is
    garbage-collected, and three back-to-back changes reach epoch 3. *)

open Simkit
open Cluster
open Schedule

(* The workload runs until the final [Netfault.clear] at 60 s, so
   reconfigurations in [4 s, 36 s] and fault windows in [2 s, 45 s]
   overlap live traffic. *)
let scripted_schedule name (r : roles) =
  let base = { (no_schedule (s 60.0)) with cutover_bound = s 180.0 } in
  let change ?(nemesis = []) ?crash reconfigs =
    {
      base with
      reconfigs = List.map (fun (t, op) -> (s t, op)) reconfigs;
      nemesis = List.map (fun (t, desc, f) -> (s t, desc, f)) nemesis;
      petal_crashes = Option.to_list crash;
    }
  in
  let isolate t i =
    ( t,
      Printf.sprintf "isolate petal %d" i,
      fun nf -> Netfault.isolate nf r.petal.(i) )
  in
  let heal t = (t, "heal", Netfault.heal_all) in
  let clear_shaping t = (t, "clear shaping", Netfault.clear_shaping) in
  let crash site ~at_hit ~victim restart =
    { site; at_hit; victim; restart_after = s restart }
  in
  match name with
  | "add_plain" ->
    (* One standby joins on a healthy network: background stream,
       atomic cutover, clients re-route via [Wrong_epoch]. *)
    change [ (6.0, Add 3) ]
  | "remove_plain" ->
    (* One member drains out; its whole store must migrate and then
       be garbage-collected off it. *)
    change [ (6.0, Remove 0) ]
  | "add_then_remove" -> change [ (5.0, Add 3); (30.0, Remove 1) ]
  | "back_to_back" ->
    (* Three changes in quick succession: the cluster must serialize
       them, each handoff committing before the next is proposed. *)
    change [ (4.0, Add 3); (18.0, Add 4); (34.0, Remove 0) ]
  | "add_joiner_partitioned" ->
    (* The joining member is partitioned from everyone mid-transfer:
       pushes to it fail (sources stay degraded), the cutover is held
       back until the heal, then the handoff completes. *)
    change ~nemesis:[ isolate 8.0 3; heal 28.0 ] [ (5.0, Add 3) ]
  | "add_joiner_dark_start" ->
    (* The member is already unreachable when it is proposed. *)
    change ~nemesis:[ isolate 2.0 3; heal 24.0 ] [ (6.0, Add 3) ]
  | "remove_under_loss" ->
    (* 12% of every message dropped while a member drains out. *)
    change
      ~nemesis:
        [
          (2.0, "12% loss", fun nf -> Netfault.shape ~drop:0.12 nf);
          clear_shaping 40.0;
        ]
      [ (6.0, Remove 2) ]
  | "add_under_delay" ->
    change
      ~nemesis:
        [
          ( 2.0,
            "delay 25 ms, jitter 15 ms",
            fun nf -> Netfault.shape ~delay:(Sim.ms 25) ~jitter:(Sim.ms 15) nf );
          clear_shaping 40.0;
        ]
      [ (6.0, Add 4) ]
  | "flap_during_add" ->
    (* An old owner flaps three times while the handoff streams. *)
    change
      ~nemesis:
        (List.concat
           (List.init 3 (fun i ->
                let t0 = 7.0 +. (6.0 *. float_of_int i) in
                [ isolate t0 0; heal (t0 +. 3.0) ])))
      [ (5.0, Add 3) ]
  | "owner_dies_mid_transfer" ->
    (* A transfer source crashes between pushes; the other old owner
       carries the handoff, the victim restarts and catches up. *)
    change
      ~crash:(crash "petal.resync_push" ~at_hit:3 ~victim:0 12.0)
      [ (5.0, Add 3) ]
  | "proposer_dies_mid_add" ->
    (* The server handling the management RPC crashes after receiving
       it but before proposing: the client times out and re-issues
       through the next member (idempotent at apply). *)
    change
      ~crash:(crash "petal.mgmt_propose" ~at_hit:1 ~victim:0 10.0)
      [ (5.0, Add 3) ]
  | "cutover_proposer_dies" ->
    (* A member crashes at the instant the drained transfer is first
       proposed for cutover; every member polls independently, so a
       survivor's duplicate proposal commits it. *)
    change
      ~crash:(crash "petal.cutover_propose" ~at_hit:1 ~victim:1 10.0)
      [ (5.0, Add 3) ]
  | _ -> invalid_arg ("reconfsweep: unknown scripted schedule " ^ name)

let scripted_labels =
  [
    "add_plain"; "remove_plain"; "add_then_remove"; "back_to_back";
    "add_joiner_partitioned"; "add_joiner_dark_start"; "remove_under_loss";
    "add_under_delay"; "flap_during_add"; "owner_dies_mid_transfer";
    "proposer_dies_mid_add"; "cutover_proposer_dies";
  ]

(* Seed-generated schedules: 1-2 membership changes spaced far enough
   apart to serialize naturally, 0-2 nemesis windows, and a
   fifty-fifty chance of one crash at a seeded faultpoint hit with a
   restart a few seconds later. *)
let random_schedule seed (r : roles) =
  let rng = Random.State.make [| seed; 0xc0f; 0x5eed |] in
  let active = ref [ 0; 1; 2 ] and standby = ref [ 3; 4 ] in
  let reconfigs = ref [] in
  let t = ref (s 4.0) in
  for _ = 1 to 1 + Random.State.int rng 2 do
    let at = !t + Sim.ms (Random.State.int rng 6000) in
    reconfigs := (at, draw_reconf rng ~min_active:2 active standby) :: !reconfigs;
    t := at + s 14.0 + Sim.ms (Random.State.int rng 8000)
  done;
  let nemesis, _ =
    draw_windows rng r
      ~kinds:
        [| Isolate_petal; Cut_tracked; Cut_petals; Loss (5, 12); Delay (30, 15) |]
      ~from:(s 3.0)
      ~count:(Random.State.int rng 3)
      ~lead:5000 ~len:(s 3.0) ~spread:15_000 ~gap:(s 1.0)
  in
  let petal_crashes =
    if Random.State.int rng 2 = 0 then []
    else
      let site = crash_sites.(Random.State.int rng (Array.length crash_sites)) in
      let at_hit = 1 + Random.State.int rng 6 in
      let victim = Random.State.int rng 5 in
      let restart_after = s 8.0 + Sim.ms (Random.State.int rng 8000) in
      [ { site; at_hit; victim; restart_after } ]
  in
  {
    (no_schedule (s 60.0)) with
    reconfigs = List.rev !reconfigs;
    nemesis = by_time nemesis;
    petal_crashes;
    cutover_bound = s 180.0;
  }
