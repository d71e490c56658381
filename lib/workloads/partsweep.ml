(** The partition family of the {!Soak} scenario engine: network
    nemesis schedules over a three-machine Petal/lock cluster and one
    tracked Frangipani server [a] running a paced, ledger-acked
    workload.

    The faults isolate [a] from the service machines, split the Petal
    replica set, flap links, drop or delay a fraction of all messages,
    and cut single directions of single links. Every schedule heals;
    the engine then checks the §5/§6 guarantees — no lapsed-stamp
    write reached a disk, every acked op survives, the resync backlog
    drains, the volume is fsck-clean — and, for ["isolate_server"],
    that the lease really expired and a fresh server replayed [a]'s
    log. *)

open Simkit
open Cluster
open Schedule

(* Times are relative to simulation start; the workload runs until
   the final [Netfault.clear] at 70 s, so windows in [2 s, 60 s]
   overlap live traffic. *)
let scripted_schedule name (r : roles) =
  let a = r.tracked.(0) and p0 = r.petal.(0) in
  let rest = List.tl (Array.to_list r.petal) in
  let cut_cluster =
    ("isolate a from the cluster", fun nf ->
      Netfault.partition nf [ a ] (Array.to_list r.petal))
  in
  let heal = ("heal", Netfault.heal_all) in
  let clear_shaping = ("clear shaping", Netfault.clear_shaping) in
  let at t (desc, f) = (s t, desc, f) in
  let windows evs = { (no_schedule (s 70.0)) with nemesis = evs } in
  match name with
  | "isolate_server" ->
    (* [a] loses everything for 45 s: renewals fail, the lease
       expires, the clerk poisons; recovery replays the dead log. *)
    windows [ at 5.0 cut_cluster; at 50.0 heal ]
  | "isolate_brief" ->
    (* 10 s outage, well inside the lease: ops stall and resume. *)
    windows [ at 5.0 cut_cluster; at 15.0 heal ]
  | "split_petal" ->
    (* Replica set split: petal0 cannot reach its successor, so
       forwarded writes degrade and resync must drain after heal. *)
    windows
      [
        at 3.0 ("split petal0", fun nf -> Netfault.partition nf [ p0 ] rest);
        at 40.0 heal;
      ]
  | "client_petal0" ->
    (* [a] loses one service machine: piece failover + suspect
       pinning on the Petal side, lock groups owned by petal0 stall
       until heal, renewals keep succeeding via the other two. *)
    windows
      [ at 3.0 ("cut a <-> petal0", fun nf -> Netfault.cut nf a p0); at 45.0 heal ]
  | "isolate_petal0" ->
    windows
      [ at 3.0 ("isolate petal0", fun nf -> Netfault.isolate nf p0); at 45.0 heal ]
  | "oneway_to_petal0" ->
    (* Asymmetric: [a]'s datagrams to petal0 vanish, replies and
       grants still flow. *)
    windows
      [
        at 3.0 ("cut a -> petal0", fun nf -> Netfault.cut ~oneway:true nf a p0);
        at 45.0 heal;
      ]
  | "oneway_from_petal0" ->
    (* Asymmetric the other way: petal0 executes requests but its
       replies are lost — retries must not double-apply. *)
    windows
      [
        at 3.0 ("cut petal0 -> a", fun nf -> Netfault.cut ~oneway:true nf p0 a);
        at 45.0 heal;
      ]
  | "flap" ->
    (* Six 3 s outages, 3 s apart: renewal backoff and request
       retransmission recover each time, no expiry. *)
    windows
      (List.concat
         (List.init 6 (fun i ->
              let t0 = 5.0 +. (6.0 *. float_of_int i) in
              [ at t0 cut_cluster; at (t0 +. 3.0) heal ])))
  | "lossy" ->
    (* 15% of every message dropped for 48 s: retry with backoff
       carries renewals and RPCs through. *)
    windows
      [
        at 2.0 ("15% loss", fun nf -> Netfault.shape ~drop:0.15 nf);
        at 50.0 clear_shaping;
      ]
  | "slow" ->
    (* +30 ms / ±20 ms on every message: everything succeeds, later. *)
    windows
      [
        at 2.0
          ( "delay 30 ms, jitter 20 ms",
            fun nf -> Netfault.shape ~delay:(Sim.ms 30) ~jitter:(Sim.ms 20) nf );
        at 50.0 clear_shaping;
      ]
  | "lossy_cut" ->
    (* A lossy network and a dead link at the same time. *)
    windows
      [
        at 2.0 ("10% loss", fun nf -> Netfault.shape ~drop:0.10 nf);
        at 4.0 ("cut a <-> petal0", fun nf -> Netfault.cut nf a p0);
        at 40.0 heal;
        at 48.0 clear_shaping;
      ]
  | _ -> invalid_arg ("partsweep: unknown scripted schedule " ^ name)

let scripted_labels =
  [
    "isolate_server"; "isolate_brief"; "split_petal"; "client_petal0";
    "isolate_petal0"; "oneway_to_petal0"; "oneway_from_petal0"; "flap";
    "lossy"; "slow"; "lossy_cut";
  ]

(* Seed-generated schedules: 2-4 sequential fault windows drawn from
   the same kinds as the scripted ones, all healed by ~140 s. *)
let random_schedule seed (r : roles) =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let nemesis, healed =
    draw_windows rng r
      ~kinds:
        [| Isolate_tracked; Cut_tracked; Oneway_tracked; Split_petal;
           Loss (5, 15); Delay (40, 20) |]
      ~from:(s 2.0)
      ~count:(2 + Random.State.int rng 3)
      ~lead:4000 ~len:(s 3.0) ~spread:27_000 ~gap:(Sim.ms 500)
  in
  { (no_schedule (healed + s 5.0)) with nemesis = by_time nemesis }
