(** The schedule vocabulary of the {!Soak} scenario engine, and the
    seeded draws every schedule family shares.

    A schedule is a timed script over one cluster: nemesis windows,
    Petal add/remove, Petal faultpoint crashes, Frangipani crashes,
    snapshot barriers, log-pressure bursts, hot writers, ambient
    traffic and quiesce checkpoints. Three families produce it — the
    partition sweep ({!Partsweep}), the reconfiguration sweep
    ({!Reconfsweep}) and the composed soak ({!Soak}) — each from a
    table of named scripted cases and a seeded generator. *)

open Simkit
open Cluster

type family = Partition | Reconf | Composed

type spec = Scripted of string | Random of family * int

type reconf_op = Add of int | Remove of int

type crash_spec = {
  site : string;  (** faultpoint site to arm *)
  at_hit : int;  (** 1-based hit of that site (counted after enable) *)
  victim : int;  (** Petal member index whose host crashes *)
  restart_after : Sim.time;
}

type schedule = {
  duration : Sim.time;  (** workloads stop at this simulated offset *)
  reconfigs : (Sim.time * reconf_op) list;
  nemesis : (Sim.time * string * (Netfault.t -> unit)) list;
  fs_crashes : Sim.time list;  (** k-th entry crashes the k-th victim server *)
  petal_crashes : crash_spec list;
  snapshots : Sim.time list;  (** barrier + ro-mount check + delete *)
  pressure : Sim.time list;  (** WAL log-pressure burst start times *)
  hot : (Sim.time * Sim.time) option;  (** FS hot-chunk writer window *)
  raw_hot : (Sim.time * Sim.time) option;  (** raw-Petal hot writer window *)
  ambient : (Sim.time * int) list;  (** (start, round index) *)
  checkpoints : Sim.time list;
  cutover_bound : Sim.time;  (** max allowed pending->commit latency *)
}

(* Addresses the schedules play with: every Petal member (the lock
   servers are co-located on the same machines, Figure 2) and the
   tracked Frangipani servers. *)
type roles = { petal : Net.addr array; tracked : Net.addr array }

let s = Sim.sec

let no_schedule duration =
  {
    duration;
    reconfigs = [];
    nemesis = [];
    fs_crashes = [];
    petal_crashes = [];
    snapshots = [];
    pressure = [];
    hot = None;
    raw_hot = None;
    ambient = [];
    checkpoints = [];
    cutover_bound = s 60.0;
  }

(* --- seeded draws -------------------------------------------------------- *)

(** The fault kinds a family may draw for one nemesis window. *)
type fault =
  | Isolate_tracked  (** tracked server 0 from every Petal/lock machine *)
  | Isolate_petal  (** one Petal member from everyone *)
  | Cut_tracked  (** a tracked server <-> a Petal member, both ways *)
  | Oneway_tracked  (** one direction of that link, either way *)
  | Cut_petals  (** Petal member <-> Petal member *)
  | Split_petal  (** one Petal member from the other members *)
  | Loss of int * int  (** drop (lo + [0, spread)) % of all messages *)
  | Delay of int * int  (** 5 + [0, spread) ms delay, [0, jitter) ms jitter *)

let draw_fault rng (r : roles) kind =
  let np = Array.length r.petal in
  let draw = Random.State.int rng in
  match kind with
  | Isolate_tracked ->
    let cluster = Array.to_list r.petal in
    ( "isolate tracked 0",
      (fun nf -> Netfault.partition nf [ r.tracked.(0) ] cluster),
      Netfault.heal_all )
  | Isolate_petal ->
    let i = draw np in
    ( Printf.sprintf "isolate petal %d" i,
      (fun nf -> Netfault.isolate nf r.petal.(i)),
      Netfault.heal_all )
  | Cut_tracked ->
    let i = draw (Array.length r.tracked) in
    let j = draw np in
    ( Printf.sprintf "cut tracked %d <-> petal %d" i j,
      (fun nf -> Netfault.cut nf r.tracked.(i) r.petal.(j)),
      Netfault.heal_all )
  | Oneway_tracked ->
    let j = draw np in
    let a = r.tracked.(0) and p = r.petal.(j) in
    if Random.State.bool rng then
      ( Printf.sprintf "cut tracked 0 -> petal %d" j,
        (fun nf -> Netfault.cut ~oneway:true nf a p),
        Netfault.heal_all )
    else
      ( Printf.sprintf "cut petal %d -> tracked 0" j,
        (fun nf -> Netfault.cut ~oneway:true nf p a),
        Netfault.heal_all )
  | Cut_petals ->
    let i = draw np in
    let j = (i + 1 + draw (np - 1)) mod np in
    ( Printf.sprintf "cut petal %d <-> petal %d" i j,
      (fun nf -> Netfault.cut nf r.petal.(i) r.petal.(j)),
      Netfault.heal_all )
  | Split_petal ->
    let i = draw np in
    let rest = List.filter (( <> ) r.petal.(i)) (Array.to_list r.petal) in
    ( Printf.sprintf "split petal %d from its peers" i,
      (fun nf -> Netfault.partition nf [ r.petal.(i) ] rest),
      Netfault.heal_all )
  | Loss (lo, spread) ->
    let drop =
      (float_of_int lo /. 100.0) +. (float_of_int (draw spread) /. 100.0)
    in
    ( Printf.sprintf "%.0f%% loss" (drop *. 100.0),
      (fun nf -> Netfault.shape ~drop nf),
      Netfault.clear_shaping )
  | Delay (spread, jitter) ->
    let delay = Sim.ms (5 + draw spread) in
    let jitter = Sim.ms (draw jitter) in
    ( "delay/jitter",
      (fun nf -> Netfault.shape ~delay ~jitter nf),
      Netfault.clear_shaping )

(** [count] sequential nemesis windows from [from] on: each starts up
    to [lead] ms after the previous one healed (plus [gap]), lasts
    [len] plus up to [spread] ms, and injects a fault drawn from
    [kinds]. Returns the fault and heal entries, newest first, and the
    time the last window healed plus [gap]. *)
let draw_windows rng r ~kinds ~from ~count ~lead ~len ~spread ~gap =
  let wt = ref from and acc = ref [] in
  for _ = 1 to count do
    let start = !wt + Sim.ms (Random.State.int rng lead) in
    let dur = len + Sim.ms (Random.State.int rng spread) in
    let desc, fault, heal =
      draw_fault rng r kinds.(Random.State.int rng (Array.length kinds))
    in
    acc := (start + dur, "heal: " ^ desc, heal) :: (start, desc, fault) :: !acc;
    wt := start + dur + gap
  done;
  (!acc, !wt)

(** One membership change over the [active]/[standby] member sets
    (updated in place), never shrinking [active] below [min_active]. *)
let draw_reconf rng ~min_active active standby =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let can_add = !standby <> [] and can_rm = List.length !active > min_active in
  if can_add && ((not can_rm) || Random.State.bool rng) then begin
    let i = pick !standby in
    standby := List.filter (( <> ) i) !standby;
    active := List.sort_uniq compare (i :: !active);
    Add i
  end
  else begin
    let i = pick !active in
    active := List.filter (( <> ) i) !active;
    standby := List.sort_uniq compare (i :: !standby);
    Remove i
  end

(* The Petal faultpoint sites a seeded crash may be armed at. *)
let crash_sites =
  [| "petal.resync_push"; "petal.chunk_write"; "petal.mgmt_propose";
     "petal.cutover_propose" |]

let by_time l = List.sort (fun (t1, _, _) (t2, _, _) -> compare t1 t2) l
