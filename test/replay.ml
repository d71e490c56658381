(* Replay driver for the scenario engine: re-runs one schedule
   bit-identically from its label or family:seed, prints the outcome
   counters, the first violated invariant and every failure, and with
   --timeline the engine's event log. Exits 1 if the run fails, 2 on
   bad usage.

     dune exec test/replay.exe -- hot_cutover
     dune exec test/replay.exe -- isolate_server --timeline
     dune exec test/replay.exe -- partition:42
     dune exec test/replay.exe -- soak:17 --duration 1200 --servers 16 *)

module Soak = Workloads.Soak
module Sim = Simkit.Sim

let usage =
  "replay (label | family:seed) [--timeline] [--duration S] [--servers N]\n\
   families: partition, reconf, soak; labels:\n  "
  ^ String.concat "\n  "
      (List.map
         (fun f ->
           Soak.family_name f ^ ": " ^ String.concat " " (Soak.labels f))
         Soak.families)

let spec_of_string a =
  match String.split_on_char ':' a with
  | [ fam; seed ] -> (
    match
      (List.find_opt (fun f -> Soak.family_name f = fam) Soak.families,
       int_of_string_opt seed)
    with
    | Some f, Some n when n >= 0 -> Some (Soak.Random (f, n))
    | _ -> None)
  | [ name ]
    when List.exists (fun f -> List.mem name (Soak.labels f)) Soak.families ->
    Some (Soak.Scripted name)
  | _ -> None

let () =
  let duration = ref 0.0 and servers = ref 0 and show_timeline = ref false in
  let spec = ref None in
  let bad () =
    prerr_endline ("usage: " ^ usage);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--timeline", Arg.Set show_timeline, "  dump the engine's event log");
         ( "--duration",
           Arg.Set_float duration,
           "S  simulated seconds of a seeded soak (default 3600)" );
         ("--servers", Arg.Set_int servers, "N  Frangipani server count override");
       ]
       (fun a ->
         match (!spec, spec_of_string a) with
         | None, Some sp -> spec := Some sp
         | _ -> raise (Arg.Bad a))
       usage
   with Arg.Bad _ | Arg.Help _ -> bad ());
  let spec = match !spec with Some sp -> sp | None -> bad () in
  let o =
    Soak.run
      ?duration:(if !duration > 0.0 then Some (Sim.sec !duration) else None)
      ?fs_servers:(if !servers > 0 then Some !servers else None)
      spec
  in
  let set l = String.concat "," (List.map string_of_int l) in
  Printf.printf
    "label=%s sim_hours=%.2f acked=%d failed=%d expired=%d crashed=%d \
     replays=%d\n"
    o.Soak.label o.Soak.sim_hours o.Soak.acked o.Soak.failed_ops
    o.Soak.expired_servers o.Soak.crashed_fs o.Soak.replays;
  Printf.printf
    "reconf: req=%d com=%d rejected=%d final={%s} expected={%s} cutover \
     max=%.1fs (bound %.1fs)\n"
    o.Soak.requested o.Soak.committed o.Soak.reconf_rejected
    (set o.Soak.final_active) (set o.Soak.expected_active)
    (Sim.to_sec o.Soak.max_cutover_ns)
    (Sim.to_sec o.Soak.cutover_bound_ns);
  Printf.printf
    "petal: pushes=%d wrong_epoch=%d refreshes=%d gc=%d degraded=%d \
     leftover=%d pending=%b stale_applied=%d\n"
    o.Soak.xfer_pushes o.Soak.wrong_epoch_rejects o.Soak.map_refreshes
    o.Soak.gc_chunks o.Soak.degraded_left o.Soak.leftover_chunks
    o.Soak.pending_left o.Soak.stale_applied;
  Printf.printf "net: cut_drops=%d loss_drops=%d rpc_retries=%d renew_misses=%d\n"
    o.Soak.nf.Cluster.Netfault.cut_drops o.Soak.nf.Cluster.Netfault.loss_drops
    o.Soak.rpc_retries o.Soak.renew_misses;
  Printf.printf
    "freeze: rejects=%d waits=%d  raw: errors=%d ok=%b waits=%d hot_writes=%d\n"
    o.Soak.freeze_rejects o.Soak.freeze_waits o.Soak.raw_errors o.Soak.raw_ok
    o.Soak.raw_freeze_waits o.Soak.hot_writes;
  Printf.printf
    "snapshots: ok=%d rejected=%d deleted=%d  pressure_stalls=%d\n"
    o.Soak.snapshots_ok o.Soak.snap_rejected o.Soak.snapshots_deleted
    o.Soak.log_pressure_stalls;
  Printf.printf "ambient: ops=%d failed=%d  checks=%d end=%d\n"
    o.Soak.ambient_ops o.Soak.ambient_failed o.Soak.checks_run o.Soak.end_ns;
  if !show_timeline then begin
    print_endline "timeline:";
    List.iter
      (fun (at, m) -> Printf.printf "  %8.1fs  %s\n" (Sim.to_sec at) m)
      o.Soak.timeline
  end;
  (match o.Soak.violations with
  | [] -> ()
  | (at, m) :: _ as vs ->
    Printf.printf "first violated invariant (t=%.1fs): %s\n" (Sim.to_sec at) m;
    Printf.printf "violations (%d):\n" (List.length vs);
    List.iter
      (fun (at, m) -> Printf.printf "  %8.1fs  %s\n" (Sim.to_sec at) m)
      vs);
  match Soak.failures o with
  | [] -> print_endline "CLEAN"
  | fs ->
    List.iter (Printf.printf "FAIL: %s\n") fs;
    exit 1
