(* The exhaustive fault sweeps, one family per invocation:

     dune exec test/sweep_full.exe -- crash      every faultpoint hit of
                                                 the standard workload,
                                                 disk and NVRAM
     dune exec test/sweep_full.exe -- partition  11 scripted + 189 seeded
     dune exec test/sweep_full.exe -- reconf     12 scripted + 188 seeded
     dune exec test/sweep_full.exe -- soak       5 scripted + 20 seeds x
                                                 1 simulated hour

   --stride N thins the crash points or the seeded schedules; --seeds N
   and --hours H size the seeded part. Every failure prints the
   label that `test/replay.exe` replays it from, and a share of the
   runs is replayed here and must come out bit-identical. Minutes of
   work, so not part of `dune runtest`. Exits 1 on any failure, 2 on
   bad usage. *)

module Soak = Workloads.Soak
module Crash = Workloads.Crashsweep
module Sim = Simkit.Sim

let usage =
  "sweep_full (crash | partition | reconf | soak) [--stride N] [--seeds N] \
   [--hours H]"

let bad msg =
  Printf.eprintf "sweep_full: %s\nusage: %s\n" msg usage;
  exit 2

let crash_sweep ~stride =
  let sweep ~nvram label =
    let counting = Crash.run ~nvram () in
    (match Crash.failures counting with
    | [] -> ()
    | fs ->
      List.iter (Printf.eprintf "%s counting run: %s\n" label) fs;
      exit 1);
    let n = counting.Crash.total_hits in
    Printf.printf "%s sweep: %d crash points, stride %d\n%!" label n stride;
    List.iter
      (fun (site, c) -> Printf.printf "  %-22s %d\n" site c)
      counting.Crash.sites;
    let failed = ref 0 and ran = ref 0 in
    let k = ref 1 in
    while !k <= n do
      let o = Crash.run ~crash_at:!k ~nvram () in
      incr ran;
      (match Crash.failures o with
      | [] -> ()
      | fs ->
        incr failed;
        List.iter (Printf.printf "FAIL (%s) at hit %d: %s\n%!" label !k) fs);
      if !ran mod 25 = 0 then Printf.printf "  ... %d/%d\n%!" !k n;
      k := !k + stride
    done;
    Printf.printf "%s sweep: %d runs, %d failures\n%!" label !ran !failed;
    !failed
  in
  let disk = sweep ~nvram:false "disk" in
  disk + sweep ~nvram:true "nvram"

(* Run [f] in a child process and return whether it reported a
   failure. A finished simulation's heap is not given back to the OS,
   so a sweep of hour-long soaks in one process would keep growing;
   in a child per run, each holds only its own peak. *)
let failed_in_child label f =
  flush_all ();
  match Unix.fork () with
  | 0 -> exit (if f () then 1 else 0)
  | pid -> (
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> false
    | Unix.WEXITED 1 -> true
    | _ ->
      Printf.printf "FAIL (%s): the run died\n%!" label;
      true)

(* Every scripted label of [family], then [seeds] seeded schedules
   from [first] on (every [stride]th); every [replay_every]th run is
   re-run and must match bit for bit. *)
let engine_sweep family ~first ~seeds ~stride ~replay_every ?duration () =
  let failed = ref 0 and ran = ref 0 in
  let one spec =
    incr ran;
    let replay = !ran mod replay_every = 0 in
    if
      failed_in_child (Soak.label_of spec) (fun () ->
          let o = Soak.run ?duration spec in
          Printf.printf
            "  %-24s %5.2fh acked %5d failed %4d expired %d crashed %d reconf \
             %d/%d cutover %5.1fs checks %3d drops %5d retries %5d pushes %5d \
             gc %4d\n%!"
            o.Soak.label o.Soak.sim_hours o.Soak.acked o.Soak.failed_ops
            o.Soak.expired_servers o.Soak.crashed_fs o.Soak.committed
            o.Soak.requested
            (Sim.to_sec o.Soak.max_cutover_ns)
            o.Soak.checks_run
            Cluster.Netfault.(o.Soak.nf.cut_drops + o.Soak.nf.loss_drops)
            o.Soak.rpc_retries o.Soak.xfer_pushes o.Soak.gc_chunks;
          let fs =
            Soak.failures o
            @
            if replay && Soak.run ?duration spec <> o then
              [ "replay not bit-identical" ]
            else []
          in
          List.iter (Printf.printf "FAIL (%s): %s\n%!" o.Soak.label) fs;
          fs <> [])
    then incr failed
  in
  let scripted = Soak.labels family in
  Printf.printf "%s sweep: %d scripted + %d seeded schedules, stride %d\n%!"
    (Soak.family_name family) (List.length scripted) seeds stride;
  List.iter (fun name -> one (Soak.Scripted name)) scripted;
  let n = ref first in
  while !n < first + seeds do
    one (Soak.Random (family, !n));
    n := !n + stride
  done;
  Printf.printf "%s sweep: %d runs, %d failures\n%!" (Soak.family_name family)
    !ran !failed;
  !failed

let () =
  let stride = ref 1 and seeds = ref None and hours = ref 1.0 in
  let family = ref None in
  (try
     Arg.parse_argv Sys.argv
       [
         ( "--stride",
           Arg.Set_int stride,
           "N  run every Nth crash point or seed (default 1)" );
         ( "--seeds",
           Arg.Int (fun n -> seeds := Some n),
           "N  seeded schedules (default: 200 runs in all; soak 20)" );
         ( "--hours",
           Arg.Set_float hours,
           "H  simulated hours per soak seed (default 1)" );
       ]
       (fun a ->
         if !family <> None then raise (Arg.Bad ("extra argument " ^ a));
         family := Some a)
       usage
   with Arg.Bad msg | Arg.Help msg ->
     bad (List.hd (String.split_on_char '\n' msg)));
  if !stride < 1 then bad "--stride must be at least 1";
  (match !seeds with
  | Some n when n < 0 -> bad "--seeds must not be negative"
  | _ -> ());
  if !hours <= 0.0 then bad "--hours must be positive";
  let seeds_or n = Option.value !seeds ~default:n in
  let engine f =
    engine_sweep f ~first:1
      ~seeds:(seeds_or (200 - List.length (Soak.labels f)))
      ~stride:!stride ~replay_every:20 ()
  in
  let failed =
    match !family with
    | Some "crash" -> crash_sweep ~stride:!stride
    | Some "partition" -> engine Soak.Partition
    | Some "reconf" -> engine Soak.Reconf
    | Some "soak" ->
      engine_sweep Soak.Composed ~first:0 ~seeds:(seeds_or 20) ~stride:!stride
        ~replay_every:7
        ~duration:(Sim.sec (3600.0 *. !hours))
        ()
    | Some f -> bad ("unknown family " ^ f)
    | None -> bad "missing family"
  in
  if failed > 0 then exit 1
