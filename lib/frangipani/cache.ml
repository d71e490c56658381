open Stdext
open Simkit

type entry = {
  addr : int;
  mutable data : bytes;
  mutable dirty : bool;
  mutable gen : int; (* bumped on every modification (flush races) *)
  mutable rid : int; (* newest log record describing this entry *)
  mutable pins : int;
      (* > 0 while an uncommitted transaction has modified this
         sector: regular flushes skip it so the metadata can never
         reach Petal before its log record *)
  mutable flushing : bool; (* a write-back for this entry is in flight *)
  lock : int;
}

type t = {
  vd : Petal.Client.vdisk;
  wal : Wal.t;
  lease_ok : unit -> bool;
  tbl : (int, entry) Hashtbl.t;
  by_lock : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  inflight : (int, unit Sim.Ivar.t) Hashtbl.t; (* fetch dedup *)
  mutable ndirty : int;
  mutable wb_running : bool; (* background write-behind active *)
  flush_done : Sim.Condition.t; (* signalled as write-back runs complete *)
  mutable hits : int;
  mutable misses : int;
}

(* Start draining to Petal in the background once this much data is
   dirty, so streaming writes overlap with the flush (the kernel's
   write-behind). *)
let writeback_threshold = 256 (* entries; ~1 MB of 4 KB blocks *)

let mark_dirty t e =
  if not e.dirty then begin
    e.dirty <- true;
    t.ndirty <- t.ndirty + 1
  end;
  e.gen <- e.gen + 1

let mark_clean t e =
  if e.dirty then begin
    e.dirty <- false;
    t.ndirty <- t.ndirty - 1
  end

type txn = {
  mutable diffs : Wal.diff list;
  mutable touched : entry list;
  mutable post : (unit -> unit) list; (* run after commit (lock releases) *)
  mutable undo : (entry * bytes) list;
      (* pre-images (newest first): an aborted transaction must take
         its bytes back out of the cache, or the orphaned mutation is
         later flushed under an older — already durable — record and
         reaches Petal without ever being logged *)
}

let create ~vd ~wal ~lease_ok =
  { vd; wal; lease_ok; tbl = Hashtbl.create 4096; by_lock = Hashtbl.create 256;
    inflight = Hashtbl.create 64; ndirty = 0; wb_running = false;
    flush_done = Sim.Condition.create (); hits = 0; misses = 0 }

let lock_index t lock =
  match Hashtbl.find_opt t.by_lock lock with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 16 in
    Hashtbl.replace t.by_lock lock s;
    s

let rec entry t ~lock ~addr ~len =
  match Hashtbl.find_opt t.tbl addr with
  | Some e ->
    t.hits <- t.hits + 1;
    e
  | None -> (
    match Hashtbl.find_opt t.inflight addr with
    | Some iv ->
      (* Someone (often the read-ahead) is already fetching it. *)
      Sim.Ivar.read iv;
      entry t ~lock ~addr ~len
    | None ->
      t.misses <- t.misses + 1;
      let iv = Sim.Ivar.create () in
      Hashtbl.replace t.inflight addr iv;
      let finish () =
        Hashtbl.remove t.inflight addr;
        Sim.Ivar.fill iv ()
      in
      let data =
        try Petal.Client.read t.vd ~off:addr ~len
        with ex ->
          finish ();
          raise ex
      in
      let e = { addr; data; dirty = false; gen = 0; rid = 0; pins = 0; flushing = false; lock } in
      Hashtbl.replace t.tbl addr e;
      Hashtbl.replace (lock_index t lock) addr ();
      finish ();
      e)

let read t ~lock ~addr ~len = (entry t ~lock ~addr ~len).data

let with_txn t f =
  let txn = { diffs = []; touched = []; post = []; undo = [] } in
  let finish () = List.iter (fun g -> g ()) (List.rev txn.post) in
  let unpin () = List.iter (fun e -> e.pins <- e.pins - 1) txn.touched in
  let r =
    try f txn
    with e ->
      (* Abort: restore pre-images newest-first, so with repeated
         updates to one sector the oldest (pre-transaction) image
         wins. The diffs are dropped unlogged, so the cache must not
         keep the bytes either. *)
      List.iter (fun (en, img) -> Bytes.blit img 0 en.data 0 (Bytes.length img))
        txn.undo;
      unpin ();
      finish ();
      raise e
  in
  (match txn.diffs with
  | [] -> ()
  | diffs -> (
    match Wal.append t.wal (List.rev diffs) with
    | rid -> List.iter (fun e -> e.rid <- max e.rid rid) txn.touched
    | exception ex ->
      (* A synchronous flush failed (Petal unreachable): the record
         was still enqueued under the WAL's newest rid and will be
         retried, so stamp the touched entries conservatively — and
         run the pin releases and commit hooks (lock releases!)
         before re-raising, or the locks leak forever. *)
      List.iter (fun e -> e.rid <- max e.rid (Wal.last_rid t.wal)) txn.touched;
      unpin ();
      finish ();
      raise ex));
  unpin ();
  finish ();
  r

let on_commit txn g = txn.post <- g :: txn.post

let update t txn ~lock ~addr ~off ~bytes:data =
  assert (addr mod Layout.sector = 0 && off + Bytes.length data <= Layout.sector);
  let e = entry t ~lock ~addr ~len:Layout.sector in
  txn.undo <- (e, Bytes.copy e.data) :: txn.undo;
  let version = Codec.get_int e.data 0 + 1 in
  Codec.put_int e.data 0 version;
  Bytes.blit data 0 e.data off (Bytes.length data);
  mark_dirty t e;
  e.pins <- e.pins + 1;
  txn.diffs <- { Wal.addr; doff = off; data = Bytes.copy data; version } :: txn.diffs;
  txn.touched <- e :: txn.touched

let update_nolog t ~lock ~addr ~off ~bytes:data =
  let e = entry t ~lock ~addr ~len:Layout.sector in
  Codec.put_int e.data 0 (Codec.get_int e.data 0 + 1);
  Bytes.blit data 0 e.data off (Bytes.length data);
  mark_dirty t e

(* Partial user-data update: read-modify-write within a cached block
   of [len] bytes (fetched on miss). Not logged, no version field. *)
let update_data t ~lock ~addr ~len ~off ~bytes:data =
  let e = entry t ~lock ~addr ~len in
  Bytes.blit data 0 e.data off (Bytes.length data);
  mark_dirty t e

let write_data t ~lock ~addr ~bytes:data =
  match Hashtbl.find_opt t.tbl addr with
  | Some e ->
    t.hits <- t.hits + 1;
    Bytes.blit data 0 e.data 0 (Bytes.length data);
    mark_dirty t e
  | None ->
    (* A full-block overwrite needs no fetch, but it is still an
       entry-creation path: count the miss so {!stats} agrees across
       paths. *)
    t.misses <- t.misses + 1;
    let e = { addr; data = Bytes.copy data; dirty = false; gen = 0; rid = 0; pins = 0; flushing = false; lock } in
    mark_dirty t e;
    Hashtbl.replace t.tbl addr e;
    Hashtbl.replace (lock_index t lock) addr ()

let mem t addr = Hashtbl.mem t.tbl addr
let present t addr = Hashtbl.mem t.tbl addr || Hashtbl.mem t.inflight addr

(* Fetch several [(lock, addr, len)] runs with one Petal submission
   (the client fans the chunk pieces of every run out concurrently
   and coalesces adjacent pieces) and populate entries of [granule]
   bytes each — the batched miss path of a scatter-gather read.
   Granules already cached or being fetched elsewhere are skipped;
   readers of those wait on the other fetch through {!entry}. *)
let fill_runs ?(prefetch = false) ?(still_wanted = fun () -> true) t runs
    ~granule =
  (* Granules already cached (or being fetched) are hits of the
     read-ahead; misses are counted below, per entry this fetch
     actually fills — a failed read counts nothing, and granules
     someone else inserts while the fetch is in flight stay
     theirs. *)
  let prepared =
    List.filter_map
      (fun (lock, addr, len) ->
        if len <= 0 then None
        else begin
          let requested = List.init (len / granule) (fun i -> addr + (i * granule)) in
          let wanted = List.filter (fun a -> not (present t a)) requested in
          t.hits <- t.hits + (List.length requested - List.length wanted);
          if wanted = [] then None else Some (lock, addr, len, wanted)
        end)
      runs
  in
  if prepared <> [] then begin
    let ivs =
      List.concat_map
        (fun (_, _, _, wanted) -> List.map (fun a -> (a, Sim.Ivar.create ())) wanted)
        prepared
    in
    List.iter (fun (a, iv) -> Hashtbl.replace t.inflight a iv) ivs;
    let finish () =
      List.iter
        (fun (a, iv) ->
          Hashtbl.remove t.inflight a;
          Sim.Ivar.fill iv ())
        ivs
    in
    (* One submission for all runs: the Petal client fans the chunk
       pieces out concurrently and coalesces across run boundaries. *)
    let datas =
      try
        Petal.Client.await
          (Petal.Client.read_runs_async ~prefetch t.vd
             (List.map (fun (_, addr, len, _) -> (addr, len)) prepared))
      with ex ->
        finish ();
        raise ex
    in
    (* A cancelled prefetch (its lock was revoked mid-fetch) must not
       insert: the data may be stale by now. Waiters parked on the
       inflight ivars re-check the table and fetch for themselves. *)
    let insert = still_wanted () in
    List.iter2
      (fun (lock, addr, _, wanted) data ->
        List.iter
          (fun a ->
            if insert && not (Hashtbl.mem t.tbl a) then begin
              let e =
                { addr = a; data = Bytes.sub data (a - addr) granule; dirty = false;
                  gen = 0; rid = 0; pins = 0; flushing = false; lock }
              in
              t.misses <- t.misses + 1;
              Hashtbl.replace t.tbl a e;
              Hashtbl.replace (lock_index t lock) a ()
            end)
          wanted)
      prepared datas;
    finish ()
  end

(* Single-run convenience: sequential-read clustering over one
   contiguous range. *)
let fill_range t ~lock ~addr ~len ~granule = fill_runs t [ (lock, addr, len) ] ~granule

(* Write-back (§4, §9.2). Frangipani logs metadata only, so the
   write-ahead rule binds only logged entries ([rid > 0]): a flush
   submits its unlogged file data ([rid = 0]) at once, its logged
   entries once [Wal.ensure_flushed] has made their records durable,
   and then waits for both — the durability barrier of a fully serial
   flush without holding megabytes of data back for a log round trip.
   Entries are clustered into naturally-aligned runs of up to 64 KB,
   each batch one scatter-gather Petal write; backpressure is the Petal
   client's bounded in-flight pool, so a batch's submitting process
   throttles when the pipe is full. *)
let max_run = 65536

(* Cluster address-sorted dirty entries into contiguous runs that do
   not cross a naturally-aligned 64 KB boundary. *)
let group_runs dirty =
  List.fold_left
    (fun acc e ->
      match acc with
      | (last :: _ as run) :: rest
        when last.addr + Bytes.length last.data = e.addr
             && e.addr / max_run = last.addr / max_run ->
        (e :: run) :: rest
      | _ -> [ e ] :: acc)
    [] dirty
  |> List.rev_map List.rev

(* Mark address-sorted [entries] in flight, copy them into runs and
   submit the runs as ONE scatter-gather Petal write from a fresh
   process, so the caller never waits for a slot in the Petal client's
   in-flight pool: a flush starts its log write before its data takes
   those slots, and nothing it chose can change under it while it
   waits. Returns the wait for the write. The fresh process settles
   the entries when the write lands, so flushers waiting on them are
   not held up by the caller: those whose generation is unchanged
   become clean, and all leave the in-flight state even when the write
   failed. The runs' faultpoints are hit after the copy, so an action
   armed there cannot open a window between choosing and copying. *)
let submit t entries =
  if entries = [] then Fun.id
  else begin
    if not (t.lease_ok ()) then Errors.fail Errors.Eio;
    let runs = group_runs entries in
    let gens =
      List.map
        (fun e ->
          e.flushing <- true;
          (e, e.gen))
        entries
    in
    let extents =
      ref
        (List.map
           (fun run ->
             ((List.hd run).addr, Bytes.concat Bytes.empty (List.map (fun e -> e.data) run)))
           runs)
    in
    let settle r =
      List.iter
        (fun (e, g) ->
          e.flushing <- false;
          if Result.is_ok r && e.gen = g then mark_clean t e)
        gens;
      Sim.Condition.broadcast t.flush_done;
      r
    in
    (match List.iter (fun _ -> Faultpoint.hit "cache.write_run") runs with
    | () -> ()
    | exception ex ->
      ignore (settle (Error ex));
      raise ex);
    let landed = Sim.Ivar.create () in
    Sim.spawn (fun () ->
        (* Once submitted, the run copies belong to the Petal client,
           which drops each piece's bytes as it lands: the wait must
           not keep the whole batch reachable. *)
        let runs = !extents in
        extents := [];
        let r =
          match Petal.Client.write_runs_async t.vd runs with
          | h -> Petal.Client.wait h
          | exception ex -> Error ex
        in
        Sim.Ivar.fill landed (settle r));
    fun () -> Result.iter_error raise (Sim.Ivar.read landed)
  end

(* Write address-sorted dirty [candidates] back: the data batch, and
   the logged entries as a batch of their own, so a log reclaim that
   waits on one of them never waits on a data write. The logged entries
   and their generations are taken before anything can yield. The log
   wait yields, so each is checked again after it: one another flusher
   put in flight meanwhile is not sent twice (two writes of one sector
   in flight together could land out of order), and one modified
   meanwhile — by a transaction now committed or still open, which
   bumps the generation — is left dirty: the records this flush waited
   for already made the content it saw durable, and a later flush
   writes the newer content once its own record lands. Entries in
   flight elsewhere are waited for at the end (the durability
   barrier). A data block among them may have been rewritten after
   that other flush copied it, so the data still dirty after the wait
   is sent once more and waited for: an fsync must not return, nor a
   revoke give up its hold, before the newer bytes are on Petal. One
   round suffices, as anything in flight by then was copied after this
   call began. A pinned one is not sent: an open transaction modified
   it after this call began, and its record is not yet logged. A logged
   entry gets no second round: its record makes it durable, and a
   second log wait could recurse into the log flush a reclaim was
   called from. *)
let write_back t candidates =
  let busy, idle = List.partition (fun e -> e.flushing) candidates in
  let logged, data = List.partition (fun e -> e.rid > 0) idle in
  let rid = List.fold_left (fun acc e -> max acc e.rid) 0 logged in
  let seen = List.map (fun e -> (e, e.gen)) logged in
  let data_landed = submit t data in
  let logged_landed =
    try
      Wal.ensure_flushed t.wal rid;
      List.filter_map
        (fun (e, gen) -> if e.dirty && e.gen = gen && not e.flushing then Some e else None)
        seen
      |> submit t
    with ex -> fun () -> raise ex
  in
  (match
     List.filter_map
       (fun landed -> match landed () with () -> None | exception ex -> Some ex)
       [ logged_landed; data_landed ]
   with
  | ex :: _ -> raise ex
  | [] -> ());
  let await =
    List.iter (fun e ->
        while e.flushing do
          Sim.Condition.wait t.flush_done
        done)
  in
  await (busy @ logged);
  let rewritten = List.filter (fun e -> e.rid = 0 && e.dirty && e.pins = 0) busy in
  submit t (List.filter (fun e -> not e.flushing) rewritten) ();
  await rewritten

let flush_entries t entries =
  List.filter (fun e -> e.dirty && e.pins = 0) entries
  |> List.sort_uniq (fun a b -> compare a.addr b.addr)
  |> write_back t

let flush_lock t lock =
  match Hashtbl.find_opt t.by_lock lock with
  | None -> ()
  | Some s ->
    let entries =
      Hashtbl.fold
        (fun a () acc ->
          match Hashtbl.find_opt t.tbl a with Some e -> e :: acc | None -> acc)
        s []
    in
    flush_entries t entries

let invalidate_lock t lock =
  match Hashtbl.find_opt t.by_lock lock with
  | None -> ()
  | Some s ->
    Hashtbl.iter
      (fun a () ->
        match Hashtbl.find_opt t.tbl a with
        | Some e ->
          assert (not e.dirty);
          Hashtbl.remove t.tbl a
        | None -> ())
      s;
    Hashtbl.remove t.by_lock lock

let flush_all t =
  flush_entries t (Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [])

(* WAL-reclaim path: these records are already durable, so every
   selected entry is ready at once and no log flush is triggered (one
   would recurse into the in-progress flush that called us). Waiting out
   another flush's in-flight write cannot deadlock: a logged entry
   becomes [flushing] only once its record is durable, so that write
   never waits on the log; data entries ([rid = 0]), the only ones put
   in flight before the log lands, are never selected. *)
let flush_upto_rid t bound =
  assert (bound <= Wal.durable_rid t.wal);
  Hashtbl.fold
    (fun _ e acc -> if e.dirty && e.rid > 0 && e.rid <= bound then e :: acc else acc)
    t.tbl []
  |> List.sort_uniq (fun a b -> compare a.addr b.addr)
  |> write_back t

let drop_clean t =
  let doomed =
    Hashtbl.fold (fun a e acc -> if e.dirty then acc else (a, e.lock) :: acc) t.tbl []
  in
  List.iter
    (fun (a, lock) ->
      Hashtbl.remove t.tbl a;
      match Hashtbl.find_opt t.by_lock lock with
      | Some s -> Hashtbl.remove s a
      | None -> ())
    doomed

let discard_volatile t =
  Hashtbl.reset t.tbl;
  Hashtbl.reset t.by_lock;
  t.ndirty <- 0

let dirty_count t = t.ndirty

(* Background write-behind: once enough data is dirty, drain it to
   Petal concurrently with the writer, like the kernel's update/
   bdflush pair. The drainer runs an elevator loop — each sweep
   snapshots the dirty set (flush_entries sorts it by address and
   coalesces adjacent runs) — and keeps sweeping while the writer
   stays ahead of it, so a streaming write overlaps its entire drain
   instead of leaving everything after the first sweep's snapshot to
   the final sync. Failures leave the data dirty for the next sync. *)
let maybe_writeback t =
  if (not t.wb_running) && t.ndirty >= writeback_threshold then begin
    t.wb_running <- true;
    Sim.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> t.wb_running <- false)
          (fun () ->
            try
              let continue = ref true in
              while !continue && t.ndirty >= writeback_threshold / 2 do
                let before = t.ndirty in
                flush_entries t (Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []);
                (* No progress (everything left is pinned or being
                   flushed elsewhere): stop rather than spin. *)
                if t.ndirty >= before then continue := false
              done
            with _ -> ()))
  end
let stats t = (t.hits, t.misses)
