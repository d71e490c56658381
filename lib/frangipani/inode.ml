(** Inode access through the cache; the caller holds the file's lock
    in the appropriate mode. *)

let addr = Layout.inode_addr
let lock = Lockns.inode_lock

(* A pending access time ({!touch_atime} under a shared hold) is
   folded in, so local readers see it and the next logged update
   carries it. *)
let read ctx inum =
  let sector =
    Cache.read ctx.Ctx.cache ~lock:(lock inum) ~addr:(addr inum) ~len:Layout.inode_size
  in
  let ino = Ondisk.decode_inode sector in
  match Ctx.pending_atime ctx inum with
  | Some atime when atime > ino.Ondisk.atime -> { ino with atime }
  | Some _ | None -> ino

(** Logged full-inode update (one diff; version bumped). *)
let write ctx txn inum ino =
  Ctx.forget_atime ctx inum;
  Cache.update ctx.Ctx.cache txn ~lock:(lock inum) ~addr:(addr inum)
    ~off:Ondisk.off_itype ~bytes:(Ondisk.encode_inode ino)

(** Approximate atime (§2.1), never logged. A W holder dirties the
    cached sector, flushed lazily; under a shared hold nothing is
    written back — the time waits in {!Ctx.note_atime} for this
    server's next logged update of the inode, and is lost in a
    crash. *)
let touch_atime ctx inum =
  let now = Simkit.Sim.now () in
  match Locksvc.Clerk.holds ctx.Ctx.clerk ~lock:(lock inum) with
  | Some Locksvc.Types.W ->
    let b = Bytes.create 8 in
    Stdext.Codec.put_int b 0 now;
    Cache.update_nolog ctx.Ctx.cache ~lock:(lock inum) ~addr:(addr inum)
      ~off:Ondisk.off_atime ~bytes:b
  | Some Locksvc.Types.R | None -> Ctx.note_atime ctx inum now
