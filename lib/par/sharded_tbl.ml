(* A sharded concurrent hash table with a claim protocol: the bucket-
   ownership idiom (each key hashes to exactly one shard, each shard is
   protected by its own mutex) keeps critical sections a few instructions
   long and spreads contention across [shard_count] locks, while the
   [Claimed]/[Done] slot states make "exactly one caller computes each
   key" a table-level guarantee rather than a caller convention.

   Shards hold [Slice_tbl]s so the hot probe can run on an encode-buffer
   slice: [find_or_claim_slice] hashes the slice once, routes on the high
   bits and probes the shard with the same hash, and only materializes
   an owned key string when the probe installs a fresh claim — the
   claimant gets that string back (it must keep it to [resolve] later).
   Shard routing uses bits *above* the ones [Slice_tbl] uses for its
   bucket index: with low bits every key in a shard would share them and
   pile into a fraction of the buckets. *)

type 'a slot = Claimed of int | Done of 'a

type 'a shard = { lock : Mutex.t; tbl : 'a slot Slice_tbl.t }

type 'a t = { shards : 'a shard array; mask : int }

let default_shards = 128

let rec round_pow2 c n = if c >= n then c else round_pow2 (c * 2) n

let create ?(shards = default_shards) () =
  let n = round_pow2 1 (max 1 shards) in
  {
    shards =
      Array.init n (fun _ ->
          { lock = Mutex.create (); tbl = Slice_tbl.create ~size:512 () });
    mask = n - 1;
  }

let shard_count t = Array.length t.shards
let[@inline] shard_of_hash t h = t.shards.((h lsr 17) land t.mask)

type 'a slice_claim = [ `Value of 'a | `Busy of int | `Claimed of string ]

(* The hit path takes no lock. A [Done] value is written once, under
   the shard lock, and never changed, so an unlocked read that sees one
   sees the final answer; a stale view of the shard can only miss (an
   absent key or a [Claimed] slot), and a miss takes the lock and
   decides there. Claims are only ever installed under the lock.
   [Slice_tbl.find_slice_hashed] reads the bucket array once and indexes
   it by its own length, so a concurrent [grow] cannot push the read out
   of bounds. *)
let find_or_claim_slice t data ~len ~owner : 'a slice_claim =
  let hash = Slice_tbl.hash_slice data len in
  let s = shard_of_hash t hash in
  match Slice_tbl.find_slice_hashed s.tbl ~hash data ~len with
  | Some { Slice_tbl.value = Done v; _ } -> `Value v
  | Some { Slice_tbl.value = Claimed _; _ } | None ->
      Mutex.lock s.lock;
      let e =
        Slice_tbl.probe_slice_hashed s.tbl ~hash data ~len
          ~default:(Claimed owner)
      in
      let r =
        if Slice_tbl.last_was_new s.tbl then `Claimed e.Slice_tbl.key
        else
          match e.Slice_tbl.value with Done v -> `Value v | Claimed o -> `Busy o
      in
      Mutex.unlock s.lock;
      r

let resolve t key v =
  let hash = Slice_tbl.hash_string key in
  let s = shard_of_hash t hash in
  Mutex.lock s.lock;
  let e = Slice_tbl.probe_string_hashed s.tbl ~hash key ~default:(Done v) in
  if not (Slice_tbl.last_was_new s.tbl) then begin
    match e.Slice_tbl.value with
    | Done _ ->
        Mutex.unlock s.lock;
        invalid_arg "Par.Sharded_tbl.resolve: key already resolved"
    | Claimed _ -> e.Slice_tbl.value <- Done v
  end;
  Mutex.unlock s.lock

let get t key =
  let hash = Slice_tbl.hash_string key in
  let s = shard_of_hash t hash in
  let done_value = function
    | Some { Slice_tbl.value = Done v; _ } -> Some v
    | Some { Slice_tbl.value = Claimed _; _ } | None -> None
  in
  match done_value (Slice_tbl.find_string_hashed s.tbl ~hash key) with
  | Some _ as r -> r
  | None ->
      Mutex.lock s.lock;
      let r = done_value (Slice_tbl.find_string_hashed s.tbl ~hash key) in
      Mutex.unlock s.lock;
      r
