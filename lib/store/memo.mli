(** The out-of-core memo: a spillable, sharded computation cache with
    the same find-or-claim protocol as {!Par.Sharded_tbl}, backed by
    {!Segment} files through per-shard {!Block_cache}s once the in-RAM
    tier exceeds its budget.

    Keys are canonical state encodings (the {!Mdp.Key} byte packing);
    values are floats, stored as IEEE-754 bits so budgeted and in-RAM
    solves return bit-identical values. Keys hash to one of [shards]
    independent shards (routed on bits 17 and up of
    {!Par.Slice_tbl.hash_slice}, hashed once per operation), each a
    {!Par.Slice_tbl} of live claims and recently resolved values behind
    its own mutex, plus one segment file.

    The exactly-once discipline is {!Par.Sharded_tbl}'s: per key, one
    caller is told [`Claimed] and must {!resolve}; everyone else gets
    the value or the claim's owner id. Sequential solvers use owner 0 —
    [`Busy 0] on re-entry is the cycle signal. Because a key is claimed
    once, resolved once, and spilled at most once, budgeted and in-RAM
    solves see identical hit/miss/state counts.

    Spilling happens inside {!resolve}: when a shard's resident-byte
    estimate passes its share of the budget, every resolved entry in the
    shard is written out as one sorted run and the shard's RAM tier is
    rebuilt holding only live claims (claims never spill — they are
    transient and bounded by the solve's recursion depth or frontier).
    The segment compacts its runs as they accumulate ({!Segment}), so a
    probe that misses RAM checks O(log spills) live runs newest-first:
    bloom filter, then in-RAM fence pointers and one fence-group read
    through the block cache.

    No file or directory is created until the first spill, so an
    over-provisioned budget costs a pointer check per probe and nothing
    else. *)

type t

type stats = {
  budget_bytes : int;
  resident_bytes : int;  (** current in-RAM tier estimate, all shards *)
  spilled_entries : int;  (** entries living in segment files *)
  spill_runs : int;  (** runs appended by spills (before compaction) *)
  bytes_spilled : int;  (** file bytes appended by spills *)
  payload_bytes : int;  (** key + value bytes of spilled entries *)
  evictions : int;  (** block-cache evictions *)
  cache_hits : int;
  cache_misses : int;
  bytes_read : int;
  bytes_written : int;  (** spill and compaction writes *)
  disk_hits : int;  (** probes answered from a segment file *)
  resolved : int;
      (** total resolved entries (RAM + disk); exactly-once claims make
          this the solve's distinct-state count *)
  live_runs : int;  (** runs still live across all segments *)
  compactions : int;  (** run merges *)
  bytes_compacted : int;  (** file bytes written by merges and rewrites *)
}

(** [create ?dir ?shards ?block_size ~budget ()] — a store that starts
    spilling once its RAM tier estimate exceeds [budget] bytes (clamped
    to at least 64 KiB). Segment files live under [dir] (default: a
    fresh directory under the system temp dir), created by the first
    spill and removed on {!close} and at exit. [shards] (default 8) is
    rounded up to a power of two. *)
val create : ?dir:string -> ?shards:int -> ?block_size:int -> budget:int -> unit -> t

val shard_count : t -> int

(** [find_or_claim_slice t data ~len ~owner] probes the key
    [Bytes.sub_string data 0 len]:
    - [`Value v] — resolved (in RAM or on disk);
    - [`Busy o] — claimed by owner-id [o], not yet resolved;
    - [`Claimed key] — the claim is installed for this caller, which
      must eventually {!resolve} [key]. *)
val find_or_claim_slice :
  t -> Bytes.t -> len:int -> owner:int -> [ `Value of float | `Busy of int | `Claimed of string ]

(** [resolve t key v] publishes the value for a claimed (or absent) key
    and spills the shard if it is over budget. Raises
    [Invalid_argument] on a second resolution of the same key. *)
val resolve : t -> string -> float -> unit

(** [get t key] is the resolved value, [None] while absent or claimed. *)
val get : t -> string -> float option

val stats : t -> stats

(** [cache_hit_rate s] / [read_amplification s] (bytes read through the
    block caches per spilled byte; merges read their inputs directly,
    about [bytes_compacted] more) / [write_amplification s] (file bytes
    written per payload byte, compaction writes included) — derived
    figures used by the v6 telemetry block. *)
val cache_hit_rate : stats -> float

val read_amplification : stats -> float
val write_amplification : stats -> float
val pp_stats : Format.formatter -> stats -> unit

(** [close t] closes and deletes every segment file and the store's own
    temp directory (idempotent; automatic at process exit). *)
val close : t -> unit
