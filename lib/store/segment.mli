(** One shard's on-disk segment: an append-only log of immutable sorted
    runs, read through a {!Block_cache}, compacted so that only
    O(log spills) runs stay live.

    A run is a batch of resolved memo entries written in one append —
    fixed-size records (the record is the canonical {!Mdp.Key} byte
    encoding stored verbatim, padded to the run's widest key) sorted by
    (key hash, key length, key bytes), preceded by a 16-byte header:

    {v
      offset  size  field
      0       4     magic "BLRN"
      4       4     record count (u32 LE)
      8       2     padded key width (u16 LE)
      10      2     supersedes flag (u16 LE): 0 plain run, 1 merged run
      12      4     merged run: block index of its oldest input (u32 LE);
                    plain run: zero
    v}

    followed by [count] records of [8 + 2 + padded + 8] bytes each —
    key hash (i64 LE), key length (u16 LE), key bytes zero-padded to the
    run's width, value (IEEE-754 bits, i64 LE; floats round-trip
    exactly). Runs start on block boundaries (the gap is zero-filled),
    so a cached block is immutable until a dead-space rewrite and
    recovery arithmetic is offset-only. The block size is part of the
    format: reopen with the one the file was written with.

    {b Compaction.} After each append, while the newest live run's level
    (the bit length of its record count) is at least the next one's,
    the two are merged — a streaming two-way merge, read straight from
    the file in 16 KiB chunks — into one run appended at the end, whose
    header supersedes the older input's block. This is a binary counter
    over spills: live runs stay O(log spills) and each entry is
    rewritten O(log spills) times. Once superseded bytes exceed live
    bytes, the live runs are copied into [path ^ ".tmp"], which is
    renamed over the segment, so after every append the file is at
    most twice its live bytes.

    {b Probes.} A probe checks each live run newest-first: an in-RAM
    bloom filter (two probes derived from the stored 64-bit hash)
    rejects most absent keys without touching the file; a survivor
    binary-searches the run's in-RAM fence pointers — the hash of the
    first record of each [block_size / record_size] group — and reads
    that one group (at most two blocks) through the block cache,
    continuing into the next group only while equal hashes straddle the
    boundary.

    {b Crash recovery} is the open path: {!create} scans headers from
    offset 0, accepts each complete, magic-tagged run (rebuilding its
    bloom filter and fences from the record hashes) — a merged run
    retiring every earlier-accepted run at or after its oldest input's
    offset — and truncates the file at the first header that is
    missing, corrupt, or whose run extends past end-of-file: exactly
    the state a crash mid-append or mid-merge leaves behind. Entries
    never span runs and a merge's header precedes its records, so
    truncation loses only the append in flight, and a torn merge leaves
    its inputs live. Segments written before compaction existed (zero
    supersedes fields) open unchanged. Durability is against a crashed
    process, not a lost page cache: nothing is fsynced. *)

type t

(** [create ~path ~cache] opens (or creates) the segment file at [path]
    and recovers every complete run already in it. *)
val create : path:string -> cache:Block_cache.t -> t

(** [append_run t entries] sorts [(hash, key, value)] entries and
    appends them as one run, then compacts; returns the bytes of the
    run itself (header, records and block padding) — compaction writes
    are counted by {!bytes_compacted}. Keys must be distinct and absent
    from every earlier run. Empty input appends nothing and returns 0. *)
val append_run : t -> (int * string * float) array -> int

(** [find t ~hash ~key ~koff ~klen] probes every live run, newest first, for
    the key equal to [Bytes.sub key koff klen] (whose hash must be
    [hash], as computed by {!Par.Slice_tbl.hash_slice}). *)
val find : t -> hash:int -> key:Bytes.t -> koff:int -> klen:int -> float option

(** [find_string t ~hash ~key] — {!find} on a string key, no copy. *)
val find_string : t -> hash:int -> key:string -> float option

(** [runs t] — live runs (superseded ones excluded). *)
val runs : t -> int

(** [entries t] — records across all live runs. *)
val entries : t -> int

(** [layout t] — [(file offset, record count)] of each live run, newest
    first. *)
val layout : t -> (int * int) list

(** [size t] — current (block-aligned) file size in bytes. *)
val size : t -> int

(** [live_bytes t] — file bytes held by live runs, block padding
    included; the rest of {!size} is superseded runs awaiting a
    rewrite. *)
val live_bytes : t -> int

(** [compactions t] — merges performed since {!create}. *)
val compactions : t -> int

(** [bytes_compacted t] — file bytes written since {!create} by merges
    and dead-space rewrites. *)
val bytes_compacted : t -> int

val path : t -> string

(** [close t] closes the file descriptor (idempotent). *)
val close : t -> unit

(** [delete t] closes and removes the file (best-effort). *)
val delete : t -> unit
