(** A sharded concurrent hash table with a find-or-claim protocol.

    Keys hash to one of [shard_count] independent shards, each a
    {!Slice_tbl} behind its own mutex — the bucket-ownership idiom:
    because a key belongs to exactly one shard, per-key operations never
    take more than one lock, critical sections are a few instructions,
    and [n] domains contend only when their keys collide on a shard.

    The claim protocol turns the table into a computation cache with an
    exactly-once guarantee. A slot is either [Claimed owner] (some caller
    is computing the value) or [Done v]. {!find_or_claim_slice} atomically
    returns the finished value, reports the claim's owner, or installs a
    claim for the caller — so across any number of domains, exactly one
    caller is told [`Claimed] per key and computes it; everyone else
    either reads the value or knows who to wait for. The work-stealing
    solver keys this table by canonical game-state encodings: one domain
    evaluates each state, the rest share the result.

    Reads of resolved keys take no lock. {!find_or_claim_slice} and
    {!get} first read the shard unlocked and answer at once if the key
    is [Done]; anything else (absent, or claimed) takes the shard lock
    and decides there. This is sound because a [Done] value is written
    once, under the lock, and never changed: a stale unlocked view can
    only miss, and a miss is settled under the lock. Claims are only
    installed under the lock, so the exactly-once guarantee is the
    locked protocol's. The unlocked read indexes the one bucket array it
    read by that array's own length, so a concurrent resize cannot send
    it out of bounds. *)

type 'a t

(** [create ?shards ()] makes an empty table with [shards] (default 128,
    rounded up to a power of two) independent shards. *)
val create : ?shards:int -> unit -> 'a t

val shard_count : 'a t -> int

type 'a slice_claim = [ `Value of 'a | `Busy of int | `Claimed of string ]

(** [find_or_claim_slice t data ~len ~owner] atomically probes the key
    [Bytes.sub_string data 0 len], without materializing it:
    - [`Value v] — the key is resolved; [v] is shared.
    - [`Busy o] — claimed by owner-id [o] and not yet resolved. [o] is
      whatever id the claimant passed; callers use it to detect
      self-re-entry (a cycle) vs. another domain to help or wait for.
    - [`Claimed key] — the claim was installed for this caller, which
      must eventually {!resolve} [key]: the slice copied to an owned
      string, so the claimant can resolve it after its encode buffer has
      been reused.
    No outcome copies the key except [`Claimed]; the result variant
    itself is a small block. The hash is computed once and serves both
    the shard routing and the shard probe. *)
val find_or_claim_slice :
  'a t -> Bytes.t -> len:int -> owner:int -> 'a slice_claim

(** [resolve t key v] publishes the value for a claimed (or absent) key.
    Raises [Invalid_argument] if the key is already resolved — a second
    resolution would mean two domains computed the same key, the bug the
    claim protocol exists to rule out. *)
val resolve : 'a t -> string -> 'a -> unit

(** [get t key] is the resolved value, [None] while absent or claimed. *)
val get : 'a t -> string -> 'a option
