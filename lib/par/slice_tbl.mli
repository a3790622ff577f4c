(** A string-keyed hash table probeable by a [(bytes, length)] slice.

    Built for the solver's memo probe — the single hottest operation in
    the repo. A state is encoded into a reusable {!Mdp.Key.buf}; probing
    with the buffer slice hashes in place, walks one chain comparing
    bytes, and only copies the key out to an owned string when the slice
    is genuinely new. A probe of an already-present key allocates
    nothing. Not thread-safe for writers — callers shard and lock (see
    {!Sharded_tbl}) or keep one table per domain; {!find_slice_hashed}
    and {!find_string_hashed} may run beside a locked writer. *)

(** A binding. [value] is mutable so a caller can probe once and later
    overwrite the same entry in place — no second lookup. [hash] is the
    table's internal hash of [key] ({!hash_string}); the solver reuses
    it as a cheap state fingerprint for trace events. *)
type 'a entry = { hash : int; key : string; mutable value : 'a }

type 'a t

(** [create ?size ()] makes an empty table with capacity for about
    [size] (default 1024) bindings before the first resize. *)
val create : ?size:int -> unit -> 'a t

val length : 'a t -> int

(** [clear t] drops every binding, keeping the bucket array. *)
val clear : 'a t -> unit

(** [probe_slice t data ~len ~default] finds the entry whose key equals
    [Bytes.sub_string data 0 len], inserting a fresh entry bound to
    [default] (and copying the key) if absent. {!last_was_new} tells
    which happened. Allocation-free when the key is present. *)
val probe_slice : 'a t -> Bytes.t -> len:int -> default:'a -> 'a entry

(** [probe_string t key ~default] — same protocol, string key (no copy
    on insert: [key] itself is stored). *)
val probe_string : 'a t -> string -> default:'a -> 'a entry

(** [last_was_new t] is [true] iff the most recent probe inserted. *)
val last_was_new : 'a t -> bool

val find_string : 'a t -> string -> 'a entry option
val iter : 'a t -> (string -> 'a -> unit) -> unit

(** The key hash, exposed so a sharded wrapper can route a slice and its
    materialized string to the same shard and then probe the shard with
    the same hash (the [_hashed] forms below). It folds
    8-byte little-endian words (MurmurHash64A's word step), packs the
    0-7 tail bytes into one more word and ends with MurmurHash3's 64-bit
    avalanche, so both the low bits (bucket index) and bits 17 and up
    (shard routing) are well mixed. It allocates nothing, and the two
    forms agree: [hash_string (Bytes.sub_string d 0 len) = hash_slice d len]. *)
val hash_slice : Bytes.t -> int -> int

val hash_string : string -> int

(** {2 Probes with a precomputed hash}

    Each takes [~hash], which must be {!hash_slice}[ data len] (resp.
    {!hash_string}[ key]). The probes and [find_string_hashed] behave as
    the forms without the suffix; [find_slice_hashed] is the entry whose
    key equals [Bytes.sub_string data 0 len], if any.

    The two finds write nothing, and they read the bucket array once and
    index it by that array's own length. So they are memory-safe while
    another domain probes or grows the table under a lock: they may miss
    a binding that is being added, and an entry they return is bound to
    the key. *)

val probe_slice_hashed :
  'a t -> hash:int -> Bytes.t -> len:int -> default:'a -> 'a entry

val probe_string_hashed : 'a t -> hash:int -> string -> default:'a -> 'a entry

val find_slice_hashed :
  'a t -> hash:int -> Bytes.t -> len:int -> 'a entry option

val find_string_hashed : 'a t -> hash:int -> string -> 'a entry option
