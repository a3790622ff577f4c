(* A string-keyed hash table that can be probed with a (bytes, length)
   slice without materializing the key. The solver's memo probe is the
   hottest operation in the repo: a state is encoded into a reusable
   buffer, and looking it up must not allocate. [Hashtbl] cannot do this
   — [Hashtbl.find_opt tbl (Bytes.sub_string buf 0 len)] copies the key
   on every probe, hit or miss. Here the probe hashes the slice in
   place, walks one chain comparing bytes, and copies the key out
   exactly once: when the slice is genuinely new.

   Entries are exposed (with a mutable [value] field) so callers can
   read-modify-write a binding from a single probe — the solver probes
   once with an [In_progress] default and later overwrites the same
   entry with the computed value, where a [Hashtbl] would pay a second
   hash + chain walk for the [replace]. *)

type 'a entry = { hash : int; key : string; mutable value : 'a }

type 'a t = {
  mutable buckets : 'a entry list array;  (* length a power of two *)
  mutable size : int;
  mutable fresh : bool;  (* did the last probe insert? *)
}

let create ?(size = 1024) () =
  let cap = ref 16 in
  while !cap < size do
    cap := !cap * 2
  done;
  { buckets = Array.make !cap []; size = 0; fresh = false }

let length t = t.size
let last_was_new t = t.fresh

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.size <- 0;
  t.fresh <- false

(* The key hash. Whole 8-byte little-endian words are scrambled and
   folded in one multiply-xor step each (the body of MurmurHash64A),
   the 0-7 tail bytes are packed into one more word, and MurmurHash3's
   64-bit finalizer avalanches the result, so every input bit reaches
   both the low bits (bucket index) and bits 17 and up (shard routing
   in {!Sharded_tbl} and [Store.Memo]). The arithmetic is [int64] held
   in let-bound and ref-held locals, which the compiler keeps unboxed:
   the hash allocates nothing. *)
let m = 0xc6a4a7935bd1e995L

let[@inline] mix_word h w =
  let k = Int64.mul w m in
  let k = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 47)) m in
  Int64.mul (Int64.logxor h k) m

let[@inline] finish h tail =
  let h = Int64.mul (Int64.logxor h (Int64.of_int tail)) m in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33))

let hash_slice data len =
  let h = ref (Int64.mul (Int64.of_int len) m) in
  let i = ref 0 in
  while !i + 8 <= len do
    h := mix_word !h (Bytes.get_int64_le data !i);
    i := !i + 8
  done;
  let tail = ref 0 in
  for j = len - 1 downto !i do
    tail := (!tail lsl 8) lor Char.code (Bytes.get data j)
  done;
  finish !h !tail

(* The string form is the slice form over the string's own bytes
   ([hash_slice] only reads them), so the two agree by construction. *)
let hash_string s = hash_slice (Bytes.unsafe_of_string s) (String.length s)

(* Word-wise equality: 8 bytes per iteration. The [int64] comparisons
   are compiler-specialized (monomorphic annotation) so the loads stay
   unboxed — no allocation. Probes compare the full key on every hit, so
   this runs for ~the key length on the solver's hottest path. *)
let rec words_match key data len i =
  if i + 8 <= len then
    (String.get_int64_le key i : int64) = Bytes.get_int64_le data i
    && words_match key data len (i + 8)
  else tail_match key data len i

and tail_match key data len i =
  i >= len
  || String.unsafe_get key i = Bytes.unsafe_get data i
     && tail_match key data len (i + 1)

let[@inline] slice_matches key data len =
  String.length key = len && words_match key data len 0

(* The chain [h] lives in. The index comes from [buckets]' own length,
   never from a separately stored mask, so a reader holding an array
   that [grow] has since replaced still indexes inside it. *)
let[@inline] chain buckets h = buckets.(h land (Array.length buckets - 1))

let grow t =
  let old = t.buckets in
  let cap = Array.length old * 2 in
  let buckets = Array.make cap [] in
  Array.iter
    (fun chain ->
      List.iter
        (fun e ->
          let i = e.hash land (cap - 1) in
          buckets.(i) <- e :: buckets.(i))
        chain)
    old;
  t.buckets <- buckets

let[@inline] insert t h key default =
  let e = { hash = h; key; value = default } in
  let buckets = t.buckets in
  let i = h land (Array.length buckets - 1) in
  buckets.(i) <- e :: buckets.(i);
  t.size <- t.size + 1;
  t.fresh <- true;
  if t.size > Array.length buckets then grow t;
  e

(* Chain walks as top-level fully-applied recursions: an inner [let rec]
   closure would allocate on every probe. *)
let rec probe_slice_chain t h data len default = function
  | [] -> insert t h (Bytes.sub_string data 0 len) default
  | e :: rest ->
      if e.hash = h && slice_matches e.key data len then begin
        t.fresh <- false;
        e
      end
      else probe_slice_chain t h data len default rest

let probe_slice_hashed t ~hash data ~len ~default =
  probe_slice_chain t hash data len default (chain t.buckets hash)

let probe_slice t data ~len ~default =
  probe_slice_hashed t ~hash:(hash_slice data len) data ~len ~default

let rec probe_string_chain t h key default = function
  | [] -> insert t h key default
  | e :: rest ->
      if e.hash = h && String.equal e.key key then begin
        t.fresh <- false;
        e
      end
      else probe_string_chain t h key default rest

let probe_string_hashed t ~hash key ~default =
  probe_string_chain t hash key default (chain t.buckets hash)

let probe_string t key ~default =
  probe_string_hashed t ~hash:(hash_string key) key ~default

let rec find_slice_chain h data len = function
  | [] -> None
  | e :: rest ->
      if e.hash = h && slice_matches e.key data len then Some e
      else find_slice_chain h data len rest

let find_slice_hashed t ~hash data ~len =
  find_slice_chain hash data len (chain t.buckets hash)

let rec find_string_chain h key = function
  | [] -> None
  | e :: rest ->
      if e.hash = h && String.equal e.key key then Some e
      else find_string_chain h key rest

let find_string_hashed t ~hash key =
  find_string_chain hash key (chain t.buckets hash)

let find_string t key = find_string_hashed t ~hash:(hash_string key) key

let iter t f =
  Array.iter (fun chain -> List.iter (fun e -> f e.key e.value) chain) t.buckets
