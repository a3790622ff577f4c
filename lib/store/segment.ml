(* Sorted-run segment files. See the mli for the on-disk format. *)

let magic = "BLRN"
let header_size = 16

(* Merges and dead-space rewrites stream through buffers of this size:
   64 KiB ones raised the k=2 budgeted solve's peak RSS by ~8%, 16 KiB
   ones keep it below the uncompacted store's. *)
let io_chunk = 16_384

type run = {
  r_off : int;  (* file offset of the header *)
  r_count : int;
  r_padded : int;  (* padded key width *)
  r_rsize : int;  (* record size: 18 + r_padded *)
  r_bloom : Bytes.t;
  r_bits : int;  (* bloom bit count *)
  r_group : int;  (* records per fence group *)
  r_fences : int array;  (* hash of the first record of each group *)
}

type t = {
  tpath : string;
  mutable fd : Unix.file_descr;  (* replaced by a dead-space rewrite *)
  cache : Block_cache.t;
  mutable tsize : int;  (* logical end: next run's (aligned) offset *)
  mutable truns : run list;  (* live runs, newest first *)
  mutable scratch : Bytes.t;  (* fence-group read buffer *)
  mutable compactions : int;
  mutable bytes_compacted : int;
  mutable closed : bool;
}

let align_up n bs = (n + bs - 1) / bs * bs

(* bytes a run occupies in the file, block padding included *)
let run_bytes bs r = align_up (header_size + (r.r_count * r.r_rsize)) bs

(* bit length of a record count: two runs merge while the newer one's
   level reaches the older one's, a binary counter over spills *)
let rec level n = if n = 0 then 0 else 1 + level (n lsr 1)

(* ---- bloom filters ----------------------------------------------------

   Two probes per key, both derived from the stored key hash
   ({!Par.Slice_tbl.hash_slice}): the raw hash and a multiplicative
   remix. 8 bits per entry gives a few percent false positives — each
   false positive costs one fence-group read through the cache, never a
   wrong answer. Sized exactly rather
   than to a power of two: merged runs are large, and rounding up
   measurably raised the budgeted solve's peak RSS. *)

let bloom_mix h = (h lsr 17) lxor (h * 0x27d4eb2f) land max_int
let bloom_bits count = max 64 (8 * count)

let bloom_set bloom bits h =
  let set i = Bytes.set_uint8 bloom (i lsr 3)
      (Bytes.get_uint8 bloom (i lsr 3) lor (1 lsl (i land 7)))
  in
  set ((h land max_int) mod bits);
  set (bloom_mix h mod bits)

let bloom_maybe bloom bits h =
  let test i = Bytes.get_uint8 bloom (i lsr 3) land (1 lsl (i land 7)) <> 0 in
  test ((h land max_int) mod bits) && test (bloom_mix h mod bits)

(* ---- per-run in-RAM index ---------------------------------------------

   A run's bloom filter and fence pointers: one fence per group of
   [block_size / record_size] records (at least one), holding the hash
   of the group's first record. Filled record by record, in sorted
   order, by whoever writes or scans the run. *)

let new_run ~bs ~off ~count ~padded =
  let rsize = 18 + padded in
  let bits = bloom_bits count in
  let group = max 1 (bs / rsize) in
  {
    r_off = off;
    r_count = count;
    r_padded = padded;
    r_rsize = rsize;
    r_bloom = Bytes.make (bits lsr 3) '\000';
    r_bits = bits;
    r_group = group;
    r_fences = Array.make ((count + group - 1) / group) 0;
  }

let index_record run i h =
  bloom_set run.r_bloom run.r_bits h;
  if i mod run.r_group = 0 then run.r_fences.(i / run.r_group) <- h

(* ---- raw file IO (scans, merges, rewrites; probes go through the
   cache) ---------------------------------------------------------------- *)

let pread_exact fd ~off buf ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go k =
    if k >= len then len
    else
      match Unix.read fd buf k (len - k) with 0 -> k | r -> go (k + r)
  in
  go 0

let write_exact fd ~off buf ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go k =
    if k < len then go (k + Unix.write fd buf k (len - k))
  in
  go 0

let write_header buf ~count ~padded ~supersedes =
  Bytes.blit_string magic 0 buf 0 4;
  Bytes.set_int32_le buf 4 (Int32.of_int count);
  Bytes.set_uint16_le buf 8 padded;
  match supersedes with
  | None -> Bytes.fill buf 10 6 '\000'
  | Some block ->
      Bytes.set_uint16_le buf 10 1;
      Bytes.set_int32_le buf 12 (Int32.of_int block)

(* ---- sequential run reads ------------------------------------------- *)

(* A run's records read front to back, [io_chunk] bytes at a time,
   straight from the file: the recovery scan and a merge touch each
   record once, so routing them through the cache would only evict the
   probes' blocks. *)
type cursor = {
  c_run : run;
  c_buf : Bytes.t;
  mutable c_loaded : int;  (* records read from the file so far *)
  mutable c_pos : int;  (* offset of the current record in [c_buf] *)
  mutable c_fill : int;  (* valid bytes in [c_buf] *)
}

let refill fd c =
  let r = c.c_run in
  let n = min (Bytes.length c.c_buf / r.r_rsize) (r.r_count - c.c_loaded) in
  let len = n * r.r_rsize in
  if
    pread_exact fd
      ~off:(r.r_off + header_size + (c.c_loaded * r.r_rsize))
      c.c_buf ~len
    <> len
  then failwith "Segment: run shrank while being read";
  c.c_loaded <- c.c_loaded + n;
  c.c_pos <- 0;
  c.c_fill <- len

let cursor fd run =
  let per = max 1 (io_chunk / run.r_rsize) in
  let c =
    { c_run = run; c_buf = Bytes.create (per * run.r_rsize); c_loaded = 0;
      c_pos = 0; c_fill = 0 }
  in
  refill fd c;
  c

let has_record c = c.c_pos < c.c_fill

let advance fd c =
  c.c_pos <- c.c_pos + c.c_run.r_rsize;
  if c.c_pos >= c.c_fill && c.c_loaded < c.c_run.r_count then refill fd c

let cursor_hash c = Int64.to_int (Bytes.get_int64_le c.c_buf c.c_pos)

(* ---- recovery scan ---------------------------------------------------- *)

let scan_runs fd ~bs =
  let file_size = (Unix.fstat fd).Unix.st_size in
  let hdr = Bytes.create header_size in
  let rec go off acc =
    if off + header_size > file_size then (off, acc)
    else if pread_exact fd ~off hdr ~len:header_size <> header_size then
      (off, acc)
    else if Bytes.sub_string hdr 0 4 <> magic then (off, acc)
    else
      let count = Int32.to_int (Bytes.get_int32_le hdr 4) in
      let padded = Bytes.get_uint16_le hdr 8 in
      let merged = Bytes.get_uint16_le hdr 10 in
      let first = Int32.to_int (Bytes.get_int32_le hdr 12) land 0xFFFF_FFFF in
      if
        count <= 0 || padded <= 0 || merged > 1
        || (merged = 1 && first * bs >= off)
      then (off, acc)
      else
        let rsize = 18 + padded in
        let run_end = off + header_size + (count * rsize) in
        if run_end > file_size then (off, acc)
        else begin
          (* complete run: rebuild its index from the record hashes *)
          let run = new_run ~bs ~off ~count ~padded in
          let c = cursor fd run in
          for i = 0 to count - 1 do
            index_record run i (cursor_hash c);
            advance fd c
          done;
          (* a merged run replaces every run from its oldest input on *)
          let acc =
            if merged = 1 then List.filter (fun r -> r.r_off < first * bs) acc
            else acc
          in
          go (align_up run_end bs) (run :: acc)
        end
  in
  let logical_end, runs_newest_first = go 0 [] in
  (* anything past the last complete run is a torn append: drop it *)
  if logical_end < file_size then Unix.ftruncate fd logical_end;
  (logical_end, runs_newest_first)

let tmp_path path = path ^ ".tmp"

let create ~path ~cache =
  (* a rewrite that crashed before its rename leaves only this behind *)
  (try Sys.remove (tmp_path path) with Sys_error _ -> ());
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  let bs = Block_cache.block_size cache in
  let tsize, truns = scan_runs fd ~bs in
  {
    tpath = path;
    fd;
    cache;
    tsize;
    truns;
    scratch = Bytes.create bs;
    compactions = 0;
    bytes_compacted = 0;
    closed = false;
  }

(* ---- compaction -------------------------------------------------------- *)

(* record order: (hash, key length, key bytes) *)
let compare_cursors a b =
  match compare (cursor_hash a : int) (cursor_hash b) with
  | 0 -> (
      let la = Bytes.get_uint16_le a.c_buf (a.c_pos + 8) in
      let lb = Bytes.get_uint16_le b.c_buf (b.c_pos + 8) in
      match compare (la : int) lb with
      | 0 ->
          let rec cmp j =
            if j >= la then 0
            else
              match
                compare
                  (Bytes.get_uint8 a.c_buf (a.c_pos + 10 + j))
                  (Bytes.get_uint8 b.c_buf (b.c_pos + 10 + j))
              with
              | 0 -> cmp (j + 1)
              | c -> c
          in
          cmp 0
      | c -> c)
  | c -> c

(* Append the two-way merge of [older] and [newer] (the two newest live
   runs) as one run whose header supersedes [older]'s block and
   everything after it. The header goes first, so a merge torn
   mid-write promises records past end-of-file and recovery drops it,
   leaving both inputs live. *)
let merge t older newer =
  let bs = Block_cache.block_size t.cache in
  let count = older.r_count + newer.r_count in
  let padded = max older.r_padded newer.r_padded in
  let run = new_run ~bs ~off:t.tsize ~count ~padded in
  let rsize = run.r_rsize in
  let out = Bytes.create (max io_chunk (header_size + rsize)) in
  let out_off = ref t.tsize and fill = ref 0 in
  let flush () =
    write_exact t.fd ~off:!out_off out ~len:!fill;
    out_off := !out_off + !fill;
    fill := 0
  in
  let reserve n =
    if !fill + n > Bytes.length out then flush ();
    let at = !fill in
    fill := !fill + n;
    at
  in
  write_header out ~count ~padded ~supersedes:(Some (older.r_off / bs));
  fill := header_size;
  let a = cursor t.fd older and b = cursor t.fd newer in
  for i = 0 to count - 1 do
    let c =
      if not (has_record a) then b
      else if not (has_record b) then a
      else if compare_cursors a b <= 0 then a
      else b
    in
    let src = c.c_pos and klen = Bytes.get_uint16_le c.c_buf (c.c_pos + 8) in
    let at = reserve rsize in
    (* hash, key length and key verbatim; re-pad to the merged width *)
    Bytes.blit c.c_buf src out at (10 + klen);
    Bytes.fill out (at + 10 + klen) (padded - klen) '\000';
    Bytes.blit c.c_buf (src + 10 + c.c_run.r_padded) out (at + 10 + padded) 8;
    index_record run i (cursor_hash c);
    advance t.fd c
  done;
  let total = run_bytes bs run in
  let rec pad n =
    if n > 0 then begin
      let k = min n (Bytes.length out) in
      Bytes.fill out (reserve k) k '\000';
      pad (n - k)
    end
  in
  pad (total - header_size - (count * rsize));
  flush ();
  Block_cache.note_write t.cache total;
  t.tsize <- t.tsize + total;
  t.compactions <- t.compactions + 1;
  t.bytes_compacted <- t.bytes_compacted + total;
  run

let live_bytes t =
  let bs = Block_cache.block_size t.cache in
  List.fold_left (fun a r -> a + run_bytes bs r) 0 t.truns

(* Once superseded runs outweigh live ones, copy the live runs (oldest
   first, headers cleared of their supersedes field — nothing in the new
   file is dead) into a fresh file and rename it over the segment. A
   crash before the rename leaves the old file intact and a stale temp
   file that [create] removes. *)
let reclaim t =
  let live = live_bytes t in
  if t.tsize - live > live then begin
    let bs = Block_cache.block_size t.cache in
    let tmp = tmp_path t.tpath in
    let fd =
      Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
    in
    let buf = Bytes.create io_chunk in
    let copy r dst =
      let len = run_bytes bs r in
      let rec go k =
        if k < len then begin
          let n = min io_chunk (len - k) in
          if pread_exact t.fd ~off:(r.r_off + k) buf ~len:n <> n then
            failwith "Segment: run shrank during rewrite";
          if k = 0 then Bytes.fill buf 10 6 '\000';
          write_exact fd ~off:(dst + k) buf ~len:n;
          go (k + n)
        end
      in
      go 0;
      (dst + len, { r with r_off = dst })
    in
    let size, runs =
      try
        List.fold_left
          (fun (dst, acc) r ->
            let next, r = copy r dst in
            (next, r :: acc))
          (0, []) (List.rev t.truns)
      with e ->
        (* the segment itself is untouched: drop the partial copy *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
    in
    Unix.rename tmp t.tpath;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.fd <- fd;
    t.tsize <- size;
    t.truns <- runs;
    (* block indices now name different bytes *)
    Block_cache.invalidate t.cache;
    Block_cache.note_write t.cache size;
    t.bytes_compacted <- t.bytes_compacted + size
  end

let rec compact t =
  match t.truns with
  | newer :: older :: rest when level newer.r_count >= level older.r_count ->
      t.truns <- merge t older newer :: rest;
      compact t
  | _ -> ()

(* ---- appends ----------------------------------------------------------- *)

let append_run t entries =
  if Array.length entries = 0 then 0
  else begin
    Array.sort
      (fun (h1, k1, _) (h2, k2, _) ->
        match compare (h1 : int) h2 with
        | 0 -> (
            match compare (String.length k1) (String.length k2) with
            | 0 -> String.compare k1 k2
            | c -> c)
        | c -> c)
      entries;
    let count = Array.length entries in
    let padded =
      Array.fold_left (fun m (_, k, _) -> max m (String.length k)) 1 entries
    in
    let bs = Block_cache.block_size t.cache in
    let run = new_run ~bs ~off:t.tsize ~count ~padded in
    let rsize = run.r_rsize in
    let total = run_bytes bs run in
    let buf = Bytes.make total '\000' in
    write_header buf ~count ~padded ~supersedes:None;
    Array.iteri
      (fun i (h, k, v) ->
        let off = header_size + (i * rsize) in
        Bytes.set_int64_le buf off (Int64.of_int h);
        Bytes.set_uint16_le buf (off + 8) (String.length k);
        Bytes.blit_string k 0 buf (off + 10) (String.length k);
        Bytes.set_int64_le buf (off + 10 + padded) (Int64.bits_of_float v);
        index_record run i h)
      entries;
    write_exact t.fd ~off:t.tsize buf ~len:total;
    Block_cache.note_write t.cache total;
    t.tsize <- t.tsize + total;
    t.truns <- run :: t.truns;
    compact t;
    reclaim t;
    total
  end

(* ---- probes ------------------------------------------------------------ *)

let scratch_for t n =
  if Bytes.length t.scratch < n then t.scratch <- Bytes.create n;
  t.scratch

let key_matches buf o ~key ~koff ~klen =
  Bytes.get_uint16_le buf (o + 8) = klen
  &&
  let rec eq j =
    j >= klen
    || Bytes.get_uint8 key (koff + j) = Bytes.get_uint8 buf (o + 10 + j)
       && eq (j + 1)
  in
  eq 0

(* Past the bloom filter, binary-search the in-RAM fences for the last
   group whose first hash is below [hash] — records with [hash] start
   there or at the next group — and scan from it, one cache read per
   group. Equal hashes can straddle a group boundary, so the scan
   continues while the next group also starts with [hash]. *)
let find_in_run t run ~hash ~key ~koff ~klen =
  if not (bloom_maybe run.r_bloom run.r_bits hash) then None
  else
    let fences = run.r_fences in
    let ngroups = Array.length fences in
    let rec search lo hi best =
      if lo > hi then best
      else
        let mid = (lo + hi) / 2 in
        if fences.(mid) < hash then search (mid + 1) hi mid
        else search lo (mid - 1) best
    in
    let rsize = run.r_rsize in
    let rec scan_group g =
      let first = g * run.r_group in
      let n = min run.r_group (run.r_count - first) in
      let buf = scratch_for t (n * rsize) in
      Block_cache.read t.cache t.fd
        ~off:(run.r_off + header_size + (first * rsize))
        ~len:(n * rsize) ~dst:buf ~dst_off:0;
      let rec scan j =
        if j >= n then
          if g + 1 < ngroups && fences.(g + 1) = hash then scan_group (g + 1)
          else None
        else
          let o = j * rsize in
          let rhash = Int64.to_int (Bytes.get_int64_le buf o) in
          if rhash < hash then scan (j + 1)
          else if rhash > hash then None
          else if key_matches buf o ~key ~koff ~klen then
            Some
              (Int64.float_of_bits
                 (Bytes.get_int64_le buf (o + 10 + run.r_padded)))
          else scan (j + 1)
      in
      scan 0
    in
    (* a hash below the first fence is below every record *)
    if hash < fences.(0) then None
    else scan_group (max 0 (search 0 (ngroups - 1) (-1)))

let find t ~hash ~key ~koff ~klen =
  let rec go = function
    | [] -> None
    | run :: rest -> (
        match find_in_run t run ~hash ~key ~koff ~klen with
        | Some v -> Some v
        | None -> go rest)
  in
  go t.truns

let find_string t ~hash ~key =
  find t ~hash ~key:(Bytes.unsafe_of_string key) ~koff:0
    ~klen:(String.length key)

let runs t = List.length t.truns
let entries t = List.fold_left (fun a r -> a + r.r_count) 0 t.truns
let layout t = List.map (fun r -> (r.r_off, r.r_count)) t.truns
let size t = t.tsize
let compactions t = t.compactions
let bytes_compacted t = t.bytes_compacted
let path t = t.tpath

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let delete t =
  close t;
  try Sys.remove t.tpath with Sys_error _ -> ()
