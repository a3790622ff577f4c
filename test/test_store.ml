(* The out-of-core store's soundness battery: the segment run format
   round-trips through close/reopen, crash-truncated tails are recovered
   away without losing complete runs, compacted segments recover exactly
   their live runs (a torn merge leaving its inputs live), fence-pointer
   probes handle every group-boundary edge, the block cache evicts in LRU order
   and never evicts a pinned block, the memo upholds the exactly-once
   claim protocol across spills, and — the property the whole engine
   exists for — budgeted solves are bit-identical to in-RAM solves
   (values AND distinct-state counts) for every model game at jobs 1
   and 4. *)

let exact = Alcotest.(check (float 0.0))

(* A tiny budget: the Memo clamps to its 64 KiB floor, whose per-shard
   watermark (4 KiB) forces even the k=1 weakener games to spill. *)
let tiny_budget = 1

(* ---- scratch files --------------------------------------------------- *)

let scratch_counter = ref 0

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "blunting-test-store-%d-%d" (Unix.getpid ())
         !scratch_counter)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rm_rf d =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
       (Sys.readdir d)
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let with_scratch f =
  let d = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---- Store.Segment --------------------------------------------------- *)

let entry i =
  (* mixed-width keys: the run pads to the widest, and probes must honor
     the true length *)
  let key = Printf.sprintf "key-%d%s" i (String.make (i mod 7) 'x') in
  (Par.Slice_tbl.hash_string key, key, float_of_int i /. 16.0)

let probe_all seg n =
  for i = 0 to n - 1 do
    let h, key, v = entry i in
    match Store.Segment.find_string seg ~hash:h ~key with
    | Some got -> exact (Printf.sprintf "probe %s" key) v got
    | None -> Alcotest.failf "key %s lost" key
  done

let test_segment_roundtrip () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let cache = Store.Block_cache.create ~capacity:4 () in
  let seg = Store.Segment.create ~path ~cache in
  Alcotest.(check int) "fresh segment has no runs" 0 (Store.Segment.runs seg);
  let run1 = Array.init 100 entry in
  let b1 = Store.Segment.append_run seg run1 in
  Alcotest.(check bool) "append reports bytes" true (b1 > 0);
  let run2 = Array.init 50 (fun i -> entry (100 + i)) in
  let _ = Store.Segment.append_run seg run2 in
  Alcotest.(check int) "two runs" 2 (Store.Segment.runs seg);
  Alcotest.(check int) "entries across runs" 150 (Store.Segment.entries seg);
  probe_all seg 150;
  let absent = "no-such-key" in
  Alcotest.(check (option (float 0.0)))
    "absent key" None
    (Store.Segment.find_string seg
       ~hash:(Par.Slice_tbl.hash_string absent)
       ~key:absent);
  Alcotest.(check int)
    "empty run appends nothing" 0
    (Store.Segment.append_run seg [||]);
  let size = Store.Segment.size seg in
  Store.Segment.close seg;
  (* reopen: recovery must find both complete runs byte-for-byte *)
  let cache2 = Store.Block_cache.create ~capacity:4 () in
  let seg2 = Store.Segment.create ~path ~cache:cache2 in
  Alcotest.(check int) "runs recovered" 2 (Store.Segment.runs seg2);
  Alcotest.(check int) "entries recovered" 150 (Store.Segment.entries seg2);
  Alcotest.(check int) "size recovered" size (Store.Segment.size seg2);
  probe_all seg2 150;
  Store.Segment.delete seg2;
  Alcotest.(check bool) "delete removes the file" false (Sys.file_exists path)

(* Crash mid-append: whatever tail a crash leaves — a partial header, a
   corrupt magic, or a header whose run extends past end-of-file — reopen
   truncates it and keeps every complete run. *)
let test_segment_recovery () =
  let crash_tail tail =
    with_scratch @@ fun dir ->
    let path = Filename.concat dir "seg.blk" in
    let cache = Store.Block_cache.create ~capacity:4 () in
    let seg = Store.Segment.create ~path ~cache in
    let _ = Store.Segment.append_run seg (Array.init 100 entry) in
    let size = Store.Segment.size seg in
    Store.Segment.close seg;
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o600 in
    let n = Unix.write_substring fd tail 0 (String.length tail) in
    Alcotest.(check int) "tail written" (String.length tail) n;
    Unix.close fd;
    let cache2 = Store.Block_cache.create ~capacity:4 () in
    let seg2 = Store.Segment.create ~path ~cache:cache2 in
    Alcotest.(check int) "complete run survives" 1 (Store.Segment.runs seg2);
    Alcotest.(check int) "entries survive" 100 (Store.Segment.entries seg2);
    Alcotest.(check int) "tail truncated away" size (Store.Segment.size seg2);
    probe_all seg2 100;
    (* the recovered segment must accept appends again *)
    let _ = Store.Segment.append_run seg2 [| entry 100 |] in
    probe_all seg2 101;
    Store.Segment.close seg2
  in
  crash_tail "BLRN\x08";
  (* header cut mid-write *)
  crash_tail "GARBAGEGARBAGEGARBAGE";
  (* corrupt magic *)
  (* valid header promising 10_000 records the crash never wrote *)
  let b = Buffer.create 32 in
  Buffer.add_string b "BLRN";
  Buffer.add_int32_le b 10_000l;
  Buffer.add_uint16_le b 16;
  Buffer.add_string b (String.make 6 '\x00');
  Buffer.add_string b "only-a-few-record-bytes";
  crash_tail (Buffer.contents b)


(* ---- compaction and its recovery ------------------------------------- *)

let seg_at ?block_size path =
  Store.Segment.create ~path
    ~cache:(Store.Block_cache.create ?block_size ~capacity:4 ())

let layout = Alcotest.(list (pair int int))

(* Twenty spills of 30 entries: the binary-counter policy must merge
   them down to a handful of live runs, reclaim the superseded bytes,
   and a reopen must recover exactly the live runs, every key once. *)
let test_segment_compaction_recovery () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let seg = seg_at path in
  let appended = ref 0 in
  for r = 0 to 19 do
    appended :=
      !appended
      + Store.Segment.append_run seg
          (Array.init 30 (fun i -> entry ((30 * r) + i)))
  done;
  Alcotest.(check bool)
    "compactions ran" true
    (Store.Segment.compactions seg > 0);
  (* 600 records: levels strictly decrease from oldest to newest *)
  Alcotest.(check bool) "live runs bounded by the binary counter" true
    (Store.Segment.runs seg <= 4);
  Alcotest.(check int)
    "no entry lost or duplicated" 600
    (Store.Segment.entries seg);
  probe_all seg 600;
  let size = Store.Segment.size seg in
  let live = Store.Segment.live_bytes seg in
  Alcotest.(check bool)
    "file within twice its live bytes" true
    (size <= 2 * live);
  Alcotest.(check bool) "superseded bytes were reclaimed" true
    (size < !appended + Store.Segment.bytes_compacted seg);
  let before = Store.Segment.layout seg in
  Store.Segment.close seg;
  Alcotest.(check bool) "no rewrite temp file left" false
    (Sys.file_exists (path ^ ".tmp"));
  let seg2 = seg_at path in
  Alcotest.check layout "live runs recovered" before
    (Store.Segment.layout seg2);
  Alcotest.(check int) "size recovered" size (Store.Segment.size seg2);
  (* 600 records over 600 distinct keys, all found: each exactly once *)
  Alcotest.(check int) "entries recovered" 600 (Store.Segment.entries seg2);
  probe_all seg2 600;
  Store.Segment.close seg2

(* A merge torn mid-write: its header promises records past end-of-file,
   so recovery drops it and both inputs stay live with every key. *)
let test_segment_torn_merge () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let seg = seg_at path in
  let run lo n = Array.init n (fun i -> entry (lo + i)) in
  let _ = Store.Segment.append_run seg (run 0 300) in
  let _ = Store.Segment.append_run seg (run 300 64) in
  let pre_merge = Store.Segment.layout seg in
  let off_c = Store.Segment.size seg in
  (* 64 + 64 records merge (equal levels); 128 stays below 300's level *)
  let _ = Store.Segment.append_run seg (run 364 64) in
  Alcotest.(check int) "one merge" 1 (Store.Segment.compactions seg);
  let off_m, merged =
    match Store.Segment.layout seg with
    | [ (off_m, n); (0, 300) ] -> (off_m, n)
    | l -> Alcotest.failf "unexpected layout (%d runs)" (List.length l)
  in
  Alcotest.(check int) "merged run holds both inputs" 128 merged;
  Store.Segment.close seg;
  (* intact, the merged run retires its inputs on reopen *)
  let seg = seg_at path in
  Alcotest.check layout "merged run supersedes its inputs"
    [ (off_m, 128); (0, 300) ]
    (Store.Segment.layout seg);
  Store.Segment.close seg;
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  let hdr = Bytes.create 16 in
  ignore (Unix.lseek fd off_m Unix.SEEK_SET);
  Alcotest.(check int) "header read" 16 (Unix.read fd hdr 0 16);
  Alcotest.(check string) "merged run magic" "BLRN" (Bytes.sub_string hdr 0 4);
  Alcotest.(check int) "supersedes flag" 1 (Bytes.get_uint16_le hdr 10);
  let off_b = fst (List.hd pre_merge) in
  Alcotest.(check int) "supersedes the older input's block" (off_b / 4096)
    (Int32.to_int (Bytes.get_int32_le hdr 12));
  Unix.ftruncate fd (off_m + 16 + 10);
  Unix.close fd;
  let seg2 = seg_at path in
  Alcotest.check layout "pre-merge runs recovered"
    ((off_c, 64) :: pre_merge)
    (Store.Segment.layout seg2);
  Alcotest.(check int)
    "torn merge truncated away" off_m
    (Store.Segment.size seg2);
  probe_all seg2 428;
  Store.Segment.close seg2

(* Hand-encode runs in the pre-compaction format (bytes 10-15 zero) from
   the documented layout: a reopen takes them as they are. *)
let test_segment_legacy_format () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let bs = 4096 in
  let encode entries =
    let entries = Array.copy entries in
    Array.sort
      (fun (h1, k1, _) (h2, k2, _) ->
        compare (h1, String.length k1, k1) (h2, String.length k2, k2))
      entries;
    let padded =
      Array.fold_left (fun m (_, k, _) -> max m (String.length k)) 1 entries
    in
    let b = Buffer.create bs in
    Buffer.add_string b "BLRN";
    Buffer.add_int32_le b (Int32.of_int (Array.length entries));
    Buffer.add_uint16_le b padded;
    Buffer.add_string b (String.make 6 '\x00');
    Array.iter
      (fun (h, k, v) ->
        Buffer.add_int64_le b (Int64.of_int h);
        Buffer.add_uint16_le b (String.length k);
        Buffer.add_string b k;
        Buffer.add_string b (String.make (padded - String.length k) '\x00');
        Buffer.add_int64_le b (Int64.bits_of_float v))
      entries;
    let n = Buffer.length b in
    Buffer.add_string b (String.make ((n + bs - 1) / bs * bs - n) '\x00');
    Buffer.contents b
  in
  (* two equal-level runs: an append would merge them, a reopen must not *)
  let file =
    encode (Array.init 40 entry)
    ^ encode (Array.init 40 (fun i -> entry (40 + i)))
  in
  let oc = open_out_bin path in
  output_string oc file;
  close_out oc;
  let seg = seg_at path in
  Alcotest.check layout "both runs open as written" [ (bs, 40); (0, 40) ]
    (Store.Segment.layout seg);
  Alcotest.(check int)
    "size unchanged" (String.length file)
    (Store.Segment.size seg);
  probe_all seg 80;
  Store.Segment.close seg

(* ---- fence pointers ---------------------------------------------------- *)

(* Fixed-width synthetic entries whose hash the test picks: [append_run]
   takes hashes as given, so collisions and fence edges are placeable. *)
let synth ~hash i = (hash, Printf.sprintf "k%07d" i, float_of_int i +. 0.5)

let expect_found seg (hash, key, v) =
  match Store.Segment.find_string seg ~hash ~key with
  | Some got -> exact (Printf.sprintf "probe %s" key) v got
  | None -> Alcotest.failf "key %s (hash %d) lost" key hash

let expect_absent seg ~hash key =
  Alcotest.(check (option (float 0.0)))
    (Printf.sprintf "absent %s (hash %d)" key hash)
    None
    (Store.Segment.find_string seg ~hash ~key)

let cache_reads c =
  let s = Store.Block_cache.stats c in
  s.Store.Block_cache.hits + s.Store.Block_cache.misses

let test_fence_edges () =
  with_scratch @@ fun dir ->
  (* 64-byte blocks, 26-byte records: fence groups of 2 records *)
  let small name = seg_at ~block_size:64 (Filename.concat dir name) in
  (* five keys share hash 20 across three groups: [10 20][20 20][20 20][30] *)
  let seg = small "straddle" in
  let es =
    Array.of_list
      ((synth ~hash:10 0 :: List.init 5 (fun i -> synth ~hash:20 (1 + i)))
      @ [ synth ~hash:30 6 ])
  in
  let _ = Store.Segment.append_run seg (Array.copy es) in
  Array.iter (expect_found seg) es;
  expect_absent seg ~hash:20 "k9999999";
  expect_absent seg ~hash:20 "k0000000";
  Store.Segment.close seg;
  (* different padded widths merged into one run *)
  let seg = small "widths" in
  let short = Array.init 4 (fun i -> synth ~hash:(100 + (2 * i)) i) in
  let long =
    Array.init 4 (fun i ->
        ( 101 + (2 * i),
          Printf.sprintf "a-much-longer-key-%d" i,
          float_of_int i ))
  in
  let _ = Store.Segment.append_run seg (Array.copy short) in
  let _ = Store.Segment.append_run seg (Array.copy long) in
  Alcotest.(check int) "equal levels merged" 1 (Store.Segment.runs seg);
  Alcotest.(check int) "one compaction" 1 (Store.Segment.compactions seg);
  Array.iter (expect_found seg) short;
  Array.iter (expect_found seg) long;
  Store.Segment.close seg;
  (* a run of exactly one group: 4096-byte blocks hold 157 such records *)
  let seg = seg_at (Filename.concat dir "one-group") in
  let es =
    Array.init 157 (fun i ->
        synth ~hash:(Par.Slice_tbl.hash_string (string_of_int i)) i)
  in
  let _ = Store.Segment.append_run seg (Array.copy es) in
  Array.iter (expect_found seg) es;
  expect_absent seg ~hash:(let h, _, _ = es.(0) in h) "k9999999";
  Store.Segment.close seg;
  (* probes below the first fence and above the last one *)
  let cache = Store.Block_cache.create ~block_size:64 ~capacity:4 () in
  let seg = Store.Segment.create ~path:(Filename.concat dir "ends") ~cache in
  let es = Array.init 50 (fun i -> synth ~hash:(1000 + (20 * i)) i) in
  let _ = Store.Segment.append_run seg (Array.copy es) in
  Array.iter (expect_found seg) es;
  let reads = cache_reads cache in
  for h = 0 to 999 do expect_absent seg ~hash:h "k0000000" done;
  Alcotest.(check int)
    "below the first fence reads nothing" reads (cache_reads cache);
  for h = 1981 to 2980 do expect_absent seg ~hash:h "k0000049" done;
  expect_absent seg ~hash:max_int "k0000049";
  Alcotest.(check bool) "some probes above the last fence passed the bloom" true
    (cache_reads cache > reads);
  Store.Segment.close seg

(* ---- Store.Block_cache ----------------------------------------------- *)

let test_block_cache_lru () =
  with_scratch @@ fun dir ->
  let bs = 64 in
  let path = Filename.concat dir "blocks.bin" in
  let nblocks = 6 in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  for i = 0 to nblocks - 1 do
    let block = String.make bs (Char.chr (Char.code 'a' + i)) in
    let n = Unix.write_substring fd block 0 bs in
    Alcotest.(check int) "block written" bs n
  done;
  let c = Store.Block_cache.create ~block_size:bs ~capacity:2 () in
  let buf = Bytes.create bs in
  let read_block i =
    Store.Block_cache.read c fd ~off:(i * bs) ~len:bs ~dst:buf ~dst_off:0;
    Alcotest.(check char)
      (Printf.sprintf "block %d content" i)
      (Char.chr (Char.code 'a' + i))
      (Bytes.get buf 0)
  in
  read_block 0;
  read_block 1;
  Alcotest.(check (list int))
    "MRU order after 0,1" [ 1; 0 ]
    (Store.Block_cache.cached_blocks c);
  read_block 0;
  Alcotest.(check (list int))
    "re-read refreshes recency" [ 0; 1 ]
    (Store.Block_cache.cached_blocks c);
  read_block 2;
  (* capacity 2: the LRU block (1) goes, not the refreshed one (0) *)
  Alcotest.(check (list int))
    "LRU evicted" [ 2; 0 ]
    (Store.Block_cache.cached_blocks c);
  Alcotest.(check bool) "1 gone" false (Store.Block_cache.cached c 1);
  let s = Store.Block_cache.stats c in
  Alcotest.(check int) "one eviction so far" 1 s.Store.Block_cache.evictions;
  Alcotest.(check int) "one hit (the re-read)" 1 s.Store.Block_cache.hits;
  Alcotest.(check int) "three misses" 3 s.Store.Block_cache.misses;
  Alcotest.(check int)
    "miss bytes came from the file" (3 * bs)
    s.Store.Block_cache.bytes_read;
  (* pinned blocks survive any amount of cache pressure *)
  Store.Block_cache.pin c 2;
  read_block 3;
  read_block 4;
  read_block 5;
  Alcotest.(check bool) "pinned block still resident" true
    (Store.Block_cache.cached c 2);
  Store.Block_cache.unpin c 2;
  read_block 3;
  read_block 4;
  read_block 5;
  Alcotest.(check bool) "unpinned block evictable again" false
    (Store.Block_cache.cached c 2);
  Alcotest.check_raises "pin of a non-resident block" Not_found (fun () ->
      Store.Block_cache.pin c 2);
  (* block 5 is resident (just read) but unpinned *)
  (match Store.Block_cache.unpin c 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unpin of an unpinned block must raise");
  (* a read spanning several blocks reassembles the file bytes *)
  let span = Bytes.create (2 * bs) in
  Store.Block_cache.read c fd ~off:(bs / 2) ~len:(2 * bs) ~dst:span ~dst_off:0;
  Alcotest.(check char) "span start" 'a' (Bytes.get span (bs / 2 - 1));
  Alcotest.(check char) "span middle" 'b' (Bytes.get span (bs / 2));
  Alcotest.(check char) "span end" 'c' (Bytes.get span (2 * bs - 1))

(* ---- Store.Memo ------------------------------------------------------ *)

let memo_key i = Printf.sprintf "state-%06d-%s" i (String.make (i mod 5) 'p')
let memo_val i = float_of_int i *. 0.0625

let test_memo_exactly_once_across_spills () =
  let n = 5_000 in
  let st = Store.Memo.create ~budget:tiny_budget () in
  Fun.protect ~finally:(fun () -> Store.Memo.close st) @@ fun () ->
  let buf = Bytes.create 64 in
  let claim i =
    let key = memo_key i in
    Bytes.blit_string key 0 buf 0 (String.length key);
    Store.Memo.find_or_claim_slice st buf ~len:(String.length key) ~owner:0
  in
  for i = 0 to n - 1 do
    (match claim i with
    | `Claimed key ->
        Alcotest.(check string) "claim echoes the key" (memo_key i) key;
        (* a re-probe of a live claim by the same owner is the cycle
           signal, never a second claim *)
        (match claim i with
        | `Busy 0 -> ()
        | _ -> Alcotest.fail "re-probe of a live claim must be `Busy");
        Store.Memo.resolve st key (memo_val i)
    | `Value _ | `Busy _ -> Alcotest.fail "fresh key already present");
    match claim i with
    | `Value v -> exact "resolved value readable immediately" (memo_val i) v
    | _ -> Alcotest.fail "resolved key must answer `Value"
  done;
  let s = Store.Memo.stats st in
  Alcotest.(check bool)
    "the budget forced spilling" true
    (s.Store.Memo.spilled_entries > 0 && s.Store.Memo.spill_runs > 0);
  Alcotest.(check int) "every entry resolved once" n s.Store.Memo.resolved;
  (* every key — spilled or resident — still answers bit-exactly *)
  for i = 0 to n - 1 do
    match Store.Memo.get st (memo_key i) with
    | Some v -> exact "get after spills" (memo_val i) v
    | None -> Alcotest.failf "key %d lost across spills" i
  done;
  let s = Store.Memo.stats st in
  Alcotest.(check bool)
    "full sweep read through the disk tier" true
    (s.Store.Memo.disk_hits > 0);
  match Store.Memo.resolve st (memo_key 0) 0.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double resolve must raise"

let test_memo_stats_shape () =
  let st = Store.Memo.create ~budget:tiny_budget () in
  Fun.protect ~finally:(fun () -> Store.Memo.close st) @@ fun () ->
  for i = 0 to 2_000 do
    let key = memo_key i in
    match
      Store.Memo.find_or_claim_slice st
        (Bytes.of_string key)
        ~len:(String.length key) ~owner:0
    with
    | `Claimed key -> Store.Memo.resolve st key (memo_val i)
    | _ -> Alcotest.fail "fresh key"
  done;
  let s = Store.Memo.stats st in
  Alcotest.(check bool)
    "write amplification >= 1 once spilled" true
    (Store.Memo.write_amplification s >= 1.0);
  Alcotest.(check bool)
    "hit rate within [0,1]" true
    (let r = Store.Memo.cache_hit_rate s in
     r >= 0.0 && r <= 1.0);
  Alcotest.(check bool)
    "resident estimate positive" true
    (s.Store.Memo.resident_bytes >= 0);
  Alcotest.(check bool)
    "spills compacted into fewer live runs" true
    (s.Store.Memo.compactions > 0
    && s.Store.Memo.bytes_compacted > 0
    && s.Store.Memo.live_runs > 0
    && s.Store.Memo.live_runs < s.Store.Memo.spill_runs)

(* ---- budgeted solves are bit-identical to in-RAM solves --------------- *)

(* Weakener_atomic exposes no [reset]; a private functor instantiation
   gives this test its own memo table. *)
module Atomic_solver = Mdp.Solver.Make (Model.Weakener_atomic.Game)

let check_spilled label (ss : Store.Memo.stats option) =
  match ss with
  | None -> Alcotest.failf "%s: budgeted solve armed no store" label
  | Some s ->
      Alcotest.(check bool)
        (label ^ ": budget forced spilling")
        true
        (s.Store.Memo.spilled_entries > 0)

(* Solve twice — in-RAM, then under a spill-forcing budget — and demand
   bit-identical values and distinct-state counts. The exactly-once claim
   protocol makes both deterministic even at jobs > 1 (memo hit counts
   are schedule-dependent there, so only jobs = 1 compares them). *)
let game_determinism ~label ~jobs ~expect_spill ~reset ~states ~store_stats
    solve =
  reset ();
  let v_ram = solve ~memo_budget:None ~jobs in
  let st_ram = states () in
  reset ();
  let v_sp = solve ~memo_budget:(Some tiny_budget) ~jobs in
  let st_sp = states () in
  exact (label ^ ": value bit-identical") v_ram v_sp;
  Alcotest.(check int) (label ^ ": distinct states identical") st_ram st_sp;
  if expect_spill then check_spilled label (store_stats ());
  reset ()

let test_games_deterministic ~jobs () =
  game_determinism
    ~label:(Printf.sprintf "abd k=1 jobs=%d" jobs)
    ~jobs ~expect_spill:true ~reset:Model.Weakener_abd.reset
    ~states:(fun () -> Model.Weakener_abd.explored_states ())
    ~store_stats:Model.Weakener_abd.store_stats
    (fun ~memo_budget ~jobs ->
      Model.Weakener_abd.bad_probability ?memo_budget ~jobs ~k:1 ());
  game_determinism
    ~label:(Printf.sprintf "va k=1 jobs=%d" jobs)
    ~jobs ~expect_spill:true ~reset:Model.Weakener_va.reset
    ~states:(fun () -> (Model.Weakener_va.solver_stats ()).Mdp.Solver.states)
    ~store_stats:Model.Weakener_va.store_stats
    (fun ~memo_budget ~jobs ->
      Model.Weakener_va.bad_probability ?memo_budget ~jobs ~k:1 ());
  game_determinism
    ~label:(Printf.sprintf "ghw-snapshot k=1 jobs=%d" jobs)
    ~jobs
      (* ~260 states sit under even the clamped budget's watermark *)
    ~expect_spill:false ~reset:Model.Ghw_snapshot_game.reset
    ~states:(fun () -> Model.Ghw_snapshot_game.explored_states ())
    ~store_stats:Model.Ghw_snapshot_game.store_stats
    (fun ~memo_budget ~jobs ->
      Model.Ghw_snapshot_game.afek_bad_probability ?memo_budget ~jobs ~k:1 ());
  game_determinism
    ~label:(Printf.sprintf "ghw-multi k=1 jobs=%d" jobs)
    ~jobs ~expect_spill:true ~reset:Model.Ghw_multi_game.reset
    ~states:(fun () -> Model.Ghw_multi_game.explored_states ())
    ~store_stats:Model.Ghw_multi_game.store_stats
    (fun ~memo_budget ~jobs ->
      Model.Ghw_multi_game.afek_bad_probability ?memo_budget ~jobs ~k:1 ());
  (* the atomic weakener is sequential-only: cover it on the jobs=1 leg *)
  if jobs = 1 then
    game_determinism ~label:"atomic jobs=1" ~jobs ~expect_spill:false
      ~reset:Atomic_solver.reset
      ~states:(fun () -> Atomic_solver.explored ())
      ~store_stats:Atomic_solver.store_stats
      (fun ~memo_budget ~jobs:_ ->
        Atomic_solver.value ?memo_budget Model.Weakener_atomic.init)

(* At jobs = 1 the solve order is fixed, so the budgeted run must also
   reproduce the exact memo hit/miss split and recursion depth. *)
let test_full_stats_identical_seq () =
  Model.Weakener_abd.reset ();
  let _ = Model.Weakener_abd.bad_probability ~k:1 () in
  let st_ram = Model.Weakener_abd.solver_stats () in
  Model.Weakener_abd.reset ();
  let _ = Model.Weakener_abd.bad_probability ~memo_budget:tiny_budget ~k:1 () in
  let st_sp = Model.Weakener_abd.solver_stats () in
  Model.Weakener_abd.reset ();
  Alcotest.(check int) "states" st_ram.Mdp.Solver.states st_sp.Mdp.Solver.states;
  Alcotest.(check int) "memo hits" st_ram.Mdp.Solver.memo_hits
    st_sp.Mdp.Solver.memo_hits;
  Alcotest.(check int) "memo misses" st_ram.Mdp.Solver.memo_misses
    st_sp.Mdp.Solver.memo_misses;
  Alcotest.(check int) "max depth" st_ram.Mdp.Solver.max_depth
    st_sp.Mdp.Solver.max_depth


(* The A.3.2 solve, Prob[ABD^2] = 5/8, under the 1 MiB budget the STORE
   bench uses: afterwards every shard's segment, reopened from disk,
   holds at most 10 live runs in a file at most twice their bytes. *)
let test_k2_compaction_bounds () =
  let saved = Filename.get_temp_dir_name () in
  let tmp = scratch_dir () in
  Fun.protect
    ~finally:(fun () ->
      Model.Weakener_abd.reset ();
      Filename.set_temp_dir_name saved;
      Array.iter
        (fun d -> rm_rf (Filename.concat tmp d))
        (try Sys.readdir tmp with Sys_error _ -> [||]);
      rm_rf tmp)
  @@ fun () ->
  Filename.set_temp_dir_name tmp;
  Model.Weakener_abd.reset ();
  let v = Model.Weakener_abd.bad_probability ~memo_budget:(1 lsl 20) ~k:2 () in
  exact "Prob[ABD^2]" 0.625 v;
  let s = Option.get (Model.Weakener_abd.store_stats ()) in
  let dir =
    match Sys.readdir tmp with
    | [| d |] -> Filename.concat tmp d
    | a ->
        Alcotest.failf "expected one store directory, found %d"
          (Array.length a)
  in
  let runs = ref 0 and entries = ref 0 in
  Array.iter
    (fun f ->
      let seg = seg_at (Filename.concat dir f) in
      let n = Store.Segment.runs seg in
      Alcotest.(check bool) (f ^ ": at most 10 live runs") true (n <= 10);
      Alcotest.(check bool)
        (f ^ ": file within twice its live bytes")
        true
        (Store.Segment.size seg <= 2 * Store.Segment.live_bytes seg);
      runs := !runs + n;
      entries := !entries + Store.Segment.entries seg;
      Store.Segment.close seg)
    (Sys.readdir dir);
  Alcotest.(check int)
    "recovered live runs match the stats" s.Store.Memo.live_runs !runs;
  Alcotest.(check int) "recovered entries match the stats"
    s.Store.Memo.spilled_entries !entries

let test_budget_parse () =
  let ok s = function
    | exp -> (
        match Mdp.Solver.parse_memo_budget s with
        | Ok n -> Alcotest.(check int) s exp n
        | Error e -> Alcotest.failf "%s: %s" s e)
  in
  ok "0" 0;
  ok "1024" 1024;
  ok "64K" (64 * 1024);
  ok "2M" (2 * 1024 * 1024);
  ok "1G" (1024 * 1024 * 1024);
  List.iter
    (fun s ->
      match Mdp.Solver.parse_memo_budget s with
      | Ok n -> Alcotest.failf "%S parsed to %d, expected an error" s n
      | Error _ -> ())
    [ ""; "-1"; "12Q"; "K"; "1.5M"; "abc" ]

let tests =
  [
    Alcotest.test_case "segment round-trip through reopen" `Quick
      test_segment_roundtrip;
    Alcotest.test_case "segment crash-tail recovery" `Quick
      test_segment_recovery;
    Alcotest.test_case "segment compaction round-trip through reopen" `Quick
      test_segment_compaction_recovery;
    Alcotest.test_case "segment torn merge recovers its inputs" `Quick
      test_segment_torn_merge;
    Alcotest.test_case "segment pre-compaction format opens unchanged" `Quick
      test_segment_legacy_format;
    Alcotest.test_case "segment fence-pointer edges" `Quick test_fence_edges;
    Alcotest.test_case "block cache LRU order and pinning" `Quick
      test_block_cache_lru;
    Alcotest.test_case "memo exactly-once across spills" `Quick
      test_memo_exactly_once_across_spills;
    Alcotest.test_case "memo stats shape" `Quick test_memo_stats_shape;
    Alcotest.test_case "memo budget parsing" `Quick test_budget_parse;
    Alcotest.test_case "all games bit-identical when spilled (jobs 1)" `Quick
      (test_games_deterministic ~jobs:1);
    Alcotest.test_case "all games bit-identical when spilled (jobs 4)" `Slow
      (test_games_deterministic ~jobs:4);
    Alcotest.test_case "full solver stats identical at jobs 1" `Slow
      test_full_stats_identical_seq;
    Alcotest.test_case "k=2 budgeted solve keeps segments compact" `Slow
      test_k2_compaction_bounds;
  ]
