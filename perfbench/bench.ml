(* One benchmark run of one workload: the untraced end-to-end run, or
   the traced run that attributes a solve's time to the model, key and
   memo layers. Every solve passes the correctness gate of
   {!Workload.matches_reference}; a run reports how many solves it
   attempted and how many failed it. *)

type metric = { name : string; unit : string; value : float }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * Obs.Json.t) list;  (* sample counts, per-solve times *)
}

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let seconds_since t0 = float_of_int (Layers.now_ns () - t0) /. 1e9

(* Peak resident set of the process, in MB, from the kernel's VmHWM. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

(* Set-up timed in five batches of 200, each long enough (10 to 30 ms)
   to average out clock and scheduler noise; [setup_s] is the median
   batch's time per set-up. The count is fixed, not calibrated, so the
   garbage the batches leave, and with it the peak RSS, is the same in
   every run. Every set-up but the last shuts its pool down again,
   untimed; the last pool serves the timed solve. *)
let setup w =
  let keep = ref None in
  let once () =
    let t0 = Layers.now_ns () in
    let pool = Workload.setup_once w in
    let dt = Layers.now_ns () - t0 in
    Option.iter Par.Pool.shutdown !keep;
    keep := pool;
    dt
  in
  let reps = 200 in
  let batches =
    List.init 5 (fun _ ->
        let total = ref 0 in
        for _ = 1 to reps do
          total := !total + once ()
        done;
        float_of_int !total /. float_of_int reps /. 1e9)
  in
  (median batches, !keep)

(* What one solve process reports. *)
type sample = {
  ok : bool;  (* value bits and distinct-state count match the reference *)
  wall_s : float;
  cpu_s : float;
  states : int;
  rss_mb : float;
  setup_s : float;
}

let sample w =
  let setup_s, pool = setup w in
  Fun.protect
    ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
    (fun () ->
      let s = Workload.untraced ?pool w in
      if not (Workload.matches_reference w s) then
        Printf.eprintf "perfbench: %s solve returned %h with %d states\n%!"
          w.Workload.name s.value s.stats.states;
      {
        ok = Workload.matches_reference w s;
        wall_s = s.wall_s;
        cpu_s = s.cpu_s;
        states = s.stats.states;
        rss_mb = peak_rss_mb ();
        setup_s;
      })

(* [in_child f] runs [f] in a forked child process and returns its
   result, or the exception it raised, once the child has exited. The
   calling process must not have spawned a domain: OCaml forbids fork
   after that. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "the solve process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r

(* Each solve runs in a fresh process, with its own set-up, until the
   next one would end past [seconds], but at least two run. A fresh
   process gives every solve its own heap and its own physical memory,
   whose placement sets much of a memory-bound solve's speed on a
   virtual machine; in one process all solves share one placement.

   Times are the mean over the run's solves, not the median: the
   parallel solve's times are bimodal (about 5.5 s or 8 s for abd3-par2
   on a 2-core VM), and the median of the 4 to 6 solves a run holds
   flips between the modes from run to run, while the mean moves with
   the share of slow solves. Peak RSS and set-up time are medians. *)
let end_to_end w ~seconds =
  let t0 = Layers.now_ns () in
  let rec loop acc failed =
    let acc, failed =
      match in_child (fun () -> sample w) with
      | Ok s when s.ok -> (s :: acc, failed)
      | Ok _ -> (acc, failed + 1)
      | Error e ->
          Printf.eprintf "perfbench: %s solve raised %s\n%!" w.Workload.name e;
          (acc, failed + 1)
    in
    let n = List.length acc + failed in
    let per_solve = seconds_since t0 /. float_of_int n in
    if failed = 0 && (n < 2 || seconds_since t0 +. per_solve <= seconds) then
      loop acc failed
    else (acc, failed)
  in
  let ok, failed = loop [] 0 in
  let mean f =
    List.fold_left (fun a s -> a +. f s) 0.0 ok /. float_of_int (List.length ok)
  in
  let solve_s = mean (fun s -> s.wall_s) in
  let states = match ok with s :: _ -> s.states | [] -> 0 in
  let metric name unit value = { name; unit; value } in
  {
    attempted = List.length ok + failed;
    failed;
    metrics =
      [
        metric "solve_s" "s" solve_s;
        metric "states_per_s" "1/s" (float_of_int states /. solve_s);
        metric "cpu_s" "s" (mean (fun s -> s.cpu_s));
        metric "peak_rss_mb" "MB" (median (List.map (fun s -> s.rss_mb) ok));
        metric "setup_s" "s" (median (List.map (fun s -> s.setup_s) ok));
      ];
    notes =
      [
        ("solves", Obs.Json.Int (List.length ok));
        ( "solve_s_each",
          Obs.Json.List
            (List.rev_map (fun s -> Obs.Json.Float s.wall_s) ok) );
      ];
  }

let no_par =
  {
    Mdp.Solver.domains = [];
    distinct_keys = 0;
    duplicated_keys = 0;
    duplicated_work_pct = 0.0;
    steals = 0;
    claim_hits = 0;
    claim_misses = 0;
    pruned_subtrees = 0;
  }

let no_replay =
  {
    Replay.claims = 0;
    hits = 0;
    busy = 0;
    wrong = 0;
    miss_ns = 0.0;
    hit_ns = 0.0;
    total_s = 0.0;
  }

(* The traced run: one untraced solve (the baseline for the tracing
   overhead, and the source of the exact par, store and GC counters),
   one traced solve of the same root, then the memo replay of the traced
   solve's probe sequence. The traced solve must agree with the untraced
   one and the reference bit for bit, make one key encoding per memo
   probe and capture every visited key, and every replay must claim
   each of the solve's memoized keys exactly once. *)
let traced w =
  let pool =
    if w.Workload.jobs > 1 then Some (Par.Pool.create ~jobs:w.jobs) else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
  @@ fun () ->
  let base = Workload.untraced ?pool w in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let base_ok = Workload.matches_reference w base in
  if not base_ok then
    Printf.eprintf
      "perfbench: %s: untraced solve returned %h with %d states\n%!" w.name
      base.value base.stats.states;
  (* everything checked from here on belongs to the traced solve *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let tr = Workload.traced ?pool w in
  if not (Workload.matches_reference w tr) then
    fail "traced solve returned %h with %d states" tr.value tr.stats.states;
  (* a parallel solve's hit count and depth depend on the schedule *)
  let same_work =
    if w.jobs > 1 then
      tr.stats.states = base.stats.states
      && tr.stats.memo_misses = base.stats.memo_misses
    else tr.stats = base.stats
  in
  if
    Int64.bits_of_float tr.value <> Int64.bits_of_float base.value
    || not same_work
  then fail "traced solve differs from the untraced one";
  let domains = Layers.snapshot () in
  let sum f = List.fold_left (fun a d -> a + f d) 0 domains in
  let fsum f = List.fold_left (fun a d -> a +. f d) 0.0 domains in
  let probes = sum (fun d -> d.Layers.encode_calls) in
  let solver_probes =
    tr.stats.memo_hits + tr.stats.memo_misses
    + (Option.value tr.par ~default:no_par).claim_misses
  in
  if probes <> solver_probes then
    fail "%d key encodings for %d memo probes" probes solver_probes;
  let keys = Layers.captured_keys () in
  if Array.length keys <> w.ref_keys then
    fail "captured %d keys, expected %d" (Array.length keys) w.ref_keys;
  let seqs =
    match
      Replay.sequences keys
        (List.map
           (fun d -> (d.Layers.probe_fingerprints, d.Layers.resolves))
           domains)
    with
    | Ok seqs -> seqs
    | Error msg ->
        fail "%s" msg;
        []
  in
  let clock_ns = Layers.clock_cost_ns () in
  (* only a replay on two domains may find a key claimed, not resolved *)
  let check ?(busy_ok = false) name (r : Replay.t) =
    if
      r.claims <> tr.stats.states
      || r.claims + r.hits <> probes
      || r.wrong <> 0
      || (r.busy <> 0 && not busy_ok)
    then
      fail "%s replay claimed %d of %d keys in %d of %d probes, %d busy, %d \
            wrong"
        name r.claims tr.stats.states (r.claims + r.hits) probes r.busy
        r.wrong;
    r
  in
  let slice = check "slice" (Replay.slice_tbl ~clock_ns keys seqs) in
  let sharded =
    check "sharded" (Replay.sharded ~clock_ns ~participants:1 keys seqs)
  in
  let sharded2 =
    check ~busy_ok:true "sharded2"
      (Replay.sharded ~clock_ns ~participants:2 keys seqs)
  in
  let store =
    match w.memo_budget with
    | Some budget ->
        let r, stats = Replay.store ~clock_ns ~budget keys seqs in
        (* a sequential replay makes the solve's store traffic exactly *)
        if w.jobs = 1 && Some stats <> base.store then
          fail "store replay's telemetry differs from the solve's";
        check "store" r
    | None -> no_replay
  in
  (* the backend the workload's solve probes *)
  let memo =
    match w.memo_budget with
    | Some _ -> store
    | None -> if w.jobs > 1 then sharded2 else slice
  in
  (* every timed interval contains one clock read *)
  let net ns calls =
    Float.max 0.0 (float_of_int ns -. (float_of_int calls *. clock_ns)) /. 1e9
  in
  let moves_s (d : Layers.domain_totals) =
    net d.moves_ns (d.moves_calls + d.moves_aux_calls)
  in
  let apply_s (d : Layers.domain_totals) = net d.apply_ns d.apply_calls in
  let undo_s (d : Layers.domain_totals) = net d.undo_ns d.undo_calls in
  let key_s (d : Layers.domain_totals) = net d.encode_ns d.encode_calls in
  let model_s = fsum moves_s +. fsum apply_s +. fsum undo_s in
  let keys_s = fsum key_s in
  let capture_s = float_of_int (sum (fun d -> d.capture_ns)) /. 1e9 in
  (* the solve's time on all its participants: the parallel workload's
     layer time is summed over its two domains *)
  let domain_s = tr.wall_s *. float_of_int w.jobs in
  let residual_s = domain_s -. model_s -. keys_s -. memo.total_s -. capture_s in
  let ns_per x calls =
    if calls = 0 then 0.0 else x *. 1e9 /. float_of_int calls
  in
  let busy_frac =
    fsum (fun d ->
        (moves_s d +. apply_s d +. undo_s d +. key_s d) /. tr.wall_s)
    /. float_of_int w.jobs
  in
  let par = Option.value base.par ~default:no_par in
  let imbalance =
    match par.domains with
    | [] -> 1.0
    | ds ->
        let counts =
          List.map
            (fun (d : Mdp.Solver.domain_stats) -> float_of_int d.stats.states)
            ds
        in
        let mean = List.fold_left ( +. ) 0.0 counts /. float_of_int w.jobs in
        List.fold_left Float.max 0.0 counts /. mean
  in
  let st f = match base.store with Some x -> f x | None -> 0.0 in
  let mb b = float_of_int b /. 1048576.0 in
  let m name unit value = { name; unit; value } in
  let i name unit v = m name unit (float_of_int v) in
  let metrics =
    [
      i "model.moves_calls" "count" (sum (fun d -> d.moves_calls));
      i "model.apply_calls" "count" (sum (fun d -> d.apply_calls));
      m "model.moves_ns" "ns"
        (ns_per (fsum moves_s) (sum (fun d -> d.moves_calls)));
      m "model.apply_ns" "ns"
        (ns_per (fsum apply_s) (sum (fun d -> d.apply_calls)));
      m "model.undo_ns" "ns"
        (ns_per (fsum undo_s) (sum (fun d -> d.undo_calls)));
      m "model.share" "ratio" (model_s /. domain_s);
      i "key.encode_calls" "count" probes;
      m "key.encode_ns" "ns" (ns_per keys_s probes);
      m "key.share" "ratio" (keys_s /. domain_s);
      i "memo.probes" "count" probes;
      m "memo.hit_rate" "ratio"
        (float_of_int (probes - tr.stats.memo_misses) /. float_of_int probes);
      m "memo.slice_hit_ns" "ns" slice.hit_ns;
      m "memo.slice_miss_ns" "ns" slice.miss_ns;
      m "memo.sharded_hit_ns" "ns" sharded.hit_ns;
      m "memo.sharded_miss_ns" "ns" sharded.miss_ns;
      m "memo.sharded2_hit_ns" "ns" sharded2.hit_ns;
      m "memo.sharded2_miss_ns" "ns" sharded2.miss_ns;
      m "memo.store_hit_ns" "ns" store.hit_ns;
      m "memo.store_miss_ns" "ns" store.miss_ns;
      m "memo.share" "ratio" (memo.total_s /. domain_s);
      m "mdp.traced_solve_s" "s" tr.wall_s;
      m "mdp.residual_s" "s" residual_s;
      m "mdp.residual_share" "ratio" (residual_s /. domain_s);
      i "mdp.max_depth" "count" tr.stats.max_depth;
      i "par.steals" "count" par.steals;
      i "par.claim_hits" "count" par.claim_hits;
      i "par.claim_misses" "count" par.claim_misses;
      m "par.imbalance" "ratio" imbalance;
      m "par.cpu_per_wall" "ratio" (base.cpu_s /. base.wall_s);
      m "par.domain_busy_frac" "ratio" busy_frac;
      m "store.spill_runs" "count"
        (st (fun x -> float_of_int x.Store.Memo.spill_runs));
      m "store.bytes_spilled_mb" "MB" (st (fun x -> mb x.bytes_spilled));
      m "store.bytes_read_mb" "MB" (st (fun x -> mb x.bytes_read));
      m "store.read_amp" "ratio" (st Store.Memo.read_amplification);
      m "store.write_amp" "ratio" (st Store.Memo.write_amplification);
      m "store.cache_hit_rate" "ratio" (st Store.Memo.cache_hit_rate);
      m "store.evictions" "count" (st (fun x -> float_of_int x.evictions));
      m "store.disk_hits" "count" (st (fun x -> float_of_int x.disk_hits));
      m "store.resident_kb" "KB"
        (st (fun x -> float_of_int x.resident_bytes /. 1024.0));
      m "gc.minor_words_per_state" "words"
        (base.minor_words /. float_of_int base.stats.states);
      i "gc.major_collections" "count" base.major_collections;
      m "gc.top_heap_mb" "MB" (mb (top_heap_words * (Sys.word_size / 8)));
      m "trace.overhead_frac" "ratio" ((tr.wall_s /. base.wall_s) -. 1.0);
      m "trace.capture_s" "s" capture_s;
      m "trace.clock_ns" "ns" clock_ns;
    ]
  in
  List.iter
    (fun msg -> Printf.eprintf "perfbench: %s: %s\n%!" w.name msg)
    (List.rev !failures);
  {
    attempted = 2;
    failed = Bool.to_int (not base_ok) + Bool.to_int (!failures <> []);
    metrics;
    notes =
      [
        ("untraced_solve_s", Obs.Json.Float base.wall_s);
        ("replayed_keys", Obs.Json.Int (Array.length keys));
        ( "traced_domains",
          Obs.Json.List
            (List.map (fun d -> Obs.Json.Int d.Layers.domain_id) domains) );
      ];
  }

(* The result line: correct only when no solve failed and every metric
   was measured. *)
let correct o =
  o.failed = 0 && o.metrics <> []
  && List.for_all (fun m -> Float.is_finite m.value) o.metrics

let result_json o =
  let metric m =
    (m.name, Obs.Json.Obj [ ("value", Float m.value); ("unit", String m.unit) ])
  in
  Obs.Json.Obj
    [
      ("correct", Bool (correct o));
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ("metrics", Obj (List.map metric o.metrics));
    ]

let summary_json o =
  let fail_frac = float_of_int o.failed /. float_of_int o.attempted in
  Obs.Json.Obj
    [ ("summary", Obj (("fail_frac", Float fail_frac) :: o.notes)) ]
