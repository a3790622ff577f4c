(* The work-stealing solver's soundness battery: the Chase–Lev deque and
   the sharded claim table uphold their exactly-once contracts under
   concurrency, value_par is bit-identical to the sequential solve at
   every job count, chance nodes fold left to right, and the parallel
   telemetry is fresh (never describes work an intervening solve
   overwrote). *)

let exact = Alcotest.(check (float 0.0))

(* ---- Par.Deque ------------------------------------------------------- *)

let test_deque_orders () =
  let q = Par.Deque.create () in
  Alcotest.(check bool) "fresh deque empty" true (Par.Deque.is_empty q);
  Alcotest.(check (option int)) "pop on empty" None (Par.Deque.pop q);
  for i = 1 to 10 do
    Par.Deque.push q i
  done;
  Alcotest.(check int) "length" 10 (Par.Deque.length q);
  (* owner end is LIFO: freshly pushed (hot) work first *)
  for i = 10 downto 1 do
    Alcotest.(check (option int)) "pop is LIFO" (Some i) (Par.Deque.pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Par.Deque.pop q);
  (* thief end is FIFO: the oldest (largest) subtree first *)
  for i = 1 to 10 do
    Par.Deque.push q i
  done;
  for i = 1 to 10 do
    match Par.Deque.steal q with
    | Par.Deque.Stolen x -> Alcotest.(check int) "steal is FIFO" i x
    | _ -> Alcotest.fail "steal on non-empty deque"
  done;
  match Par.Deque.steal q with
  | Par.Deque.Empty -> ()
  | _ -> Alcotest.fail "steal on drained deque"

let test_deque_interleaved () =
  let q = Par.Deque.create () in
  Par.Deque.push q 1;
  Par.Deque.push q 2;
  Alcotest.(check (option int)) "pop newest" (Some 2) (Par.Deque.pop q);
  Par.Deque.push q 3;
  Alcotest.(check (option int)) "pop newest again" (Some 3) (Par.Deque.pop q);
  Alcotest.(check (option int)) "pop oldest" (Some 1) (Par.Deque.pop q);
  Alcotest.(check (option int)) "empty" None (Par.Deque.pop q)

let test_deque_growth () =
  let q = Par.Deque.create ~capacity:4 () in
  let c0 = Par.Deque.capacity q in
  Alcotest.(check bool) "minimum capacity" true (c0 >= 4);
  let n = 1_000 in
  for i = 0 to n - 1 do
    Par.Deque.push q i
  done;
  Alcotest.(check bool)
    "capacity grew to hold the items" true
    (Par.Deque.capacity q >= n);
  Alcotest.(check int) "nothing lost across growth" n (Par.Deque.length q);
  let seen = Array.make n false in
  for _ = 1 to n do
    match Par.Deque.pop q with
    | Some x -> seen.(x) <- true
    | None -> Alcotest.fail "premature empty"
  done;
  Alcotest.(check bool)
    "every pushed item came back" true
    (Array.for_all Fun.id seen)

(* Conservation under concurrent stealing: the owner pushes (and
   sometimes pops) while three thieves steal; afterwards, every pushed
   item must have been returned exactly once across all four ends. *)
let test_deque_steal_stress () =
  let q = Par.Deque.create () in
  let n = 20_000 in
  let finished = Atomic.make false in
  let stealer () =
    let rec go acc =
      match Par.Deque.steal q with
      | Par.Deque.Stolen x -> go (x :: acc)
      | Par.Deque.Contended -> go acc
      | Par.Deque.Empty ->
          if Atomic.get finished then acc
          else begin
            Domain.cpu_relax ();
            go acc
          end
    in
    go []
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn stealer) in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Par.Deque.push q i;
    if i mod 3 = 0 then
      match Par.Deque.pop q with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Par.Deque.pop q with
    | Some x ->
        popped := x :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set finished true;
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (!popped @ stolen) in
  Alcotest.(check int) "item count conserved" n (List.length all);
  List.iteri
    (fun i x ->
      if i <> x then Alcotest.failf "item %d returned %d times or reordered" i (x - i))
    all

(* ---- Par.Sharded_tbl ------------------------------------------------- *)

let claim t key ~owner =
  Par.Sharded_tbl.find_or_claim_slice t (Bytes.of_string key)
    ~len:(String.length key) ~owner

let test_tbl_claim_protocol () =
  let t : int Par.Sharded_tbl.t = Par.Sharded_tbl.create () in
  (match claim t "k" ~owner:0 with
  | `Claimed "k" -> ()
  | _ -> Alcotest.fail "first probe must claim, echoing the key");
  (match claim t "k" ~owner:0 with
  | `Busy 0 -> ()  (* self re-entry: what the solver maps to Cyclic *)
  | _ -> Alcotest.fail "self re-probe must report own claim");
  (match claim t "k" ~owner:1 with
  | `Busy 0 -> ()
  | _ -> Alcotest.fail "other owner must see the claimant's id");
  Alcotest.(check (option int)) "claimed is not resolved" None
    (Par.Sharded_tbl.get t "k");
  Par.Sharded_tbl.resolve t "k" 42;
  (match claim t "k" ~owner:1 with
  | `Value 42 -> ()
  | _ -> Alcotest.fail "post-resolve probe must return the value");
  Alcotest.(check (option int)) "get after resolve" (Some 42)
    (Par.Sharded_tbl.get t "k")

let test_tbl_double_resolve () =
  let t : int Par.Sharded_tbl.t = Par.Sharded_tbl.create () in
  ignore (claim t "k" ~owner:0);
  Par.Sharded_tbl.resolve t "k" 1;
  match Par.Sharded_tbl.resolve t "k" 2 with
  | () -> Alcotest.fail "double resolve must raise"
  | exception Invalid_argument _ -> ()

let test_tbl_shard_rounding () =
  Alcotest.(check int) "default shards" 128
    (Par.Sharded_tbl.shard_count (Par.Sharded_tbl.create () : int Par.Sharded_tbl.t));
  Alcotest.(check int) "rounded up to a power of two" 128
    (Par.Sharded_tbl.shard_count
       (Par.Sharded_tbl.create ~shards:100 () : int Par.Sharded_tbl.t));
  Alcotest.(check int) "one shard accepted" 1
    (Par.Sharded_tbl.shard_count
       (Par.Sharded_tbl.create ~shards:1 () : int Par.Sharded_tbl.t))

(* Four domains race find_or_claim_slice over the same key set, each
   visiting the keys in a different order: every key must be claimed by
   exactly one domain, and the claim sets must partition the key space. *)
let test_tbl_concurrent_claims () =
  let t : int Par.Sharded_tbl.t = Par.Sharded_tbl.create () in
  let nkeys = 2_000 in
  let keys = Array.init nkeys (fun i -> "key:" ^ string_of_int i) in
  let claim_worker wid =
    let mine = ref [] in
    for j = 0 to nkeys - 1 do
      (* odd stride, coprime with the even key count: a full permutation,
         different per worker *)
      let i = ((j * ((2 * wid) + 1)) + (wid * 37)) mod nkeys in
      match claim t keys.(i) ~owner:wid with
      | `Claimed key ->
          Par.Sharded_tbl.resolve t key wid;
          mine := i :: !mine
      | `Busy _ | `Value _ -> ()
    done;
    !mine
  in
  let others = List.init 3 (fun k -> Domain.spawn (fun () -> claim_worker (k + 1))) in
  let mine = claim_worker 0 in
  let all = mine @ List.concat_map Domain.join others in
  Alcotest.(check int) "every key claimed exactly once" nkeys (List.length all);
  Alcotest.(check int) "claim sets disjoint" nkeys
    (List.length (List.sort_uniq compare all));
  Array.iteri
    (fun i key ->
      if Par.Sharded_tbl.get t key = None then
        Alcotest.failf "key %d claimed but never resolved" i)
    keys

(* Lock-free hits under resizes: on a single shard, one domain claims
   and resolves 50 000 keys (growing the shard table from 512 buckets
   through seven doublings) while another probes keys already resolved
   (published through [upto]) and a key held claimed throughout. A
   resolved key must always read as its value, through both
   find_or_claim_slice and get; the held key must always answer
   [`Busy 0]; no probe may raise. *)
let test_tbl_unlocked_reads_during_grow () =
  let t : int Par.Sharded_tbl.t = Par.Sharded_tbl.create ~shards:1 () in
  let n = 50_000 in
  let keys = Array.init n (fun i -> "key:" ^ string_of_int i) in
  (match claim t "held" ~owner:0 with
  | `Claimed _ -> ()
  | _ -> Alcotest.fail "the held key must claim");
  let upto = Atomic.make 0 and finished = Atomic.make false in
  let reader () =
    let rng = Random.State.make [| 7 |] and probes = ref 0 in
    while not (Atomic.get finished) do
      let m = Atomic.get upto in
      if m > 0 then begin
        let i = Random.State.int rng m in
        (match claim t keys.(i) ~owner:1 with
        | `Value v when v = 3 * i -> ()
        | `Value v -> Alcotest.failf "key %d read as %d" i v
        | `Busy o ->
            Alcotest.failf "resolved key %d read as busy (owner %d)" i o
        | `Claimed _ -> Alcotest.failf "resolved key %d claimed again" i);
        if Par.Sharded_tbl.get t keys.(i) <> Some (3 * i) then
          Alcotest.failf "get of resolved key %d" i;
        incr probes
      end;
      match claim t "held" ~owner:1 with
      | `Busy 0 -> ()
      | _ -> Alcotest.fail "the held claim must answer `Busy 0"
    done;
    !probes
  in
  let d = Domain.spawn reader in
  Array.iteri
    (fun i k ->
      match claim t k ~owner:0 with
      | `Claimed key ->
          Par.Sharded_tbl.resolve t key (3 * i);
          Atomic.set upto (i + 1)
      | _ -> Alcotest.failf "key %d was not fresh" i)
    keys;
  Atomic.set finished true;
  let probes = Domain.join d in
  Alcotest.(check bool) "the reader probed" true (probes > 0);
  Alcotest.(check (option int)) "held key unresolved" None
    (Par.Sharded_tbl.get t "held")

(* ---- Par.Pool.scatter ------------------------------------------------ *)

let test_scatter_exactly_once () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let n = 64 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      Par.Pool.scatter pool ~n (fun i -> Atomic.incr counts.(i));
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "index %d ran %d times" i (Atomic.get c))
        counts);
  (* the sequential jobs=1 path *)
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      let hit = ref 0 in
      Par.Pool.scatter pool ~n:5 (fun _ -> incr hit);
      Alcotest.(check int) "jobs=1 runs every index" 5 !hit)

(* ---- determinism battery: value_par = value ------------------------- *)

(* Fresh solver instances, so this battery cannot interfere with
   test_par.ml's instances over the same games. *)
module Atomic_s = Mdp.Solver.Make (Model.Weakener_atomic.Game)
module Abd_s = Mdp.Solver.Make (Model.Weakener_abd.Game)
module Va_s = Mdp.Solver.Make (Model.Weakener_va.Game)
module Ghw_s = Mdp.Solver.Make (Model.Ghw_snapshot_game.Game)

type 'a harness = {
  value : 'a -> float;
  value_par : jobs:int -> 'a -> float;
  explored : unit -> int;
  last : unit -> Mdp.Solver.par_stats option;
  reset : unit -> unit;
}

let atomic_h =
  {
    value = (fun s -> Atomic_s.value s);
    value_par = (fun ~jobs s -> Atomic_s.value_par ~jobs s);
    explored = Atomic_s.explored;
    last = Atomic_s.last_par_stats;
    reset = Atomic_s.reset;
  }

let abd_h =
  {
    value = (fun s -> Abd_s.value s);
    value_par = (fun ~jobs s -> Abd_s.value_par ~jobs s);
    explored = Abd_s.explored;
    last = Abd_s.last_par_stats;
    reset = Abd_s.reset;
  }

let va_h =
  {
    value = (fun s -> Va_s.value s);
    value_par = (fun ~jobs s -> Va_s.value_par ~jobs s);
    explored = Va_s.explored;
    last = Va_s.last_par_stats;
    reset = Va_s.reset;
  }

let ghw_h =
  {
    value = (fun s -> Ghw_s.value s);
    value_par = (fun ~jobs s -> Ghw_s.value_par ~jobs s);
    explored = Ghw_s.explored;
    last = Ghw_s.last_par_stats;
    reset = Ghw_s.reset;
  }

(* For every job count: values bit-identical to the sequential solve.
   Parallel solves additionally evaluate each shared-phase state exactly
   once: summed worker misses equal the table's distinct key count
   bit-exactly, and no key is ever duplicated — the shared-memo claim
   protocol's whole point, and the duplicate-share < 5% acceptance bar
   met at 0. distinct_keys is bounded by the sequential explored count
   (the root-side plan interior is evaluated by the caller, outside the
   shared table). *)
let check_matrix h name init jobs_list =
  h.reset ();
  let seq = h.value init in
  let n_seq = h.explored () in
  List.iter
    (fun jobs ->
      h.reset ();
      let v = h.value_par ~jobs init in
      exact (Fmt.str "%s: value_par jobs=%d" name jobs) seq v;
      if jobs > 1 then
        match h.last () with
        | None -> Alcotest.failf "%s: jobs=%d left no telemetry" name jobs
        | Some p ->
            if p.distinct_keys <= 0 || p.distinct_keys > n_seq then
              Alcotest.failf
                "%s: jobs=%d distinct keys %d outside (0, %d] (sequential \
                 state count)"
                name jobs p.distinct_keys n_seq;
            Alcotest.(check int)
              (Fmt.str "%s: jobs=%d no duplicated keys" name jobs)
              0 p.duplicated_keys;
            exact
              (Fmt.str "%s: jobs=%d duplicated work share" name jobs)
              0.0 p.duplicated_work_pct;
            let summed =
              List.fold_left
                (fun acc (d : Mdp.Solver.domain_stats) ->
                  acc + d.stats.memo_misses)
                0 p.domains
            in
            Alcotest.(check int)
              (Fmt.str "%s: jobs=%d each distinct key evaluated once" name jobs)
              p.distinct_keys summed)
    jobs_list;
  h.reset ()

let test_matrix_atomic () =
  check_matrix atomic_h "atomic" Model.Weakener_atomic.init [ 1; 2; 4; 8 ]

let test_matrix_abd () =
  check_matrix abd_h "ABD^1" (Model.Weakener_abd.init ~k:1 ()) [ 2; 4; 8 ]

let test_matrix_va () =
  check_matrix va_h "VA^1" (Model.Weakener_va.init ~k:1) [ 2; 8 ]

let test_matrix_ghw () =
  check_matrix ghw_h "ghw^1" (Model.Ghw_snapshot_game.init ~k:1) [ 2; 8 ]

(* ---- fold order ------------------------------------------------------ *)

(* A root with a safe move to a terminal worth 1.0, then a uniform
   [n]-way chance move to terminals worth 1.0. The chance value is the
   left-to-right float fold of [n] terms [1/n *. 1.0]: nine 1/9 terms
   round up to 1.0000000000000002, three 1/3 terms land on 1.0 — and the
   max over moves keeps whichever fold is larger. *)
module Split = struct
  type state = Root of int | Win of int
  type move = Safe | Split
  type transition = Det of state | Chance of (float * state) list

  let moves = function Root _ -> [ Safe; Split ] | Win _ -> []

  let apply s m =
    match (s, m) with
    | Root n, Split ->
        let p = 1.0 /. float_of_int n in
        Chance (List.init n (fun i -> (p, Win (i + 1))))
    | _ -> Det (Win 0)

  let terminal_value _ = 1.0

  let encode = function
    | Root n -> "r" ^ string_of_int n
    | Win i -> "w" ^ string_of_int i

  let encode_into s b = Mdp.Key.raw b (encode s)
  let pp_move ppf _ = Fmt.string ppf "move"
end

module Split_s = Mdp.Solver.Make (Split)

let test_chance_fold_order () =
  Split_s.reset ();
  exact "nine 1/9 terms fold above 1" 1.0000000000000002
    (Split_s.value (Split.Root 9));
  Split_s.reset ();
  exact "three 1/3 terms fold to 1" 1.0 (Split_s.value (Split.Root 3));
  Split_s.reset ()

(* ---- telemetry freshness (the staleness regression) ------------------ *)

let test_par_stats_freshness () =
  Atomic_s.reset ();
  let _ = Atomic_s.value_par ~jobs:2 Model.Weakener_atomic.init in
  Alcotest.(check bool)
    "value_par leaves telemetry" true
    (Atomic_s.last_par_stats () <> None);
  (* any subsequent root solve overwrites the memo the report described:
     the report must be cleared, not left stale *)
  let _ = Atomic_s.value Model.Weakener_atomic.init in
  Alcotest.(check bool)
    "sequential solve clears stale telemetry" true
    (Atomic_s.last_par_stats () = None);
  let _ = Atomic_s.value_par ~jobs:2 Model.Weakener_atomic.init in
  let _ = Atomic_s.value_par ~jobs:1 Model.Weakener_atomic.init in
  Alcotest.(check bool)
    "jobs=1 value_par (sequential path) clears telemetry too" true
    (Atomic_s.last_par_stats () = None);
  Atomic_s.reset ();
  Alcotest.(check bool)
    "reset clears telemetry" true
    (Atomic_s.last_par_stats () = None)

(* steal/claim counters are schedule-dependent, but their invariants are
   not: non-negative, and claim hits equal the summed domain hits *)
let test_par_stats_counters () =
  Atomic_s.reset ();
  let _ = Atomic_s.value_par ~jobs:4 Model.Weakener_atomic.init in
  (match Atomic_s.last_par_stats () with
  | None -> Alcotest.fail "no telemetry"
  | Some p ->
      Alcotest.(check bool) "steals >= 0" true (p.steals >= 0);
      Alcotest.(check bool) "claim_misses >= 0" true (p.claim_misses >= 0);
      Alcotest.(check int) "pruned_subtrees is constant 0" 0 p.pruned_subtrees;
      let summed_hits =
        List.fold_left
          (fun acc (d : Mdp.Solver.domain_stats) -> acc + d.stats.memo_hits)
          0 p.domains
      in
      Alcotest.(check int) "claim_hits = summed domain hits" summed_hits
        p.claim_hits);
  Atomic_s.reset ()

let tests =
  [
    Alcotest.test_case "deque: LIFO pop, FIFO steal" `Quick test_deque_orders;
    Alcotest.test_case "deque: interleaved push/pop" `Quick
      test_deque_interleaved;
    Alcotest.test_case "deque: growth conserves items" `Quick test_deque_growth;
    Alcotest.test_case "deque: concurrent steal conservation" `Quick
      test_deque_steal_stress;
    Alcotest.test_case "sharded_tbl: claim protocol" `Quick
      test_tbl_claim_protocol;
    Alcotest.test_case "sharded_tbl: double resolve raises" `Quick
      test_tbl_double_resolve;
    Alcotest.test_case "sharded_tbl: shard count rounding" `Quick
      test_tbl_shard_rounding;
    Alcotest.test_case "sharded_tbl: concurrent claims partition" `Quick
      test_tbl_concurrent_claims;
    Alcotest.test_case "sharded_tbl: unlocked reads during grows" `Quick
      test_tbl_unlocked_reads_during_grow;
    Alcotest.test_case "pool scatter runs each index once" `Quick
      test_scatter_exactly_once;
    Alcotest.test_case "matrix: atomic, jobs 1/2/4/8" `Quick test_matrix_atomic;
    Alcotest.test_case "matrix: ABD^1, jobs 2/4/8" `Slow test_matrix_abd;
    Alcotest.test_case "matrix: VA^1, jobs 2/8" `Quick test_matrix_va;
    Alcotest.test_case "matrix: ghw^1, jobs 2/8" `Quick test_matrix_ghw;
    Alcotest.test_case "chance folds left to right" `Quick
      test_chance_fold_order;
    Alcotest.test_case "par telemetry is never stale" `Quick
      test_par_stats_freshness;
    Alcotest.test_case "par telemetry counter invariants" `Quick
      test_par_stats_counters;
  ]
