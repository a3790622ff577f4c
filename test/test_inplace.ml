(* The in-place solving contract: [encode_into] must agree with [encode]
   byte-for-byte under buffer reuse for every game (the memo table probes
   on the reused buffer slice), and the packed presentation of the
   weakener-over-VA game must agree with its pure specification move by
   move — same enabled moves, same branch counts and bitwise-equal
   probabilities, byte-identical encodings along every walk, and a trail
   journal whose rewind restores the working state cell-for-cell. When
   all of that holds, the two solvers' values and work counters are
   bit-identical, which the last test checks end to end. *)

let exact = Alcotest.(check (float 0.0))

(* ---- encode_into agrees with encode, on one reused buffer ----------- *)

(* BFS the reachable states (capped) writing every key through a single
   shared buffer — the solver's usage pattern. Each key must match the
   fresh-buffer [encode] string exactly; a stale-cursor or short-reset
   bug would surface as a prefix/suffix mismatch after the first state
   whose key is shorter than its predecessor's. Injectivity then follows
   from the pure-encode battery in [Test_par.test_encode_canonical]. *)
let check_encode_into (type s) (module G : Mdp.Solver.GAME with type state = s)
    ~(init : s) ~cap name =
  let buf = Mdp.Key.create ~size:8 () in
  let seen : (s, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Queue.add init queue;
  while (not (Queue.is_empty queue)) && Hashtbl.length seen < cap do
    let s = Queue.pop queue in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      Mdp.Key.reset buf;
      G.encode_into s buf;
      let reused = Mdp.Key.contents buf in
      if not (String.equal reused (G.encode s)) then
        Alcotest.failf "%s: encode_into under buffer reuse diverged from encode"
          name;
      List.iter
        (fun m ->
          match G.apply s m with
          | G.Det s' -> Queue.add s' queue
          | G.Chance dist -> List.iter (fun (_, s') -> Queue.add s' queue) dist)
        (G.moves s)
    end
  done;
  Alcotest.(check bool)
    (Fmt.str "%s: visited a real state set" name)
    true
    (Hashtbl.length seen > 10)

let test_encode_into_roundtrip () =
  check_encode_into
    (module Model.Weakener_atomic.Game)
    ~init:Model.Weakener_atomic.init ~cap:10_000 "weakener_atomic";
  check_encode_into
    (module Model.Weakener_abd.Game)
    ~init:(Model.Weakener_abd.init ~k:1 ())
    ~cap:4_000 "weakener_abd";
  check_encode_into
    (module Model.Weakener_va.Game)
    ~init:(Model.Weakener_va.init ~k:1)
    ~cap:4_000 "weakener_va";
  check_encode_into
    (module Model.Ghw_snapshot_game.Game)
    ~init:(Model.Ghw_snapshot_game.init ~k:1)
    ~cap:4_000 "ghw_snapshot";
  check_encode_into
    (module Model.Ghw_multi_game.Game)
    ~init:(Model.Ghw_multi_game.init ~k:1)
    ~cap:4_000 "ghw_multi"

(* ---- packed VA vs pure VA, move by move ----------------------------- *)

module Pure = Model.Weakener_va.Game
module Packed = Model.Weakener_va_packed.Game

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* index of the r-th set bit, ascending — the order Make_inplace folds *)
let nth_set_bit mask r =
  let rec go m i r =
    if m land 1 = 1 then if r = 0 then i else go (m lsr 1) (i + 1) (r - 1)
    else go (m lsr 1) (i + 1) r
  in
  go mask 0 r

let packed_key qs = Mdp.Key.run (Packed.encode_into qs)

(* One seeded random walk driving both presentations in lockstep. At
   every step: agreeing encodings, agreeing move sets (the pure list is
   ascending by process id, the packed mask is folded ascending — the
   numbering GAME_INPLACE requires), agreeing branch counts with
   bitwise-equal probabilities; and before committing each step, the
   packed side applies / rewinds once and must land back exactly on the
   pre-step cells (compared against an independent deep copy, so the
   journal itself is what's under test). *)
let lockstep_walk ~k ~rng ~max_steps =
  let ps = ref (Model.Weakener_va.init ~k) in
  let qs = Model.Weakener_va_packed.init ~k in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps do
    incr steps;
    Alcotest.(check string)
      (Fmt.str "k=%d step %d: encodings agree" k !steps)
      (Pure.encode !ps) (packed_key qs);
    let pure_moves = Pure.moves !ps in
    let mask = Packed.moves qs in
    Alcotest.(check int)
      (Fmt.str "k=%d step %d: same move count" k !steps)
      (List.length pure_moves) (popcount mask);
    if mask = 0 then begin
      exact
        (Fmt.str "k=%d step %d: terminal values agree" k !steps)
        (Pure.terminal_value !ps)
        (Packed.terminal_value qs);
      continue := false
    end
    else begin
      let r = Util.Rng.int rng (List.length pure_moves) in
      let mid = nth_set_bit mask r in
      let pure_children =
        match Pure.apply !ps (List.nth pure_moves r) with
        | Pure.Det s' ->
            Alcotest.(check int)
              (Fmt.str "k=%d step %d: deterministic on both sides" k !steps)
              0 (Packed.branches qs mid);
            [| s' |]
        | Pure.Chance dist ->
            Alcotest.(check int)
              (Fmt.str "k=%d step %d: same branch count" k !steps)
              (List.length dist) (Packed.branches qs mid);
            List.iteri
              (fun j (p, _) ->
                exact
                  (Fmt.str "k=%d step %d: branch %d probability bitwise" k
                     !steps j)
                  p
                  (Packed.prob qs mid j))
              dist;
            Array.of_list (List.map snd dist)
      in
      let j = Util.Rng.int rng (Array.length pure_children) in
      (* apply, compare the child, rewind, compare the parent *)
      let snap = Model.Weakener_va_packed.copy qs in
      let parent_key = packed_key qs in
      let u = Packed.checkpoint qs in
      Packed.apply qs ~move:mid ~branch:j;
      Alcotest.(check string)
        (Fmt.str "k=%d step %d: child encodings agree" k !steps)
        (Pure.encode pure_children.(j))
        (packed_key qs);
      Packed.restore qs u;
      if not (Model.Weakener_va_packed.equal snap qs) then
        Alcotest.failf "k=%d step %d: rewind did not restore every cell" k
          !steps;
      Alcotest.(check string)
        (Fmt.str "k=%d step %d: rewound encoding is the parent's" k !steps)
        parent_key (packed_key qs);
      (* commit the step for real and walk on *)
      Packed.apply qs ~move:mid ~branch:j;
      ps := pure_children.(j)
    end
  done

let test_lockstep_random_walks () =
  List.iter
    (fun k ->
      let rng = Util.Rng.stream ~seed:20260 ~index:k in
      for _walk = 1 to 40 do
        lockstep_walk ~k ~rng ~max_steps:200
      done)
    [ 1; 2; 3 ]

(* Nested LIFO rewinds across several plies: checkpoints taken down a
   branch restore in reverse order, each landing exactly on its own
   snapshot — the discipline the DFS imposes on the journal. *)
let test_nested_undo () =
  let rng = Util.Rng.stream ~seed:7 ~index:0 in
  for _round = 1 to 50 do
    let qs = Model.Weakener_va_packed.init ~k:2 in
    (* walk a random prefix to a non-trivial interior state *)
    let depth = ref 0 in
    while !depth < 15 && Packed.moves qs <> 0 do
      incr depth;
      let mask = Packed.moves qs in
      let mid = nth_set_bit mask (Util.Rng.int rng (popcount mask)) in
      let n = Packed.branches qs mid in
      Packed.apply qs ~move:mid ~branch:(if n = 0 then 0 else Util.Rng.int rng n)
    done;
    (* then nest d checkpoints and unwind them all *)
    let stack = ref [] in
    let d = ref 0 in
    while !d < 8 && Packed.moves qs <> 0 do
      incr d;
      stack := (Packed.checkpoint qs, Model.Weakener_va_packed.copy qs) :: !stack;
      let mask = Packed.moves qs in
      let mid = nth_set_bit mask (Util.Rng.int rng (popcount mask)) in
      let n = Packed.branches qs mid in
      Packed.apply qs ~move:mid ~branch:(if n = 0 then 0 else Util.Rng.int rng n)
    done;
    List.iter
      (fun (u, snap) ->
        Packed.restore qs u;
        if not (Model.Weakener_va_packed.equal snap qs) then
          Alcotest.fail "nested rewind missed a cell")
      !stack
  done

(* ---- end to end: bit-identical values, stats, and a clean rewind ---- *)

module Pure_solver = Mdp.Solver.Make (Model.Weakener_va.Game)
module Inplace_solver = Mdp.Solver.Make_inplace (Model.Weakener_va_packed.Game)

let test_solver_bit_identical () =
  List.iter
    (fun k ->
      Pure_solver.reset ();
      let v_pure = Pure_solver.value (Model.Weakener_va.init ~k) in
      let st_pure = Pure_solver.stats () in
      Inplace_solver.reset ();
      let qs = Model.Weakener_va_packed.init ~k in
      let snap = Model.Weakener_va_packed.copy qs in
      let v_ip = Inplace_solver.value qs in
      let st_ip = Inplace_solver.stats () in
      exact (Fmt.str "k=%d: values bit-identical" k) v_pure v_ip;
      Alcotest.(check int)
        (Fmt.str "k=%d: same distinct states" k)
        st_pure.states st_ip.states;
      Alcotest.(check int)
        (Fmt.str "k=%d: same memo hits" k)
        st_pure.memo_hits st_ip.memo_hits;
      Alcotest.(check int)
        (Fmt.str "k=%d: same memo misses" k)
        st_pure.memo_misses st_ip.memo_misses;
      Alcotest.(check int)
        (Fmt.str "k=%d: same max depth" k)
        st_pure.max_depth st_ip.max_depth;
      (* the solve mutated the working state throughout and must hand it
         back journal-exactly *)
      if not (Model.Weakener_va_packed.equal snap qs) then
        Alcotest.failf "k=%d: solve did not rewind the working state" k)
    [ 1; 2; 3 ]

(* the public entry point routes sequential solves through the packed
   presentation — same value and same stats surface as the pure engine *)
let test_dispatch_agrees () =
  Model.Weakener_va.reset ();
  let v_seq = Model.Weakener_va.bad_probability ~k:2 () in
  let states_seq = Model.Weakener_va.explored_states () in
  Pure_solver.reset ();
  let v_pure = Pure_solver.value (Model.Weakener_va.init ~k:2) in
  exact "dispatched sequential value" v_pure v_seq;
  Alcotest.(check int)
    "dispatched state count" (Pure_solver.stats ()).states states_seq

(* ---- the pure-to-in-place adapter ---------------------------------- *)

(* A root with [n] moves, each to its own terminal worth [i / n]. *)
module Wide = struct
  type state = Root of int | Leaf of int * int
  type move = int
  type transition = Det of state | Chance of (float * state) list

  let moves = function Root n -> List.init n Fun.id | Leaf _ -> []
  let apply s i = match s with Root n -> Det (Leaf (i, n)) | Leaf _ -> Det s

  let terminal_value = function
    | Leaf (i, n) -> float_of_int i /. float_of_int n
    | Root _ -> 0.0

  let encode = function
    | Root n -> Fmt.str "r%d" n
    | Leaf (i, n) -> Fmt.str "l%d/%d" i n

  let encode_into s b = Mdp.Key.raw b (encode s)
  let pp_move = Fmt.int
end

module Wide_pure = Mdp.Solver.Of_pure (Wide)
module Wide_solver = Mdp.Solver.Make (Wide)

(* The move mask is an int: a state with Sys.int_size - 1 or more moves
   must be refused, not wrapped into a negative or truncated mask. *)
let test_of_pure_mask_guard () =
  let n = Sys.int_size - 2 in
  Alcotest.(check int)
    "largest mask" ((1 lsl n) - 1)
    (Wide_pure.moves (Wide_pure.of_state (Wide.Root n)));
  Wide_solver.reset ();
  exact "widest solvable root" (float_of_int (n - 1) /. float_of_int n)
    (Wide_solver.value (Wide.Root n));
  List.iter
    (fun n ->
      match Wide_pure.moves (Wide_pure.of_state (Wide.Root n)) with
      | m -> Alcotest.failf "%d moves gave mask %d" n m
      | exception Invalid_argument _ -> ())
    [ Sys.int_size - 1; 63 ];
  Wide_solver.reset ();
  match Wide_solver.value (Wide.Root 63) with
  | v -> Alcotest.failf "63-move solve returned %g" v
  | exception Invalid_argument _ -> Wide_solver.reset ()

(* The adapter calls [G.moves] once per evaluated state and [G.apply]
   once per explored move, like a solver over the pure game would. *)
module Counted = struct
  include Model.Weakener_atomic.Game

  let moves_calls = ref 0
  let apply_calls = ref 0
  let moves_total = ref 0

  let moves s =
    incr moves_calls;
    let ms = moves s in
    moves_total := !moves_total + List.length ms;
    ms

  let apply s m =
    incr apply_calls;
    apply s m
end

module Counted_solver = Mdp.Solver.Make (Counted)

let test_of_pure_call_counts () =
  Counted_solver.reset ();
  let v = Counted_solver.value Model.Weakener_atomic.init in
  exact "atomic value" 0.5 v;
  let st = Counted_solver.stats () in
  Alcotest.(check int) "one moves call per evaluated state" st.memo_misses
    !Counted.moves_calls;
  Alcotest.(check int) "one apply call per explored move" !Counted.moves_total
    !Counted.apply_calls;
  Counted_solver.reset ()

let tests =
  [
    Alcotest.test_case "encode_into = encode under buffer reuse" `Quick
      test_encode_into_roundtrip;
    Alcotest.test_case "packed VA tracks pure VA move by move" `Quick
      test_lockstep_random_walks;
    Alcotest.test_case "nested checkpoint/restore is exact" `Quick
      test_nested_undo;
    Alcotest.test_case "in-place solve bit-identical to pure" `Slow
      test_solver_bit_identical;
    Alcotest.test_case "sequential dispatch routes in-place" `Quick
      test_dispatch_agrees;
    Alcotest.test_case "Of_pure refuses masks past the int width" `Quick
      test_of_pure_mask_guard;
    Alcotest.test_case "Of_pure calls moves/apply once each" `Quick
      test_of_pure_call_counts;
  ]
