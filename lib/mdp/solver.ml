let log_src = Logs.Src.create "blunting.mdp" ~doc:"Exact game solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Aggregate, process-wide instrumentation across every solver instance;
   per-instance figures come from [stats ()]. Updated only at the end of a
   root solve (never from the recursion, never from worker domains), so
   the registry needs no synchronization and the hot loop pays nothing. *)
module M = struct
  open Obs.Metrics

  let memo_hits = counter ~help:"memo-table hits" "mdp.memo_hits"
  let memo_misses = counter ~help:"states evaluated (memo misses)" "mdp.memo_misses"
  let states = counter ~help:"distinct states memoized" "mdp.states_explored"
  let depth = gauge ~help:"deepest recursion seen" "mdp.max_depth"
  let solve_seconds = histogram ~help:"value() wall time per root solve" "mdp.solve_seconds"
  let steals = counter ~help:"work-stealing deque steals" "mdp.steals"
  let claim_misses = counter ~help:"shared-memo probes that hit a live claim" "mdp.claim_misses"
end

module type GAME = sig
  type state
  type move

  type transition = Det of state | Chance of (float * state) list

  val moves : state -> move list
  val apply : state -> move -> transition

  val terminal_value : state -> float
  val encode : state -> string
  val encode_into : state -> Key.buf -> unit
  val pp_move : Format.formatter -> move -> unit
end

(* The zero-copy counterpart of {!GAME}: one mutable working state that
   moves mutate in place, with an undo token to restore it before the
   next sibling. Moves are small-int ids delivered as a bitmask (so
   enumerating them allocates nothing); chance moves expose their branch
   count and per-branch probabilities instead of a materialized
   distribution list. *)
module type GAME_INPLACE = sig
  type state
  type undo

  val moves : state -> int
  val branches : state -> int -> int
  val prob : state -> int -> int -> float
  val checkpoint : state -> undo
  val apply : state -> move:int -> branch:int -> unit
  val restore : state -> undo -> unit
  val terminal_value : state -> float
  val encode_into : state -> Key.buf -> unit
end

exception Cyclic

type stats = {
  states : int;  (** distinct states currently memoized *)
  memo_hits : int;
  memo_misses : int;
  max_depth : int;
}

let hit_rate { memo_hits; memo_misses; _ } =
  let total = memo_hits + memo_misses in
  if total = 0 then 0.0 else float_of_int memo_hits /. float_of_int total

let pp_stats ppf s =
  Fmt.pf ppf "%d states, %d hits / %d misses (%.1f%% hit rate), depth %d" s.states
    s.memo_hits s.memo_misses
    (100.0 *. hit_rate s)
    s.max_depth

type domain_stats = { domain_id : int; stats : stats }

type par_stats = {
  domains : domain_stats list;
  distinct_keys : int;
  duplicated_keys : int;
  duplicated_work_pct : float;
  steals : int;
  claim_hits : int;
  claim_misses : int;
  pruned_subtrees : int;
}

let pp_par_stats ppf p =
  Fmt.pf ppf
    "%d domains, %d distinct keys, %d steals, %d claim hits / %d claim \
     misses:@,"
    (List.length p.domains) p.distinct_keys p.steals p.claim_hits
    p.claim_misses;
  List.iter
    (fun d -> Fmt.pf ppf "  domain %d: %a@," d.domain_id pp_stats d.stats)
    p.domains

type progress = { stats : stats; elapsed_s : float; states_per_sec : float }

let pp_progress ppf p =
  Fmt.pf ppf "%d states, %.1f%% hit rate, depth %d, %.1fs elapsed, %.0f states/s"
    p.stats.states
    (100.0 *. hit_rate p.stats)
    p.stats.max_depth p.elapsed_s p.states_per_sec

let default_progress_interval = 50_000

(* ---- out-of-core memo budget ------------------------------------------

   The switch for the third memo backend: when a budget is armed, solves
   route their memo through {!Store.Memo} — an in-RAM tier that spills
   resolved entries to sorted-run segment files once its byte estimate
   passes the budget. [None] (the default) keeps the plain in-RAM
   tables and costs nothing. The process-wide default comes from
   [BLUNTING_MEMO_BUDGET]; per-solve [?memo_budget] arguments override
   it. *)

let parse_memo_budget s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then Error "empty size"
  else
    let mult, ndigits =
      match Char.uppercase_ascii s.[len - 1] with
      | 'K' -> (1024, len - 1)
      | 'M' -> (1024 * 1024, len - 1)
      | 'G' -> (1024 * 1024 * 1024, len - 1)
      | _ -> (1, len)
    in
    match int_of_string_opt (String.sub s 0 ndigits) with
    | Some n when n >= 0 -> Ok (n * mult)
    | _ ->
        Error
          (Printf.sprintf "invalid size %S (bytes, or a K/M/G suffix)" s)

let default_memo_budget =
  ref
    (match Sys.getenv_opt "BLUNTING_MEMO_BUDGET" with
    | None | Some "" -> None
    | Some s -> (
        match parse_memo_budget s with
        | Ok 0 -> None
        | Ok n -> Some n
        | Error e ->
            Log.warn (fun f -> f "BLUNTING_MEMO_BUDGET ignored: %s" e);
            None))

let set_default_memo_budget b =
  default_memo_budget := (match b with Some n when n > 0 -> Some n | _ -> None)

let memo_budget () = !default_memo_budget

(* per-call override beats the process default; <= 0 disables *)
let effective_budget = function
  | Some b -> if b > 0 then Some b else None
  | None -> !default_memo_budget

(* ---- the memo contract -------------------------------------------------

   Every memo probe goes through one claim record. [probe] answers with
   the resolved value, the owner of a live claim, or — the key being new
   — a claim installed for the caller, with the handle [resolve] takes
   once the value is known. [get] reads a resolved value by key: the
   helping protocol's await. Claims are exactly-once: one caller per key
   is told [Claimed]. States are keyed by their canonical encoding,
   written into the caller's reusable [Key.buf] and probed as a
   (buffer, length) slice, so a probe of a resolved state allocates no
   key. Three backends build the record:
   - the instance's {!Par.Slice_tbl}, probed by worker 0 alone: the
     handle is the table entry, overwritten in place on resolve (entries
     survive table growth, so there is no second lookup);
   - a {!Par.Sharded_tbl} shared by parallel workers: the handle is the
     key string;
   - a {!Store.Memo}, once a memo budget is armed: the handle is the key
     string too. *)

type 'h probe = Value of float | Busy of int | Claimed of 'h

type 'h claims = {
  probe : Key.buf -> owner:int -> 'h probe;
  resolve : 'h -> float -> unit;
  get : string -> float option;
}

type memo = Memo : 'h claims -> memo

(* A Slice_tbl entry stores the probe answer itself — [Busy 0] while
   worker 0 evaluates the state, [Value v] once resolved — so a probe of
   a present key hands back the stored answer and allocates nothing. *)
type slot = Slot of slot probe Par.Slice_tbl.entry [@@unboxed]

let slice_claims tbl =
  {
    probe =
      (fun b ~owner:_ ->
        let e =
          Par.Slice_tbl.probe_slice tbl (Key.data b) ~len:(Key.length b)
            ~default:(Busy 0)
        in
        if Par.Slice_tbl.last_was_new tbl then Claimed (Slot e)
        else e.Par.Slice_tbl.value);
    resolve = (fun (Slot e) v -> e.Par.Slice_tbl.value <- Value v);
    get =
      (fun key ->
        match Par.Slice_tbl.find_string tbl key with
        | Some { Par.Slice_tbl.value = Value v; _ } -> Some v
        | _ -> None);
  }

(* the two backends keyed by strings: Sharded_tbl and Store.Memo *)
let keyed_claims find_or_claim_slice resolve get =
  {
    probe =
      (fun b ~owner ->
        match find_or_claim_slice (Key.data b) ~len:(Key.length b) ~owner with
        | `Value v -> Value v
        | `Busy o -> Busy o
        | `Claimed key -> Claimed key);
    resolve;
    get;
  }

let sharded_claims tbl =
  Par.Sharded_tbl.(
    keyed_claims (find_or_claim_slice tbl) (resolve tbl) (get tbl))

let store_claims st =
  Store.Memo.(keyed_claims (find_or_claim_slice st) (resolve st) (get st))

(* ---- workers and instances ---------------------------------------------

   A worker is one participant in a solve: an owner id for the claim
   protocol, a private encode buffer, and its own counters, so parallel
   workers never share a cache line and merge their counts afterwards.
   A sequential solve is worker 0; an instance's persistent worker 0
   ([seq]) carries the instance's stats and its progress ticker. *)

type ticker = {
  mutable hook : (progress -> unit) option;
  mutable interval : int;
  mutable start : float;  (* when the current root solve began *)
  mutable base_misses : int;  (* misses when it began *)
}

type worker = {
  wid : int;
  buf : Key.buf;
  shared : bool;  (* probes a memo other workers share: hits are [Claim_hit] *)
  abort : bool Atomic.t;  (* another worker of the solve failed *)
  ticker : ticker option;
  mutable domain : int;
  mutable hits : int;
  mutable misses : int;
  mutable states : int;  (* states this worker resolved *)
  mutable max_depth : int;
  mutable claim_misses : int;
  mutable steals : int;
}

let make_worker ?ticker ?(shared = false) ?(abort = Atomic.make false) wid =
  {
    wid;
    buf = Key.create ();
    shared;
    abort;
    ticker;
    domain = (Domain.self () :> int);
    hits = 0;
    misses = 0;
    states = 0;
    max_depth = 0;
    claim_misses = 0;
    steals = 0;
  }

(* Unwinds a worker once another worker of the solve failed: [value_par]
   re-raises the real exception, and the claims left unresolved die with
   the solve. Without it, a worker awaiting a claim whose owner died (say,
   of [Cyclic]) would wait forever. *)
exception Abort

let stats_of_worker w =
  {
    states = w.states;
    memo_hits = w.hits;
    memo_misses = w.misses;
    max_depth = w.max_depth;
  }

type instance = {
  memo : slot probe Par.Slice_tbl.t;
  ram : slot claims;
  mutable store : Store.Memo.t option;  (* armed by a memo budget *)
  seq : worker;
}

let make_instance () =
  let memo = Par.Slice_tbl.create ~size:65_536 () in
  {
    memo;
    ram = slice_claims memo;
    store = None;
    seq =
      make_worker 0
        ~ticker:
          {
            hook = None;
            interval = default_progress_interval;
            start = Obs.Span.now_us ();
            base_misses = 0;
          };
  }

let ticker_of i = Option.get i.seq.ticker
let stats_of i = stats_of_worker i.seq

(* The record a sequential solve (or [value_par]'s small-frontier
   fallback) probes: the instance's table, or its store once armed. *)
let memo_of i =
  match i.store with
  | None -> Memo i.ram
  | Some st -> Memo (store_claims st)

(* Arm the spillable backend on an instance. Entries already memoized in
   RAM migrate into the store (a reused instance keeps its cross-solve
   memoization through the backend switch); in-progress claims cannot
   exist outside a running solve, so only final values move. Once armed
   the instance stays on the store until [reset] — mixing backends
   within one memo would split the key space. *)
let arm_store i budget =
  match (i.store, budget) with
  | None, Some b ->
      let st = Store.Memo.create ~budget:b () in
      Par.Slice_tbl.iter i.memo (fun key slot ->
          match slot with
          | Value v -> Store.Memo.resolve st key v
          | Busy _ | Claimed _ -> ());
      Par.Slice_tbl.clear i.memo;
      i.store <- Some st
  | _ -> ()

(* Progress telemetry: long solves (minutes at k >= 3) otherwise give no
   output until they return. The hook fires from inside the recursion,
   every [interval] newly memoized states — so never after [value] has
   returned — alongside an info log on the blunting.mdp source. Only the
   instance's worker 0 carries a ticker, so parallel workers never fire
   it off the calling domain. *)
let progress_tick w =
  match w.ticker with
  | Some t when w.misses mod t.interval = 0 ->
      let elapsed_s = (Obs.Span.now_us () -. t.start) /. 1e6 in
      let p =
        {
          stats = stats_of_worker w;
          elapsed_s;
          states_per_sec =
            (if elapsed_s > 0.0 then
               float_of_int (w.misses - t.base_misses) /. elapsed_s
             else 0.0);
        }
      in
      Log.info (fun f -> f "progress: %a" pp_progress p);
      Option.iter (fun hook -> hook p) t.hook
  | _ -> ()

let reset_instance i =
  Par.Slice_tbl.clear i.memo;
  Option.iter Store.Memo.close i.store;
  i.store <- None;
  let w = i.seq in
  w.hits <- 0;
  w.misses <- 0;
  w.states <- 0;
  w.max_depth <- 0;
  (* re-arm the per-solve telemetry too: a reused instance must not
     compute its second solve's states/sec against the first solve's
     start time or cumulative miss count *)
  let t = ticker_of i in
  t.start <- Obs.Span.now_us ();
  t.base_misses <- 0

let publish_delta (before : stats) (after : stats) =
  Obs.Metrics.add M.memo_hits (after.memo_hits - before.memo_hits);
  Obs.Metrics.add M.memo_misses (after.memo_misses - before.memo_misses);
  Obs.Metrics.add M.states (after.states - before.states);
  Obs.Metrics.max_gauge M.depth (float_of_int after.max_depth)

(* ---- the pure-to-in-place adapter --------------------------------------

   Presents a {!GAME} as a {!GAME_INPLACE}, so the pure games run on the
   in-place evaluator. The working state points at the frame of the
   state being explored; a frame holds the pure state, its move list and
   the transition of the move being explored. [moves] calls [G.moves]
   once per evaluated state, [branches] calls [G.apply] once per
   explored move and caches the transition, and [prob] and [apply] read
   that cache: [apply] pushes a frame for the cached successor, and
   [checkpoint] / [restore] save and reinstate the current frame. A
   fresh frame per push stays young, which measured faster than
   rewriting a reused, promoted frame stack. *)

module Of_pure (G : GAME) = struct
  type frame = {
    st : G.state;
    mutable moves : G.move list;  (* [G.moves st]; move [m] is the [m]-th *)
    mutable tr : G.transition;  (* of the move [branches] saw last *)
  }

  type state = { mutable cur : frame }
  type undo = frame

  let frame st = { st; moves = []; tr = G.Chance [] }
  let of_state st = { cur = frame st }

  let moves t =
    let ms = G.moves t.cur.st in
    t.cur.moves <- ms;
    let n = List.length ms in
    if n >= Sys.int_size - 1 then
      invalid_arg
        (Printf.sprintf
           "Mdp.Solver.Of_pure: a state with %d moves; move masks hold at \
            most %d"
           n (Sys.int_size - 2));
    (1 lsl n) - 1

  let move t m = List.nth t.cur.moves m

  let branches t m =
    let tr = G.apply t.cur.st (move t m) in
    t.cur.tr <- tr;
    match tr with G.Det _ -> 0 | G.Chance dist -> List.length dist

  let prob t _ j =
    match t.cur.tr with
    | G.Chance dist -> fst (List.nth dist j)
    | G.Det _ -> 1.0

  let checkpoint t = t.cur

  let apply t ~move:_ ~branch =
    match t.cur.tr with
    | G.Det s' -> t.cur <- frame s'
    | G.Chance dist -> t.cur <- frame (snd (List.nth dist branch))

  let restore t u = t.cur <- u
  let terminal_value t = G.terminal_value t.cur.st
  let encode_into t b = G.encode_into t.cur.st b
end

module type SOLVER = sig
  type state

  val value : ?memo_budget:int -> state -> float
  val explored : unit -> int
  val stats : unit -> stats
  val store_stats : unit -> Store.Memo.stats option
  val set_progress : ?interval_states:int -> (progress -> unit) option -> unit
  val reset : unit -> unit
end

(* ---- the evaluator -----------------------------------------------------

   The one memoized expectimax. It runs on a GAME_INPLACE: exploring a
   child is checkpoint / apply / recurse / restore on the single working
   state, so a native in-place game ([Model.Weakener_va_packed])
   allocates no successor states, and a pure game runs through
   {!Of_pure}. Every probe goes through a claim record, so one recursion
   serves sequential solves (worker 0 over the instance's table or
   store), budgeted ones, and every parallel worker ([Make.value_par]).

   Values are bit-identical across all of them because each state is
   evaluated exactly once, by the same fold — Float.max from
   neg_infinity over moves in ascending id order, left-to-right
   [partial +. (p *. v)] from 0.0 over chance branches — from child
   values that are themselves unique; induction over the acyclic state
   graph closes the argument. A native in-place game is bit-identical to
   its pure presentation under the agreement obligations of
   {!GAME_INPLACE}. *)

module Make_inplace (G : GAME_INPLACE) = struct
  let default = make_instance ()

  let set_progress ?(interval_states = default_progress_interval) hook =
    let t = ticker_of default in
    t.interval <- max 1 interval_states;
    t.hook <- hook

  let stats () = stats_of default

  (* index of the lowest set bit: moves fold in ascending id order *)
  let rec lowest m i = if m land 1 = 1 then i else lowest (m lsr 1) (i + 1)

  let rec each_move mask f =
    if mask <> 0 then begin
      f (lowest mask 0);
      each_move (mask land (mask - 1)) f
    end

  let fingerprint b = Par.Slice_tbl.hash_slice (Key.data b) (Key.length b)

  (* The probe. A resolved state is a hit; a live claim of our own is a
     cycle; another worker's live claim is helped; a fresh claim is
     evaluated and resolved. The buffer is dead once the probe returns —
     children clobber it freely — so the fresh claim's fingerprint is
     taken first. *)
  let rec eval w cl depth s =
    if depth > w.max_depth then w.max_depth <- depth;
    let b = w.buf in
    Key.reset b;
    G.encode_into s b;
    match cl.probe b ~owner:w.wid with
    | Value v ->
        w.hits <- w.hits + 1;
        if Obs.Ring.enabled () then
          Obs.Ring.record
            (if w.shared then Obs.Ring.Claim_hit else Obs.Ring.Solver_hit)
            (fingerprint b) depth;
        v
    | Busy o when o = w.wid -> raise Cyclic
    | Busy o ->
        w.claim_misses <- w.claim_misses + 1;
        if Obs.Ring.enabled () then Obs.Ring.record Obs.Ring.Claim_miss o depth;
        (* the await needs the key after the buffer has been clobbered *)
        help w cl depth s (Key.contents b)
    | Claimed h ->
        let fp = if Obs.Ring.enabled () then fingerprint b else 0 in
        w.misses <- w.misses + 1;
        if Obs.Ring.enabled () then
          Obs.Ring.record Obs.Ring.Solver_expand fp depth;
        progress_tick w;
        let mask = G.moves s in
        let v =
          if mask = 0 then begin
            if Obs.Ring.enabled () then
              Obs.Ring.record Obs.Ring.Solver_terminal fp depth;
            G.terminal_value s
          end
          else fold w cl depth s mask
        in
        cl.resolve h v;
        w.states <- w.states + 1;
        v

  (* do-move / recurse / restore: the only state "copy" is what the move
     itself journals *)
  and child w cl depth s m j =
    let u = G.checkpoint s in
    G.apply s ~move:m ~branch:j;
    let v = eval w cl (depth + 1) s in
    G.restore s u;
    v

  and move_value w cl depth s m =
    match G.branches s m with
    | 0 -> child w cl depth s m 0
    | n -> chance w cl depth s m n

  (* each branch's probability is read on the unmutated parent, before
     the child's apply *)
  and chance w cl depth s m n =
    let rec go partial j =
      if j >= n then partial
      else
        let p = G.prob s m j in
        go (partial +. (p *. child w cl depth s m j)) (j + 1)
    in
    go 0.0 0

  and fold w cl depth s mask =
    let rec go acc mask =
      if mask = 0 then acc
      else
        let v = move_value w cl depth s (lowest mask 0) in
        go (Float.max acc v) (mask land (mask - 1))
    in
    go neg_infinity mask

  (* Another worker owns the claim on [s]. Evaluate [s]'s children
     through the shared memo — the claim protocol hands each to exactly
     one worker, so this is the owner's own pending work, not a
     duplicate — then wait for the owner's exact value. The helper never
     computes a value for [s] itself: only the owner of a claim may
     resolve it, and it resolves it exactly once. *)
  and help w cl depth s key =
    (* the whole helping protocol — evaluating the busy state's children
       plus the await spin — is claim-miss overhead; tag its allocations
       so the profiler can separate it from first-visit expansion *)
    let prev_phase = Obs.Memprof.phase () in
    Obs.Memprof.set_phase (Some Obs.Memprof.Claim_wait);
    each_move (G.moves s) (fun m ->
        for j = 0 to max 0 (G.branches s m - 1) do
          ignore (child w cl depth s m j)
        done);
    let rec await probes =
      match cl.get key with
      | Some v -> v
      | None ->
          if Atomic.get w.abort then raise Abort;
          (* short spins first: with a core per domain the owner is
             folding over children that are all resolved now, so the
             wait is brief. If the value still hasn't appeared after
             ~256 probes the owner is likely preempted (more domains
             than cores) — sleep so it can actually run; cpu_relax
             never releases the core and would burn the owner's whole
             timeslice. *)
          if probes < 256 then
            for _ = 1 to 32 do
              Domain.cpu_relax ()
            done
          else Unix.sleepf 0.0002;
          await (probes + 1)
    in
    let v = await 0 in
    Obs.Memprof.set_phase prev_phase;
    v

  (* The cross-domain telemetry of the most recent [value_par] on this
     instance, cleared at the start of EVERY root solve — a reused solver
     must never report a previous run's telemetry after a sequential
     solve overwrote the work it describes. *)
  let last_par : par_stats option ref = ref None

  (* Root-call bracketing: arm the per-solve telemetry baselines, then land
     the instance deltas in the process-wide registry once, at the end. *)
  let root_call span_name f =
    last_par := None;
    let t = ticker_of default in
    t.start <- Obs.Span.now_us ();
    t.base_misses <- default.seq.misses;
    let before = stats_of default in
    (* tag allocations in the solve as expansion work for Obs.Memprof;
       the parallel workers refine the tag (steal/claim-wait) themselves *)
    let prev_phase = Obs.Memprof.phase () in
    Obs.Memprof.set_phase (Some Obs.Memprof.Expand);
    Fun.protect
      ~finally:(fun () ->
        Obs.Memprof.set_phase prev_phase;
        publish_delta before (stats_of default))
      (fun () -> fst (Obs.Span.time ~observe:M.solve_seconds span_name f))

  let value ?memo_budget s =
    arm_store default (effective_budget memo_budget);
    let (Memo cl) = memo_of default in
    root_call "mdp.value" (fun () -> eval default.seq cl 0 s)

  (* Live out-of-core telemetry: cumulative since the store was armed
     (parallel and sequential budgeted solves share the instance store),
     [None] while no budget has armed it. *)
  let store_stats () = Option.map Store.Memo.stats default.store
  let explored () = default.seq.states

  let reset () =
    last_par := None;
    reset_instance default
end

module Make (G : GAME) = struct
  module P = Of_pure (G)
  include Make_inplace (P)

  let value ?memo_budget s = value ?memo_budget (P.of_state s)
  let last_par_stats () = !last_par

  let best_move s =
    let t = P.of_state s in
    match P.moves t with
    | 0 -> None
    | mask ->
        root_call "mdp.best_move" @@ fun () ->
        let (Memo cl) = memo_of default in
        let rec score mask =
          if mask = 0 then []
          else
            let m = lowest mask 0 in
            let v = move_value default.seq cl 0 t m in
            (v, P.move t m) :: score (mask land (mask - 1))
        in
        let scored = score mask in
        Log.debug (fun f ->
            f "best_move: %d candidates: %a" (List.length scored)
              (Fmt.list ~sep:Fmt.comma (fun ppf (v, m) ->
                   Fmt.pf ppf "%a=%.6f" G.pp_move m v))
              scored);
        let best =
          List.fold_left
            (fun (bv, bm) (v, m) -> if v > bv then (v, m) else (bv, bm))
            (List.hd scored) (List.tl scored)
        in
        Log.debug (fun f ->
            f "best_move: chose %a (value %.6f)" G.pp_move (snd best) (fst best));
        Some (snd best)

  (* ---- parallel solving ------------------------------------------------

     Work-stealing over a shared memo. The game tree is expanded a few
     plies (without evaluating) to a frontier of distinct subtree roots;
     the frontier-leaf indices are dealt round-robin into one Chase–Lev
     deque per worker, and [jobs] workers drain their own deque LIFO,
     stealing the oldest leaf from a victim when empty. Each worker runs
     the evaluator over its own {!Of_pure} working state against one
     shared claim record — a fresh {!Par.Sharded_tbl}, or the instance's
     store when a memo budget is armed — so exactly one worker evaluates
     each state, and the claim protocol doubles as cycle detection
     (re-entering your own claim is the sequential re-entry).

     Waits only ever follow game-DAG edges downward — a worker holding a
     claim is executing inside that state's subtree, so every wait chain
     descends strictly and bottoms out at a worker that is not waiting;
     on a cyclic game some worker re-enters its own claim and [Cyclic]
     propagates, as sequentially. *)

  type plan =
    | P_term of float
    | P_leaf of int  (* index into the frontier array *)
    | P_max of plan list
    | P_exp of (float * plan) list

  (* Expand [limit] plies from [s] (without evaluating) into a plan over
     the frontier: the states at depth [limit], deduplicated by
     canonical key (several paths reach the same state). Also counts the
     frontier's occurrences in the plan. *)
  let expand limit s =
    let index : (string, int) Hashtbl.t = Hashtbl.create 256 in
    let leaves = ref [] and occurrences = ref 0 in
    let rec go depth s =
      match G.moves s with
      | [] -> P_term (G.terminal_value s)
      | _ when depth >= limit ->
          incr occurrences;
          let key = G.encode s in
          P_leaf
            (match Hashtbl.find_opt index key with
            | Some i -> i
            | None ->
                let i = Hashtbl.length index in
                Hashtbl.add index key i;
                leaves := (s, depth) :: !leaves;
                i)
      | ms ->
          P_max
            (List.map
               (fun m ->
                 match G.apply s m with
                 | G.Det s' -> go (depth + 1) s'
                 | G.Chance dist ->
                     P_exp
                       (List.map (fun (p, s') -> (p, go (depth + 1) s')) dist))
               ms)
    in
    let plan = go 0 s in
    (plan, Array.of_list (List.rev !leaves), !occurrences)

  let rec eval_plan values = function
    | P_term v -> v
    | P_leaf i -> values.(i)
    | P_max ps ->
        List.fold_left
          (fun acc p -> Float.max acc (eval_plan values p))
          neg_infinity ps
    | P_exp dist ->
        List.fold_left
          (fun acc (p, pl) -> acc +. (p *. eval_plan values pl))
          0.0 dist

  let frontier ~jobs s =
    (* deepen until the frontier offers real parallel slack (or stops
       growing — tiny games go sequential via the plan alone) *)
    let target = jobs * 8 in
    let rec go limit prev =
      let plan, leaves, c = expand limit s in
      if c >= target || c <= prev || limit >= 16 then (plan, leaves)
      else go (limit + 2) c
    in
    go 2 (-1)

  let merge_by_domain workers =
    let tbl : (int, stats) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun w ->
        let s =
          Option.value
            ~default:{ states = 0; memo_hits = 0; memo_misses = 0; max_depth = 0 }
            (Hashtbl.find_opt tbl w.domain)
        in
        Hashtbl.replace tbl w.domain
          {
            states = s.states + w.misses;
            memo_hits = s.memo_hits + w.hits;
            memo_misses = s.memo_misses + w.misses;
            max_depth = max s.max_depth w.max_depth;
          })
      workers;
    Hashtbl.fold (fun domain_id stats acc -> { domain_id; stats } :: acc) tbl []
    |> List.sort (fun a b -> compare a.domain_id b.domain_id)

  (* Deterministic merge of the workers' counters into the instance, and
     the solve's [par_stats]. Claims are exactly-once, so the states the
     workers resolved are the distinct keys below the frontier, and
     [stats ()] reports the same explored figure as a sequential solve
     of the frontier's subtrees. *)
  let publish_par workers =
    let sum f = Array.fold_left (fun a w -> a + f w) 0 workers in
    let distinct = sum (fun w -> w.states) in
    let seq = default.seq in
    Array.iter
      (fun w ->
        seq.hits <- seq.hits + w.hits;
        seq.misses <- seq.misses + w.misses;
        seq.max_depth <- max seq.max_depth w.max_depth)
      workers;
    seq.states <- seq.states + distinct;
    let steals = sum (fun w -> w.steals) in
    let claim_misses = sum (fun w -> w.claim_misses) in
    Obs.Metrics.add M.steals steals;
    Obs.Metrics.add M.claim_misses claim_misses;
    last_par :=
      Some
        {
          domains = merge_by_domain workers;
          distinct_keys = distinct;
          duplicated_keys = 0;
          duplicated_work_pct = 0.0;
          steals;
          claim_hits = sum (fun w -> w.hits);
          claim_misses;
          pruned_subtrees = 0;
        }

  let value_par ?pool ?memo_budget ~jobs s =
    if jobs <= 1 then value ?memo_budget s
    else
      root_call "mdp.value_par" @@ fun () ->
      arm_store default (effective_budget memo_budget);
      let plan, leaves = frontier ~jobs s in
      let nleaves = Array.length leaves in
      Log.info (fun f -> f "value_par: %d frontier states on %d jobs" nleaves jobs);
      if nleaves = 0 then eval_plan [||] plan
      else if nleaves < jobs then begin
        (* Frontier smaller than the worker count: the game is too small
           to occupy the pool, and spawning domains + claim traffic costs
           more than the whole solve. One worker 0 solves the root on the
           calling domain, over the instance's own memo. *)
        Log.info (fun f ->
            f "value_par: frontier %d < jobs %d, sequential fallback" nleaves
              jobs);
        let w = make_worker 0 in
        let (Memo cl) = memo_of default in
        let v = eval w cl 0 (P.of_state s) in
        publish_par [| w |];
        v
      end
      else
        (* Workers share one exactly-once memo: a fresh in-RAM
           [Par.Sharded_tbl], or the instance's spillable store once a
           budget armed it. *)
        let (Memo cl) =
          match default.store with
          | Some st -> Memo (store_claims st)
          | None -> Memo (sharded_claims (Par.Sharded_tbl.create ()))
        in
        let deques = Array.init jobs (fun _ -> Par.Deque.create ()) in
        Array.iteri (fun i _ -> Par.Deque.push deques.(i mod jobs) i) leaves;
        let abort = Atomic.make false in
        let workers =
          Array.init jobs (fun wid -> make_worker wid ~shared:true ~abort)
        in
        (* leaf values are published to the caller by the pool region's
           join; each index is written exactly once (deque items are
           handed out exactly once), so NaN survives only on a bug *)
        let values = Array.make nleaves Float.nan in
        let first_error : exn option Atomic.t = Atomic.make None in
        let eval_leaf w i =
          Obs.Memprof.set_phase (Some Obs.Memprof.Expand);
          let s, depth = leaves.(i) in
          values.(i) <- eval w cl depth (P.of_state s)
        in
        let worker_loop wid =
          let w = workers.(wid) in
          w.domain <- (Domain.self () :> int);
          Obs.Memprof.set_phase (Some Obs.Memprof.Expand);
          (* drain the local deque LIFO; when empty, sweep the other
             deques for the oldest leaf. Leaves are only pushed before
             the region starts, so a sweep seeing every deque [Empty]
             means no work will ever appear again — but a [Contended]
             verdict is inconclusive (the CAS lost to another thief),
             so the sweep restarts after a backoff. *)
          let rec drain () =
            match Par.Deque.pop deques.(wid) with
            | Some i ->
                eval_leaf w i;
                drain ()
            | None ->
                Obs.Memprof.set_phase (Some Obs.Memprof.Steal);
                hunt 0 false
          and hunt k contended =
            if Atomic.get abort then ()
            else if k >= jobs - 1 then begin
              if contended then begin
                Domain.cpu_relax ();
                hunt 0 false
              end
            end
            else
              let victim = (wid + 1 + k) mod jobs in
              match Par.Deque.steal deques.(victim) with
              | Par.Deque.Stolen i ->
                  w.steals <- w.steals + 1;
                  if Obs.Ring.enabled () then
                    Obs.Ring.record Obs.Ring.Steal victim i;
                  eval_leaf w i;
                  drain ()
              | Par.Deque.Contended -> hunt (k + 1) true
              | Par.Deque.Empty -> hunt (k + 1) contended
          in
          (* a worker that fails publishes the exception and trips the
             abort flag so the others stop waiting on its claims; workers
             themselves always return normally, and the caller re-raises
             the first real error after the region joins *)
          try drain () with
          | Abort -> ()
          | e ->
              ignore (Atomic.compare_and_set first_error None (Some e));
              Atomic.set abort true
        in
        (match pool with
        | Some pool -> Par.Pool.scatter pool ~n:jobs worker_loop
        | None ->
            Par.Pool.with_pool ~jobs (fun pool ->
                Par.Pool.scatter pool ~n:jobs worker_loop));
        Option.iter raise (Atomic.get first_error);
        publish_par workers;
        eval_plan values plan
end
