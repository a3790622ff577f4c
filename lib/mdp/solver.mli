(** Exact adversary-vs-chance game solving.

    The paper's quantity [Prob\[P(O) -> B\]] is a supremum over strong
    adversaries. A strong adversary observes the entire execution so far —
    including past random outcomes — so on a finite explicit-state model the
    supremum is the value of a perfect-information stochastic game: at
    adversary states the value is the max over moves, at chance states the
    probability-weighted average, at terminal states the indicator of the
    bad outcome. This module computes that value by top-down dynamic
    programming with memoization (the model must be acyclic, which holds for
    terminating programs; a cycle raises [Cyclic]). *)

(** A game model. States must be pure data; memoization keys them by the
    canonical [encode] string. *)
module type GAME = sig
  type state
  type move

  type transition = Det of state | Chance of (float * state) list

  (** [moves s] lists the adversary's choices; [\[\]] marks terminal
      states. *)
  val moves : state -> move list

  (** [apply s m] is either a deterministic successor or a chance step with
      the given distribution (probabilities must sum to 1). *)
  val apply : state -> move -> transition

  (** [terminal_value s] is the payoff at a terminal state; it is consulted
      only when [moves s = \[\]]. *)
  val terminal_value : state -> float

  (** [encode s] is a canonical key: injective on reachable states (equal
      states produce equal strings, distinct states distinct strings). The
      memo table hashes and compares these flat strings instead of
      traversing the state on every probe — build encoders with {!Key} so
      injectivity holds by construction. Must be thread-safe (pure). *)
  val encode : state -> string

  (** [encode_into s b] appends exactly the bytes of [encode s] to [b]
      (callers [Key.reset] first). The solver's hot path probes the memo
      table with the buffer slice directly, so a probe of an
      already-memoized state allocates nothing; [encode] stays as the
      cold-path/compatibility form and the two must agree byte-for-byte
      ([encode s = Key.run (encode_into s)]). *)
  val encode_into : state -> Key.buf -> unit

  val pp_move : Format.formatter -> move -> unit
end

(** The zero-copy counterpart of {!GAME}, and the one the evaluator
    runs on: the whole DFS runs on one mutable working state, and
    exploring a child is do-move / recurse / restore instead of
    allocating a successor per edge. Every {!GAME} gets this form from
    {!Of_pure}; a game may also present it natively (e.g.
    {!Model.Weakener_va} / [Model.Weakener_va_packed]), and the two
    solve bit-identically when the presentations agree move-for-move
    (see below). *)
module type GAME_INPLACE = sig
  (** The single mutable working state. The solver never copies it. *)
  type state

  (** A restoration token from {!checkpoint} — typically a watermark into
      an undo journal of (cell, old value) pairs recorded by [apply]. *)
  type undo

  (** [moves s] is the bitmask of enabled move ids (bit [m] set = move
      [m] enabled, so at most [Sys.int_size - 2] distinct ids and the
      mask stays positive); [0] marks terminal states. The solver folds
      moves in ascending id order — the pure presentation's [moves] list
      must be ascending under the same numbering for bit-identical
      values. *)
  val moves : state -> int

  (** [branches s m] is [0] if move [m] is deterministic, else the
      number [n >= 1] of chance branches. Branch order must match the
      pure presentation's distribution order. *)
  val branches : state -> int -> int

  (** [prob s m j] is the probability of branch [j] of chance move [m],
      evaluated on the unmutated parent state. Must equal the pure
      presentation's probability bitwise (same float expression). *)
  val prob : state -> int -> int -> float

  val checkpoint : state -> undo

  (** [apply s ~move ~branch] mutates [s] to the successor (deterministic
      moves take [~branch:0]), recording enough in the journal for
      {!restore} to rebuild the parent exactly. *)
  val apply : state -> move:int -> branch:int -> unit

  (** [restore s u] rewinds every mutation made since [checkpoint]
      returned [u]. Restores must nest LIFO, as the DFS unwinds. *)
  val restore : state -> undo -> unit

  val terminal_value : state -> float

  (** Same contract as {!GAME.encode_into}: canonical, injective, and
      byte-identical to the pure presentation's encoding of the same
      abstract state — the two solvers then memoize identical key sets. *)
  val encode_into : state -> Key.buf -> unit
end

exception Cyclic

(** Counters describing one solver instance's work since its last [reset]:
    distinct states memoized, memo-table hits/misses, and the deepest
    recursion reached. Aggregates across all instances also land in
    [Obs.Metrics] under the [mdp.] prefix — published at the end of each
    root solve from the calling domain, so parallel workers never touch
    the registry — and every root [value] call records an [mdp.value]
    span (its wall time feeds the [mdp.solve_seconds] histogram). *)
type stats = {
  states : int;
  memo_hits : int;
  memo_misses : int;
  max_depth : int;
}

(** [hit_rate s] is hits / (hits + misses), 0 when idle. *)
val hit_rate : stats -> float

val pp_stats : Format.formatter -> stats -> unit

(** One parallel participant's work, keyed by its runtime domain id (the
    id {!Par.Pool.domain_ids} and trace dumps use). Under the shared-memo
    solver a participant's [states] and [memo_misses] both count the
    states it won the claim for and evaluated; [memo_hits] counts its
    probes answered by an already-resolved entry (recorded as
    [Claim_hit] in traces). *)
type domain_stats = { domain_id : int; stats : stats }

(** Cross-domain telemetry of the most recent [value_par].
    [distinct_keys] is the number of distinct state keys resolved in the
    shared memo — equal to the sequential solve's state count for the
    same root. The claim protocol evaluates every key exactly once, so
    [duplicated_keys] is 0 and [duplicated_work_pct] is 0.0 by
    construction, and the solver has no interval cuts, so
    [pruned_subtrees] is 0; all three are constants, kept so results
    documents keep their schema and compare against older baselines.
    [steals] counts successful deque steals, [claim_hits]/[claim_misses]
    the shared-memo probes answered by a resolved value / by another
    worker's live claim (the helping protocol). All exact, unlike the
    ring-trace estimates of [Obs.Trace_analysis]. *)
type par_stats = {
  domains : domain_stats list;  (** sorted by domain id *)
  distinct_keys : int;
  duplicated_keys : int;
  duplicated_work_pct : float;
  steals : int;
  claim_hits : int;
  claim_misses : int;
  pruned_subtrees : int;
}

val pp_par_stats : Format.formatter -> par_stats -> unit

(** A progress report from inside a running solve: the instance's stats so
    far, wall time since the root [value]/[best_move] call, and the
    evaluation rate (memo misses {e of this solve} per second — a reused
    instance does not count earlier solves' work in its rate). *)
type progress = { stats : stats; elapsed_s : float; states_per_sec : float }

val pp_progress : Format.formatter -> progress -> unit

(** How often progress fires when [set_progress] does not say: every 50 000
    memoized states (about twice during the 106 k-state E2 solve). *)
val default_progress_interval : int

(** The solver's [Logs] source, [blunting.mdp]; [best_move] logs candidate
    values and the chosen move (via the game's [pp_move]) at debug. *)
val log_src : Logs.src

(** {2 Out-of-core memo budget}

    A solve given a memo budget (per-call [?memo_budget], or the
    process default below) runs its memo through {!Store.Memo}: an
    exactly-once claim/resolve table whose resolved entries spill to
    sorted-run segment files once the in-RAM tier passes the budget,
    probed back through a per-shard LRU block cache. The discipline
    mirrors the in-RAM memo's exactly, so budgeted solves return
    bit-identical values and identical hit/miss/state counts — only
    peak memory and wall time change. Games that fit in budget never
    touch the disk (no file is even created). Once armed, an instance
    stays on the store — accumulating cross-solve memoization like the
    in-RAM table — until its [reset]. *)

(** [parse_memo_budget s] parses a byte count with an optional K/M/G
    (binary) suffix, as accepted by [--memo-budget] and
    [BLUNTING_MEMO_BUDGET]. [Ok 0] means "no budget". *)
val parse_memo_budget : string -> (int, string) result

(** [set_default_memo_budget b] sets the process-wide default budget
    applied when a solve passes no [?memo_budget] ([None] or [Some 0]
    and below disable it). Initialized from [BLUNTING_MEMO_BUDGET] at
    startup. *)
val set_default_memo_budget : int option -> unit

(** [memo_budget ()] is the current process-wide default. *)
val memo_budget : unit -> int option

(** The pure-to-in-place adapter: [Of_pure (G)] presents [G] as a
    {!GAME_INPLACE} whose working state points at a frame holding a pure
    state, its move list and the transition of the move being explored.
    [G.moves] is called once per evaluated state and [G.apply] once per
    explored move (the [branches] call caches it for [prob] and
    [apply]); [apply] pushes a frame for the successor and
    [checkpoint]/[restore] save and reinstate the current frame. Move
    [m] is the [m]-th element of [G.moves]. [moves] raises [Invalid_argument] on a
    state with [Sys.int_size - 1] or more moves, which its bitmask
    cannot hold. *)
module Of_pure (G : GAME) : sig
  include GAME_INPLACE

  (** [of_state s] is a fresh working state positioned at [s]. *)
  val of_state : G.state -> state
end

(** What both solver functors provide over a game whose states are
    [state]. Each functor application is one solver instance with its
    own memo and counters. *)
module type SOLVER = sig
  type state

  (** [value s] is the optimal (adversary-maximal) probability from [s]:
      the max over moves in ascending id order, folded with [Float.max]
      from [neg_infinity]; at chance moves the left-to-right sum
      [partial +. p *. v] from [0.0] over the branches.

      [?memo_budget] (or the process default) runs the memo
      out-of-core — see the "Out-of-core memo budget" section above;
      values and counts stay bit-identical.

      Over {!Make_inplace}, [s] is mutated during the solve and restored
      (journal-exactly) before returning. *)
  val value : ?memo_budget:int -> state -> float

  (** [explored ()] is the number of distinct states memoized so far. *)
  val explored : unit -> int

  (** [stats ()] is this instance's work since the last [reset]. *)
  val stats : unit -> stats

  (** [store_stats ()] is the out-of-core backend's cumulative telemetry
      (spills, block-cache traffic, amplification inputs) since a memo
      budget armed it — [None] while the instance is purely in-RAM. *)
  val store_stats : unit -> Store.Memo.stats option

  (** [set_progress ?interval_states hook] installs (or, with [None],
      removes) a progress hook for this instance. It fires synchronously
      from inside the recursion every [interval_states] newly memoized
      states — long solves report live, and the hook can never fire after
      [value] returns. Each tick is also logged at info level on the
      [blunting.mdp] source, hook or not. *)
  val set_progress : ?interval_states:int -> (progress -> unit) option -> unit

  (** [reset ()] clears the memo table, zeroes [stats], clears
      {!Make.last_par_stats}, and re-arms the per-solve telemetry
      baselines (solve start time and the per-solve miss base), so a
      reused instance reports sane [elapsed_s] and [states_per_sec] on
      its next solve. *)
  val reset : unit -> unit
end

(** The solver itself, over an in-place game. *)
module Make_inplace (G : GAME_INPLACE) : SOLVER with type state := G.state

(** The solver over a pure game: {!Make_inplace} over {!Of_pure}, plus
    the parallel entry point and [best_move]. *)
module Make (G : GAME) : sig
  include SOLVER with type state := G.state

  (** [value_par ?pool ?memo_budget ~jobs s] is [value s]
      computed by [jobs] workers. The tree is expanded a few plies to a
      frontier of distinct subtree roots, dealt into per-worker
      work-stealing deques ({!Par.Deque}). Each worker runs [value]'s
      evaluator over one shared claim table — a fresh {!Par.Sharded_tbl},
      or the instance's {!Store.Memo} under a memo budget — so each state
      is evaluated by exactly one worker, and a worker probing another's
      live claim evaluates that state's children before waiting for the
      owner's value. The result is bit-identical to [value s] at every
      job count. [jobs <= 1] is [value]; a frontier smaller than [jobs]
      is solved by one worker on the calling domain, over the instance's
      own memo. With [pool] the caller's pool is reused (with fewer than
      [jobs] slots the workers still all run, with less parallelism);
      otherwise a fresh pool is created for the call.

      Work counters merge into [stats]: states and misses gain the
      distinct-state count, hits the probe hits. A worker re-entering its
      own claim raises [Cyclic]. Progress hooks do not fire from workers.
      With {!Obs.Ring} tracing on, workers record [Solver_expand],
      [Claim_hit], [Claim_miss] and [Steal] events, and a
      store its [Store_*] events, into their domains' rings. *)
  val value_par :
    ?pool:Par.Pool.t ->
    ?memo_budget:int ->
    jobs:int ->
    G.state ->
    float

  (** [last_par_stats ()] is the cross-domain telemetry of the most recent
      [value_par] on this instance — [None] before the first, after
      [reset], and after any subsequent root solve ([value], [best_move]
      or [value_par] itself clear it on entry, so the report can never
      describe work an intervening solve overwrote). Computed eagerly
      when [value_par] returns; calling this costs nothing. *)
  val last_par_stats : unit -> par_stats option

  (** [best_move s] is a move achieving [value s]; [None] at terminals. *)
  val best_move : G.state -> G.move option

end
