(** The in-place presentation of {!Weakener_va}: the same
    weakener-over-VA game packed into one mutable int array with a trail
    journal, solved by {!Mdp.Solver.Make_inplace}. [Weakener_va] is the
    specification — move numbering ([Step p] = move id [p]), chance
    branch order, probabilities and the canonical encoding agree
    exactly, so values, explored counts and hit/miss sequences are
    bit-identical between the two solvers (the lockstep tests in
    [test_inplace.ml] enforce the agreement move by move).

    {!Weakener_va.bad_probability} routes sequential ([jobs <= 1])
    solves here; the pure presentation remains the engine for
    [value_par]. *)

module Game : Mdp.Solver.GAME_INPLACE

(** [init ~k] — requires [k >= 1]. The returned working state is private
    to the caller: the solver mutates it during a solve and rewinds it
    before returning. *)
val init : k:int -> Game.state

(** [copy s] is an independent deep copy (for snapshot-vs-rewind
    tests). *)
val copy : Game.state -> Game.state

(** [equal a b] — exact cell-for-cell equality, including dead fields of
    completed operations: a rewind must restore the journal's every
    write, not just the semantically live cells. *)
val equal : Game.state -> Game.state -> bool

(** [bad_probability ~k ()] is the exact adversary-optimal
    probability that [p2] loops forever with [VA^k] registers —
    bit-identical to [Weakener_va.bad_probability ~jobs:1 ~k ()]. *)
val bad_probability : ?memo_budget:int -> k:int -> unit -> float

(** See {!Mdp.Solver.Make_inplace.store_stats}. *)
val store_stats : unit -> Store.Memo.stats option

val explored_states : unit -> int
val reset : unit -> unit
val solver_stats : unit -> Mdp.Solver.stats

val set_progress :
  ?interval_states:int -> (Mdp.Solver.progress -> unit) option -> unit
