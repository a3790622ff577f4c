(* The benchmark's workloads: fixed exact-solve game instances with their
   reference values and distinct-state counts, and the two ways to solve
   one — untraced, through the model library's public entry point, and
   traced, through the solver functors applied to the timing wrappers of
   {!Layers}. *)

open Model

type game = Abd | Va

type t = {
  name : string;
  game : game;
  k : int;
  jobs : int;
  memo_budget : int option;
  ref_value : float;
  ref_states : int;  (* the solver's reported distinct-state count *)
  ref_keys : int;  (* distinct states the solve visits *)
}

(* Reference values are the paper's exact quantities as this solver
   computes them: Prob[ABD^3] = 5/9 and Prob[ABD^2] = 5/8 (A.3.2), and
   VA^14's 1/2, which the solver's float folds reach as 1/2 - 2^-52.
   [value_par] evaluates the few states above its frontier
   outside the shared memo and leaves them out of its distinct-state
   count, so the parallel workload reports 44 states fewer than it
   visits; the sequential count is the visited one. *)
let all =
  [
    {
      name = "abd3-seq";
      game = Abd;
      k = 3;
      jobs = 1;
      memo_budget = None;
      ref_value = 0x1.1c71c71c71c72p-1;
      ref_states = 803_390;
      ref_keys = 803_390;
    };
    {
      name = "abd3-par2";
      game = Abd;
      k = 3;
      jobs = 2;
      memo_budget = None;
      ref_value = 0x1.1c71c71c71c72p-1;
      ref_states = 803_346;
      ref_keys = 803_390;
    };
    {
      name = "abd2-spill";
      game = Abd;
      k = 2;
      jobs = 1;
      memo_budget = Some (1 lsl 20);
      ref_value = 0.625;
      ref_states = 318_920;
      ref_keys = 318_920;
    };
    {
      name = "va14-inplace";
      game = Va;
      k = 14;
      jobs = 1;
      memo_budget = None;
      ref_value = 0x1.ffffffffffffcp-2;
      ref_states = 1_536_593;
      ref_keys = 1_536_593;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

type solve = {
  value : float;
  stats : Mdp.Solver.stats;
  par : Mdp.Solver.par_stats option;
  store : Store.Memo.stats option;
  wall_s : float;
  cpu_s : float;  (* process user + system time, every domain *)
  minor_words : float;
  major_collections : int;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The heap is collected before the clock starts, so each solve starts
   from the same GC state whatever ran before it. *)
let measure f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () in
  let t0 = Layers.now_ns () in
  let value = f () in
  let t1 = Layers.now_ns () in
  let c1 = cpu_now () in
  let g1 = Gc.quick_stat () in
  ( value,
    float_of_int (t1 - t0) /. 1e9,
    c1 -. c0,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* Reset the solver, measure one solve, read its counters, and reset
   again to free the memo. *)
let record ~reset ~solve ~stats ~par ~store =
  reset ();
  let value, wall_s, cpu_s, minor_words, major_collections = measure solve in
  let r =
    {
      value;
      stats = stats ();
      par = par ();
      store = store ();
      wall_s;
      cpu_s;
      minor_words;
      major_collections;
    }
  in
  reset ();
  r

let untraced ?pool w =
  let memo_budget = w.memo_budget and jobs = w.jobs and k = w.k in
  match w.game with
  | Abd ->
      record ~reset:Weakener_abd.reset
        ~solve:(fun () ->
          Weakener_abd.bad_probability ?pool ?memo_budget ~jobs ~k ())
        ~stats:Weakener_abd.solver_stats ~par:Weakener_abd.last_par_stats
        ~store:Weakener_abd.store_stats
  | Va ->
      record ~reset:Weakener_va.reset
        ~solve:(fun () ->
          Weakener_va.bad_probability ?pool ?memo_budget ~jobs ~k ())
        ~stats:Weakener_va.solver_stats
        ~par:(fun () -> None)
        ~store:Weakener_va.store_stats

module Abd_game = Layers.Game (Weakener_abd.Game)
module Va_game = Layers.Inplace (Weakener_va_packed.Game)
module Traced_abd = Mdp.Solver.Make (Abd_game)
module Traced_va = Mdp.Solver.Make_inplace (Va_game)

(* The same solve as [untraced], through the same evaluator the library
   entry point reaches: [bad_probability] is [value_par] over
   [Weakener_abd.init] for ABD, and [Make_inplace] over the packed VA
   game for sequential VA. Resolve events are tracked for sequential
   solves only. *)
let traced ?pool w =
  Layers.reset ();
  let memo_budget = w.memo_budget and jobs = w.jobs and k = w.k in
  let tracked solve finish () =
    Layers.track_resolves := jobs = 1;
    Fun.protect
      ~finally:(fun () -> Layers.track_resolves := false)
      (fun () ->
        let v = solve () in
        if jobs = 1 then finish ();
        v)
  in
  match w.game with
  | Abd ->
      let module S = Traced_abd in
      record ~reset:S.reset
        ~solve:
          (tracked
             (fun () ->
               S.value_par ?pool ?memo_budget ~jobs (Weakener_abd.init ~k ()))
             Abd_game.finish)
        ~stats:S.stats ~par:S.last_par_stats ~store:S.store_stats
  | Va ->
      if jobs > 1 then
        invalid_arg "Workload.traced: parallel VA solves run the pure game";
      let module S = Traced_va in
      record ~reset:S.reset
        ~solve:
          (tracked
             (fun () -> S.value ?memo_budget (Weakener_va_packed.init ~k))
             Va_game.finish)
        ~stats:S.stats
        ~par:(fun () -> None)
        ~store:S.store_stats

(* The correctness gate: value bits and distinct-state count equal the
   reference. *)
let matches_reference w s =
  Int64.equal (Int64.bits_of_float s.value) (Int64.bits_of_float w.ref_value)
  && s.stats.Mdp.Solver.states = w.ref_states

(* One set-up as a user of the solver pays it before a solve: a cleared
   memo, the root state, the domain pool of a parallel workload, and the
   spill store of a budgeted one (whose directory is created and removed
   again). The pool is returned for the timed solves to use. *)
let setup_once w =
  (match w.game with
  | Abd ->
      Weakener_abd.reset ();
      ignore (Sys.opaque_identity (Weakener_abd.init ~k:w.k ()))
  | Va ->
      Weakener_va.reset ();
      ignore (Sys.opaque_identity (Weakener_va_packed.init ~k:w.k)));
  (match w.memo_budget with
  | Some budget -> Store.Memo.close (Store.Memo.create ~budget ())
  | None -> ());
  if w.jobs > 1 then Some (Par.Pool.create ~jobs:w.jobs) else None
