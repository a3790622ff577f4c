(** Analysis of ring-buffer trace dumps.

    Consumes a {!Ring.dump} (from [--trace-out] / [Ring.dump]) and
    computes the questions the parallel-engine work needs answered: where
    does [value_par] lose against the sequential solve (duplicated
    expansions — near zero under the shared-memo work-stealing solver —
    idle domains, helping/steal traffic), which states are hot, and what
    the adversary's schedule actually did. Rendered either as a
    human report ({!pp}) or machine JSON ({!to_json}) — the payloads of
    [blunting trace analyze] and [bench/analyze.exe].

    Solver figures here are derived from the {e retained} ring events and
    from state-key {e hashes}, so they are estimates once rings wrap or
    hashes collide; the exact per-domain duplicate-key counts come from
    [Mdp.Solver]'s [last_par_stats] and land in the results document's
    PAR section. The two agree on unwrapped traces. *)

type domain_report = {
  domain : int;
  events : int;  (** retained events *)
  dropped : int;
  solver_hits : int;  (** private-memo hits ([Solver_hit]) *)
  solver_misses : int;  (** [Solver_expand] events *)
  claim_hits : int;  (** shared-memo hits ([Claim_hit]) *)
  claim_misses : int;  (** probes of a live claim ([Claim_miss], helping) *)
  steals : int;  (** successful deque steals ([Steal]) *)
  spills : int;  (** out-of-core sorted runs written ([Store_spill]) *)
  spill_bytes : int;  (** bytes those runs occupy on disk *)
  store_cache_hits : int;  (** block-cache hits ([Store_cache_hit]) *)
  store_cache_misses : int;  (** block-cache misses ([Store_cache_miss]) *)
  store_evictions : int;  (** blocks evicted from the cache ([Store_evict]) *)
  alloc_samples : int;  (** {!Obs.Memprof} samples ([Alloc_sample]) *)
  alloc_words : int;  (** sampled allocation words on this domain *)
  hit_rate : float;
      (** (solver + claim hits) / (all hits + misses), 0 when idle *)
  busy_us : float;  (** total time inside pool task slices *)
  idle_us : float;  (** total time inside pool idle slices *)
  utilization : float;  (** busy / trace duration, 0 without tasks *)
}

type hot_state = {
  key_hash : int;
  expansions : int;  (** times expanded (memo misses) across domains *)
  hits : int;
  domains : int;  (** distinct domains that touched the key *)
}

(** One aggregated allocation site from [Alloc_sample] events. The hash
    is the one carried in the results document's ["allocation_profile"]
    [site_hash] fields, so trace timelines and named profile tables
    join. *)
type alloc_site = {
  site_hash : int;
  samples : int;
  words : int;  (** sampled words *)
  alloc_domains : int;  (** distinct domains that sampled the site *)
}

(** Attribution of adversary decisions recorded by the simulator's run
    loop: every [Adv_decision] event, with the enabled-set sizes the
    scheduler chose from and the kinds of the chosen events. *)
type decision_summary = {
  decisions : int;
  forced : int;  (** decisions with a single enabled event *)
  min_enabled : int;
  max_enabled : int;
  mean_enabled : float;
  steps : int;  (** chosen [Sim_step] events *)
  delivers : int;
  crashes : int;
}

type t = {
  t0_us : float;  (** earliest event timestamp *)
  t1_us : float;
  domains : domain_report list;  (** by domain id *)
  hot : hot_state list;  (** top-N by expansions, then hits *)
  total_expansions : int;
  distinct_keys : int;  (** distinct expanded key hashes *)
  duplicated_keys : int;  (** hashes expanded on >= 2 domains *)
  duplicated_work_pct : float;
      (** 100 * (expansions - distinct) / expansions over >= 2 domains *)
  allocators : alloc_site list;  (** top-N by sampled words *)
  queue_depths : (int * int) list;  (** depth -> samples, ascending *)
  decisions : decision_summary option;  (** None without [Adv_decision]s *)
  timeline_buckets : int;
  timeline : (int * float array) list;
      (** per domain: busy fraction per time bucket *)
}

(** [analyze ?top ?buckets d] computes the report; [top] (default 10)
    bounds the hot-state and allocator lists, [buckets] (default 20) the
    utilization timeline's resolution. *)
val analyze : ?top:int -> ?buckets:int -> Ring.dump -> t

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
