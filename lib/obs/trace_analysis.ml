type domain_report = {
  domain : int;
  events : int;
  dropped : int;
  solver_hits : int;
  solver_misses : int;
  claim_hits : int;
  claim_misses : int;
  steals : int;
  spills : int;
  spill_bytes : int;
  store_cache_hits : int;
  store_cache_misses : int;
  store_evictions : int;
  alloc_samples : int;
  alloc_words : int;
  hit_rate : float;
  busy_us : float;
  idle_us : float;
  utilization : float;
}

type hot_state = { key_hash : int; expansions : int; hits : int; domains : int }
type alloc_site = { site_hash : int; samples : int; words : int; alloc_domains : int }

type decision_summary = {
  decisions : int;
  forced : int;
  min_enabled : int;
  max_enabled : int;
  mean_enabled : float;
  steps : int;
  delivers : int;
  crashes : int;
}

type t = {
  t0_us : float;
  t1_us : float;
  domains : domain_report list;
  hot : hot_state list;
  total_expansions : int;
  distinct_keys : int;
  duplicated_keys : int;
  duplicated_work_pct : float;
  allocators : alloc_site list;
  queue_depths : (int * int) list;
  decisions : decision_summary option;
  timeline_buckets : int;
  timeline : (int * float array) list;
}

(* Per-key accumulator for the hot-state and duplicate-work figures. The
   domain list stays tiny (one entry per domain that expanded the key). *)
type key_acc = {
  mutable expansions : int;
  mutable hits : int;
  mutable expand_domains : int list;  (* distinct, unsorted *)
  mutable touch_domains : int list;
}

(* Per-allocation-site accumulator (site hash = the [Alloc_sample] [a]
   payload, joinable with the results document's [site_hash] fields). *)
type alloc_acc = {
  mutable al_samples : int;
  mutable al_words : int;
  mutable al_domains : int list;
}

let add_domain d ds = if List.mem d ds then ds else d :: ds

(* Sum the durations of (start, stop) slice pairs among a domain's events,
   also feeding per-bucket busy time. Slices have no reason to nest, but a
   depth counter keeps a truncated ring (lost [start]) from going
   negative. *)
let slice_time ~t0 ~t1 ~buckets ~bucket_acc ~start_tag ~stop_tag events =
  let total = ref 0.0 in
  let depth = ref 0 in
  let opened = ref 0.0 in
  let span = Float.max (t1 -. t0) 1e-9 in
  let credit s e =
    total := !total +. (e -. s);
    match bucket_acc with
    | None -> ()
    | Some acc ->
        let w = span /. float_of_int buckets in
        for i = 0 to buckets - 1 do
          let blo = t0 +. (float_of_int i *. w) in
          let bhi = blo +. w in
          let o = Float.min e bhi -. Float.max s blo in
          if o > 0.0 then acc.(i) <- acc.(i) +. (o /. w)
        done
  in
  List.iter
    (fun (e : Ring.event) ->
      if e.tag = start_tag then begin
        if !depth = 0 then opened := e.ts_us;
        incr depth
      end
      else if e.tag = stop_tag && !depth > 0 then begin
        decr depth;
        if !depth = 0 then credit !opened e.ts_us
      end)
    events;
  if !depth > 0 then credit !opened t1;
  !total

let analyze ?(top = 10) ?(buckets = 20) (d : Ring.dump) =
  let all_events =
    List.concat_map (fun (dd : Ring.domain_dump) -> dd.events) (d.domains @ d.runtime)
  in
  let t0, t1 =
    List.fold_left
      (fun (lo, hi) (e : Ring.event) ->
        (Float.min lo e.ts_us, Float.max hi e.ts_us))
      (infinity, neg_infinity) all_events
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let t1 = if Float.is_finite t1 then t1 else 0.0 in
  let keys : (int, key_acc) Hashtbl.t = Hashtbl.create 4096 in
  let key h =
    match Hashtbl.find_opt keys h with
    | Some a -> a
    | None ->
        let a = { expansions = 0; hits = 0; expand_domains = []; touch_domains = [] } in
        Hashtbl.add keys h a;
        a
  in
  let queue : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let allocs : (int, alloc_acc) Hashtbl.t = Hashtbl.create 64 in
  let alloc h =
    match Hashtbl.find_opt allocs h with
    | Some a -> a
    | None ->
        let a = { al_samples = 0; al_words = 0; al_domains = [] } in
        Hashtbl.add allocs h a;
        a
  in
  let dec_count = ref 0
  and dec_forced = ref 0
  and dec_min = ref max_int
  and dec_max = ref 0
  and dec_sum = ref 0
  and dec_steps = ref 0
  and dec_delivers = ref 0
  and dec_crashes = ref 0 in
  let timeline = ref [] in
  let reports =
    List.map
      (fun (dd : Ring.domain_dump) ->
        let hits = ref 0 and misses = ref 0 in
        let c_hits = ref 0 and c_misses = ref 0 in
        let steals = ref 0 in
        let spills = ref 0 and spill_bytes = ref 0 in
        let s_hits = ref 0 and s_misses = ref 0 and s_evicts = ref 0 in
        let a_samples = ref 0 and a_words = ref 0 in
        let pending_decision = ref false in
        List.iter
          (fun (e : Ring.event) ->
            match e.tag with
            | Ring.Solver_hit ->
                incr hits;
                let a = key e.a in
                a.hits <- a.hits + 1;
                a.touch_domains <- add_domain dd.domain a.touch_domains
            | Ring.Claim_hit ->
                (* a shared-memo probe answered by a resolved value — a hit
                   for hit-rate purposes, kept separate in the report *)
                incr c_hits;
                let a = key e.a in
                a.hits <- a.hits + 1;
                a.touch_domains <- add_domain dd.domain a.touch_domains
            | Ring.Claim_miss ->
                (* payload is the claim's owner id, not a key hash — counted
                   but never fed to the key accumulator *)
                incr c_misses
            | Ring.Steal -> incr steals
            | Ring.Store_spill ->
                (* [a] = entries in the run, [b] = run bytes on disk *)
                incr spills;
                spill_bytes := !spill_bytes + e.b
            | Ring.Store_cache_hit -> incr s_hits
            | Ring.Store_cache_miss -> incr s_misses
            | Ring.Store_evict -> incr s_evicts
            | Ring.Alloc_sample ->
                incr a_samples;
                a_words := !a_words + e.b;
                let a = alloc e.a in
                a.al_samples <- a.al_samples + 1;
                a.al_words <- a.al_words + e.b;
                a.al_domains <- add_domain dd.domain a.al_domains
            | Ring.Solver_expand ->
                incr misses;
                let a = key e.a in
                a.expansions <- a.expansions + 1;
                a.expand_domains <- add_domain dd.domain a.expand_domains;
                a.touch_domains <- add_domain dd.domain a.touch_domains
            | Ring.Pool_queue_depth ->
                Hashtbl.replace queue e.a
                  (1 + Option.value ~default:0 (Hashtbl.find_opt queue e.a))
            | Ring.Adv_decision ->
                incr dec_count;
                if e.a <= 1 then incr dec_forced;
                dec_min := min !dec_min e.a;
                dec_max := max !dec_max e.a;
                dec_sum := !dec_sum + e.a;
                pending_decision := true
            | Ring.Sim_step | Ring.Sim_deliver | Ring.Sim_crash ->
                if !pending_decision then begin
                  pending_decision := false;
                  match e.tag with
                  | Ring.Sim_step -> incr dec_steps
                  | Ring.Sim_deliver -> incr dec_delivers
                  | _ -> incr dec_crashes
                end
            | _ -> ())
          dd.events;
        let bucket_acc = Array.make buckets 0.0 in
        let busy_us =
          slice_time ~t0 ~t1 ~buckets ~bucket_acc:(Some bucket_acc)
            ~start_tag:Ring.Pool_task_start ~stop_tag:Ring.Pool_task_stop
            dd.events
        in
        let idle_us =
          slice_time ~t0 ~t1 ~buckets ~bucket_acc:None
            ~start_tag:Ring.Pool_idle_start ~stop_tag:Ring.Pool_idle_stop
            dd.events
        in
        if busy_us > 0.0 then timeline := (dd.domain, bucket_acc) :: !timeline;
        let all_hits = !hits + !c_hits in
        let total = all_hits + !misses in
        {
          domain = dd.domain;
          events = List.length dd.events;
          dropped = dd.dropped;
          solver_hits = !hits;
          solver_misses = !misses;
          claim_hits = !c_hits;
          claim_misses = !c_misses;
          steals = !steals;
          spills = !spills;
          spill_bytes = !spill_bytes;
          store_cache_hits = !s_hits;
          store_cache_misses = !s_misses;
          store_evictions = !s_evicts;
          alloc_samples = !a_samples;
          alloc_words = !a_words;
          hit_rate =
            (if total = 0 then 0.0
             else float_of_int all_hits /. float_of_int total);
          busy_us;
          idle_us;
          utilization =
            (if busy_us > 0.0 && t1 > t0 then busy_us /. (t1 -. t0) else 0.0);
        })
      d.domains
  in
  let total_expansions = ref 0
  and distinct = ref 0
  and duplicated = ref 0 in
  Hashtbl.iter
    (fun _ a ->
      if a.expansions > 0 then begin
        total_expansions := !total_expansions + a.expansions;
        incr distinct;
        if List.length a.expand_domains >= 2 then incr duplicated
      end)
    keys;
  let hot =
    Hashtbl.fold
      (fun h a acc ->
        { key_hash = h; expansions = a.expansions; hits = a.hits;
          domains = List.length a.touch_domains }
        :: acc)
      keys []
    |> List.sort (fun (x : hot_state) (y : hot_state) ->
           match compare (y.expansions, y.hits) (x.expansions, x.hits) with
           | 0 -> compare x.key_hash y.key_hash
           | c -> c)
    |> List.filteri (fun i _ -> i < top)
  in
  let allocators =
    Hashtbl.fold
      (fun h a acc ->
        { site_hash = h; samples = a.al_samples; words = a.al_words;
          alloc_domains = List.length a.al_domains }
        :: acc)
      allocs []
    |> List.sort (fun (x : alloc_site) (y : alloc_site) ->
           match compare (y.words, y.samples) (x.words, x.samples) with
           | 0 -> compare x.site_hash y.site_hash
           | c -> c)
    |> List.filteri (fun i _ -> i < top)
  in
  {
    t0_us = t0;
    t1_us = t1;
    domains = reports;
    hot;
    total_expansions = !total_expansions;
    distinct_keys = !distinct;
    duplicated_keys = !duplicated;
    duplicated_work_pct =
      (if !total_expansions = 0 then 0.0
       else
         100.0
         *. float_of_int (!total_expansions - !distinct)
         /. float_of_int !total_expansions);
    allocators;
    queue_depths =
      Hashtbl.fold (fun d c acc -> (d, c) :: acc) queue []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    decisions =
      (if !dec_count = 0 then None
       else
         Some
           {
             decisions = !dec_count;
             forced = !dec_forced;
             min_enabled = !dec_min;
             max_enabled = !dec_max;
             mean_enabled = float_of_int !dec_sum /. float_of_int !dec_count;
             steps = !dec_steps;
             delivers = !dec_delivers;
             crashes = !dec_crashes;
           });
    timeline_buckets = buckets;
    timeline = List.sort (fun (a, _) (b, _) -> compare a b) !timeline;
  }

(* ---- rendering ------------------------------------------------------- *)

let spark fractions =
  (* ten ASCII intensity levels, dense enough to eyeball idle domains *)
  let levels = " .:-=+*#%@" in
  String.init (Array.length fractions) (fun i ->
      let f = Float.min 1.0 (Float.max 0.0 fractions.(i)) in
      levels.[min 9 (int_of_float (f *. 10.0))])

let pp ppf t =
  let span_s = (t.t1_us -. t.t0_us) /. 1e6 in
  let total_events =
    List.fold_left (fun a (d : domain_report) -> a + d.events) 0 t.domains
  in
  let total_dropped =
    List.fold_left (fun a (d : domain_report) -> a + d.dropped) 0 t.domains
  in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "trace: %d events on %d domain%s, %d dropped, span %.3fs@,"
    total_events
    (List.length t.domains)
    (if List.length t.domains = 1 then "" else "s")
    total_dropped span_s;
  if t.domains <> [] then begin
    Fmt.pf ppf "@,%-8s %9s %9s %9s %9s %8s %7s %10s@," "domain" "events"
      "expand" "hits" "hit-rate" "busy(s)" "util" "alloc(w)";
    List.iter
      (fun (d : domain_report) ->
        Fmt.pf ppf "%-8d %9d %9d %9d %8.1f%% %8.3f %6.1f%% %10d@," d.domain
          d.events d.solver_misses
          (d.solver_hits + d.claim_hits)
          (100.0 *. d.hit_rate)
          (d.busy_us /. 1e6)
          (100.0 *. d.utilization)
          d.alloc_words)
      t.domains;
    let sum f = List.fold_left (fun a d -> a + f d) 0 t.domains in
    let steals = sum (fun d -> d.steals)
    and c_hits = sum (fun (d : domain_report) -> d.claim_hits)
    and c_misses = sum (fun (d : domain_report) -> d.claim_misses) in
    if steals + c_hits + c_misses > 0 then
      Fmt.pf ppf
        "@,work stealing: %d steal%s, %d claim hit%s, %d claim miss%s \
         (helping)@,"
        steals
        (if steals = 1 then "" else "s")
        c_hits
        (if c_hits = 1 then "" else "s")
        c_misses
        (if c_misses = 1 then "" else "es");
    let spills = sum (fun (d : domain_report) -> d.spills)
    and spill_bytes = sum (fun (d : domain_report) -> d.spill_bytes)
    and s_hits = sum (fun (d : domain_report) -> d.store_cache_hits)
    and s_misses = sum (fun (d : domain_report) -> d.store_cache_misses)
    and s_evicts = sum (fun (d : domain_report) -> d.store_evictions) in
    if spills + s_hits + s_misses + s_evicts > 0 then
      Fmt.pf ppf
        "@,out-of-core store: %d spill run%s (%d B), block cache %d/%d hits \
         (%.1f%%), %d eviction%s@,"
        spills
        (if spills = 1 then "" else "s")
        spill_bytes s_hits (s_hits + s_misses)
        (if s_hits + s_misses = 0 then 0.0
         else 100.0 *. float_of_int s_hits /. float_of_int (s_hits + s_misses))
        s_evicts
        (if s_evicts = 1 then "" else "s");
    let a_samples = sum (fun (d : domain_report) -> d.alloc_samples)
    and a_words = sum (fun (d : domain_report) -> d.alloc_words) in
    if a_samples > 0 then begin
      Fmt.pf ppf "@,allocation: %d sample%s, %d sampled words@," a_samples
        (if a_samples = 1 then "" else "s")
        a_words;
      Fmt.pf ppf "top allocators (by sampled words):@,";
      List.iter
        (fun (s : alloc_site) ->
          Fmt.pf ppf "  site %08x  words %d  samples %d  domains %d@,"
            s.site_hash s.words s.samples s.alloc_domains)
        t.allocators
    end
  end;
  if t.total_expansions > 0 then begin
    Fmt.pf ppf
      "@,duplicated work: %d expansions over %d distinct keys — %d key%s on \
       >=2 domains, %.1f%% of expansions duplicated@,"
      t.total_expansions t.distinct_keys t.duplicated_keys
      (if t.duplicated_keys = 1 then "" else "s")
      t.duplicated_work_pct;
    Fmt.pf ppf "top states (by expansions):@,";
    List.iter
      (fun h ->
        Fmt.pf ppf "  key %08x  expanded %d  hits %d  domains %d@," h.key_hash
          h.expansions h.hits h.domains)
      t.hot
  end;
  if t.queue_depths <> [] then begin
    Fmt.pf ppf "@,queue depth samples:@,";
    List.iter
      (fun (d, c) -> Fmt.pf ppf "  depth %2d: %d sample%s@," d c
          (if c = 1 then "" else "s"))
      t.queue_depths
  end;
  (match t.decisions with
  | None -> ()
  | Some s ->
      Fmt.pf ppf
        "@,adversary decisions: %d (%d forced), enabled set %d..%d (mean \
         %.1f)@,  chosen: %d step%s, %d deliver%s, %d crash%s@,"
        s.decisions s.forced s.min_enabled s.max_enabled s.mean_enabled s.steps
        (if s.steps = 1 then "" else "s")
        s.delivers
        (if s.delivers = 1 then "y" else "ies")
        s.crashes
        (if s.crashes = 1 then "" else "es"));
  if t.timeline <> [] then begin
    Fmt.pf ppf "@,utilization timeline (%d buckets of %.3fs):@,"
      t.timeline_buckets
      (span_s /. float_of_int t.timeline_buckets);
    List.iter
      (fun (d, fracs) -> Fmt.pf ppf "  domain %-3d |%s|@," d (spark fracs))
      t.timeline
  end;
  Fmt.pf ppf "@]"

let to_json t =
  let domain_json (d : domain_report) =
    Json.Obj
      [
        ("domain", Json.Int d.domain);
        ("events", Json.Int d.events);
        ("dropped", Json.Int d.dropped);
        ("solver_expansions", Json.Int d.solver_misses);
        ("solver_hits", Json.Int d.solver_hits);
        ("claim_hits", Json.Int d.claim_hits);
        ("claim_misses", Json.Int d.claim_misses);
        ("steals", Json.Int d.steals);
        ("spills", Json.Int d.spills);
        ("spill_bytes", Json.Int d.spill_bytes);
        ("store_cache_hits", Json.Int d.store_cache_hits);
        ("store_cache_misses", Json.Int d.store_cache_misses);
        ("store_evictions", Json.Int d.store_evictions);
        ("alloc_samples", Json.Int d.alloc_samples);
        ("alloc_words", Json.Int d.alloc_words);
        ("hit_rate", Json.Float d.hit_rate);
        ("busy_us", Json.Float d.busy_us);
        ("idle_us", Json.Float d.idle_us);
        ("utilization", Json.Float d.utilization);
      ]
  in
  let hot_json h =
    Json.Obj
      [
        ("key_hash", Json.Int h.key_hash);
        ("expansions", Json.Int h.expansions);
        ("hits", Json.Int h.hits);
        ("domains", Json.Int h.domains);
      ]
  in
  let alloc_json (s : alloc_site) =
    Json.Obj
      [
        ("site_hash", Json.Int s.site_hash);
        ("samples", Json.Int s.samples);
        ("words", Json.Int s.words);
        ("domains", Json.Int s.alloc_domains);
      ]
  in
  Json.Obj
    ([
       ("t0_us", Json.Float t.t0_us);
       ("t1_us", Json.Float t.t1_us);
       ("domains", Json.List (List.map domain_json t.domains));
       ("hot_states", Json.List (List.map hot_json t.hot));
       ("total_expansions", Json.Int t.total_expansions);
       ("distinct_keys", Json.Int t.distinct_keys);
       ("duplicated_keys", Json.Int t.duplicated_keys);
       ("duplicated_work_pct", Json.Float t.duplicated_work_pct);
       ("allocators", Json.List (List.map alloc_json t.allocators));
       ( "queue_depths",
         Json.Obj
           (List.map
              (fun (d, c) -> (string_of_int d, Json.Int c))
              t.queue_depths) );
       ( "timeline",
         Json.Obj
           (List.map
              (fun (d, fracs) ->
                ( string_of_int d,
                  Json.List
                    (Array.to_list (Array.map (fun f -> Json.Float f) fracs)) ))
              t.timeline) );
     ]
    @
    match t.decisions with
    | None -> []
    | Some s ->
        [
          ( "decisions",
            Json.Obj
              [
                ("count", Json.Int s.decisions);
                ("forced", Json.Int s.forced);
                ("min_enabled", Json.Int s.min_enabled);
                ("max_enabled", Json.Int s.max_enabled);
                ("mean_enabled", Json.Float s.mean_enabled);
                ("steps", Json.Int s.steps);
                ("delivers", Json.Int s.delivers);
                ("crashes", Json.Int s.crashes);
              ] );
        ])
