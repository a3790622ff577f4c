(* The benchmark's own tests, on the four solve paths at k = 1: the
   traced run's own gate finds the timing wrappers leave values and
   counters unchanged (the traced solve is compared bit for bit with an
   untraced one and the reference), the memo replay
   claims every memoized key exactly once, and both kinds of run print a
   result that parses and carries exactly the metrics BENCHMARK.json
   names. *)

open Perfbench

let small =
  Workload.
    [
      { name = "abd1-seq"; game = Abd; k = 1; jobs = 1; memo_budget = None;
        ref_value = 1.0; ref_states = 106_263; ref_keys = 106_263 };
      { name = "abd1-par2"; game = Abd; k = 1; jobs = 2; memo_budget = None;
        ref_value = 1.0; ref_states = 106_219; ref_keys = 106_263 };
      { name = "abd1-spill"; game = Abd; k = 1; jobs = 1;
        memo_budget = Some (1 lsl 20); ref_value = 1.0; ref_states = 106_263;
        ref_keys = 106_263 };
      { name = "va1-inplace"; game = Va; k = 1; jobs = 1; memo_budget = None;
        ref_value = 0.5; ref_states = 2021; ref_keys = 2021 };
    ]

let string k o =
  Option.get (Option.bind (Obs.Json.member k o) Obs.Json.to_string_opt)

(* (name, unit) of every metric in one of BENCHMARK.json's lists *)
let declared list =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = Result.get_ok (Obs.Json.of_string text) in
  Option.get (Option.bind (Obs.Json.member list doc) Obs.Json.to_list_opt)
  |> List.map (fun o -> (string "name" o, string "unit" o))
  |> List.sort compare

(* The printed result, parsed back: (correct, attempted, failed,
   sorted (name, unit) of its metrics). *)
let parse_result (o : Bench.outcome) =
  let text = Obs.Json.to_string (Bench.result_json o) in
  let doc = Result.get_ok (Obs.Json.of_string text) in
  let get k = Option.get (Obs.Json.member k doc) in
  let metric (name, m) =
    let value =
      Option.bind (Obs.Json.member "value" m) Obs.Json.to_number_opt
    in
    Alcotest.(check bool) (name ^ " has a number") true (value <> None);
    (name, string "unit" m)
  in
  let metrics =
    match get "metrics" with
    | Obs.Json.Obj ms -> List.map metric ms
    | _ -> Alcotest.fail "metrics is not an object"
  in
  ( get "correct" = Obs.Json.Bool true,
    Option.get (Obs.Json.to_int_opt (get "attempted")),
    Option.get (Obs.Json.to_int_opt (get "failed")),
    List.sort compare metrics )

let traced_run (w : Workload.t) () =
  let o = Bench.traced w in
  let correct, attempted, failed, metrics = parse_result o in
  Alcotest.(check int) "attempted" 2 attempted;
  Alcotest.(check int) "failed" 0 failed;
  Alcotest.(check bool) "correct" true correct;
  Alcotest.(check (list (pair string string))) "per-layer metrics"
    (declared "per_layer") metrics

let end_to_end_run (w : Workload.t) () =
  let o = Bench.end_to_end w ~seconds:0.0 in
  let correct, attempted, failed, metrics = parse_result o in
  Alcotest.(check int) "attempted" 2 attempted;
  Alcotest.(check int) "failed" 0 failed;
  Alcotest.(check bool) "correct" true correct;
  Alcotest.(check (list (pair string string))) "end-to-end metrics"
    (declared "end_to_end") metrics

(* Every backend's replay of the parallel solve's two probe sequences
   claims each memoized key once and answers every other probe. *)
let replay_claims_once () =
  let w = List.nth small 1 in
  let tr = Workload.traced w in
  let domains = Layers.snapshot () in
  Alcotest.(check int) "two domains traced" 2 (List.length domains);
  let keys = Layers.captured_keys () in
  Alcotest.(check int) "visited keys" w.ref_keys (Array.length keys);
  let probes =
    List.fold_left (fun a d -> a + d.Layers.encode_calls) 0 domains
  in
  let seqs =
    Result.get_ok
      (Replay.sequences keys
         (List.map
            (fun d -> (d.Layers.probe_fingerprints, d.Layers.resolves))
            domains))
  in
  let clock_ns = Layers.clock_cost_ns () in
  List.iter
    (fun (name, (r : Replay.t)) ->
      Alcotest.(check int) (name ^ " claims") tr.stats.states r.claims;
      Alcotest.(check int) (name ^ " probes") probes (r.claims + r.hits);
      Alcotest.(check int) (name ^ " wrong") 0 r.wrong)
    [
      ("slice", Replay.slice_tbl ~clock_ns keys seqs);
      ("sharded", Replay.sharded ~clock_ns ~participants:1 keys seqs);
      ("sharded2", Replay.sharded ~clock_ns ~participants:2 keys seqs);
      ("store", fst (Replay.store ~clock_ns ~budget:(1 lsl 20) keys seqs));
    ]

(* The gate fails a run whose solves disagree with the reference. *)
let wrong_reference_fails () =
  let w = { (List.nth small 3) with ref_value = 0.25 } in
  let o = Bench.end_to_end w ~seconds:0.0 in
  Alcotest.(check bool) "a solve failed" true (o.failed >= 1);
  Alcotest.(check bool) "not correct" false (Bench.correct o)

let () =
  let per f =
    List.map
      (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (f w))
      small
  in
  (* The end-to-end runs fork a process per solve, which OCaml allows
     only before this process spawns a domain, so they come first. *)
  Alcotest.run "perfbench"
    [
      ("end-to-end run", per end_to_end_run);
      ( "gate",
        [
          Alcotest.test_case "wrong reference fails" `Quick
            wrong_reference_fails;
          Alcotest.test_case "replay claims once" `Quick replay_claims_once;
        ] );
      ("traced run", per traced_run);
    ]
