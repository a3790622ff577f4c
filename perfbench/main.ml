(* The solver benchmark, one workload per process:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0), it solves the workload back to back for about S
   seconds and reports the end-to-end metrics; traced (--trace 1), it
   reports the per-layer metrics of one traced solve and its memo
   replay. The workloads are fixed game instances with exact reference
   answers, so the seed selects nothing; it is recorded with the run.
   Two JSON lines come first, the run's provenance and a summary; the
   last line of standard output is the result: {"correct", "attempted",
   "failed", "metrics"}. The exit code is 0 only when every solve
   matched its reference. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 in
  let seconds = ref 10.0 and trace = ref 0 in
  let names = List.map (fun w -> w.Workload.name) Workload.all in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " names );
      ("--seed", Arg.Set_int seed, "N recorded with the run");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced run lasts");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.find !workload with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let open Obs.Json in
  let env name =
    String (Option.value (Sys.getenv_opt name) ~default:"unknown")
  in
  let budget = match w.memo_budget with Some b -> Int b | None -> Null in
  let provenance =
    [
      ("commit", env "PERFBENCH_COMMIT");
      ("source_sha256", env "PERFBENCH_SOURCE_SHA256");
      ("ocaml_version", String Sys.ocaml_version);
      ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
      ("workload", String w.name);
      ("jobs", Int w.jobs);
      ("memo_budget", budget);
      ("trace", Bool (!trace = 1));
      ("seed", Int !seed);
      ("seconds", Float !seconds);
    ]
  in
  print_endline (to_string (Obj [ ("provenance", Obj provenance) ]));
  let outcome =
    try
      if !trace = 1 then Bench.traced w
      else Bench.end_to_end w ~seconds:!seconds
    with e ->
      Printf.eprintf "perfbench: %s raised %s\n%!" w.name
        (Printexc.to_string e);
      { Bench.attempted = 1; failed = 1; metrics = []; notes = [] }
  in
  print_endline (to_string (Bench.summary_json outcome));
  print_endline (to_string (Bench.result_json outcome));
  exit (if Bench.correct outcome then 0 else 1)
