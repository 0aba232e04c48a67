(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--work-dir DIR]

   Runs one workload in this process and prints its metrics, one per
   line, then one JSON result object as the last line.  With [--trace 0]
   the metrics are the end-to-end ones, measured with no tracing; with
   [--trace 1] a separate traced run reports per-layer metrics and writes
   its spans to DIR.  Exits 1 when an answer disagrees with the oracle. *)

let workloads = [ "reach_random"; "closure_chain"; "serve_mixed" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and work_dir = ref ".perfbench_work" in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ( "--work-dir",
        Arg.Set_string work_dir,
        "DIR working files (created if missing)" )
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists !work_dir) then Unix.mkdir !work_dir 0o755;
  let spans_path =
    Filename.concat !work_dir
      (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
  in
  let seconds = !seconds and seed = !seed and traced = !trace = 1 in
  Printf.printf "workload %s, seed %d, %g s, %s\n%!" !workload seed seconds
    (if traced then "traced" else "timed");
  let attempted, failed, metrics =
    match !workload with
    | "serve_mixed" ->
      if traced then Serve.traced ~seed ~seconds ~work_dir:!work_dir ~spans_path
      else Serve.timed ~seed ~seconds ~work_dir:!work_dir
    | name ->
      let spec =
        if name = "reach_random" then Batch.reach_random ~seed
        else Batch.closure_chain ~seed
      in
      if traced then Batch.traced ~spec ~seconds ~spans_path
      else Batch.timed ~spec ~seconds
  in
  if traced then Printf.printf "spans written to %s\n" spans_path;
  Measure.print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
