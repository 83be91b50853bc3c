(* The repo benchmark.

     ltbench --workload ingest|dashboard|scan --seed N --seconds S --trace 0|1 [--rate R]

   Prints a "meta" line (seed, calibration, sample counts, and in the
   traced run its own end-to-end figures and where the span file went),
   then, as the last line, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the per-layer ones. Exits 1 when a correctness check failed.
   --rate sets the dashboard's request rate; --rate 0 runs it as a
   closed loop to measure the rate the stack saturates at. The
   benchmark command never passes it. *)

let usage = "ltbench --workload ingest|dashboard|scan --seed N --seconds S --trace 0|1 [--rate R]"

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string name) (json_float v)
           (Spans.json_string unit))
       l)

let json_meta l =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Spans.json_string k) (Spans.json_string v)) l)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and rate = ref None in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "ingest | dashboard | scan");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "seconds to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--rate", Arg.Float (fun r -> rate := Some r), "dashboard requests/s (0: closed loop)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match !workload with
    | "ingest" -> Workloads.Ingest.run
    | "dashboard" -> Workloads.Dashboard.run
    | "scan" -> Workloads.Scan.run
    | w ->
        prerr_endline ("ltbench: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.0) then (prerr_endline usage; exit 2);
  let traced = !trace = 1 in
  let calibration_ms = Calib.run () in
  let env = { Workloads.seed = Int64.of_int !seed; seconds = !seconds; traced; rate = !rate } in
  let r = run env in
  let trace_meta =
    match r.Workloads.spans with
    | None -> []
    | Some spans ->
        let dir = Filename.concat "perfbench" "out" in
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed) in
        Spans.write path spans;
        [ ("trace_file", path);
          ("traced_e2e", "{" ^ json_metrics r.Workloads.e2e ^ "}") ]
  in
  let meta =
    [ ("workload", !workload); ("seed", string_of_int !seed);
      ("seconds", Printf.sprintf "%g" !seconds); ("trace", string_of_int !trace);
      ("calibration_ms", Printf.sprintf "%.3f" calibration_ms);
      ("row_bytes", string_of_int Gen.row_bytes);
      ("ops_failed_frac",
        Printf.sprintf "%g" (float_of_int r.Workloads.failed /. float_of_int (max 1 r.Workloads.attempted))) ]
    @ r.Workloads.meta @ trace_meta
  in
  Printf.printf "meta {%s}\n" (json_meta meta);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Workloads.correct r.Workloads.attempted r.Workloads.failed
    (json_metrics (if traced then r.Workloads.layers else r.Workloads.e2e));
  exit (if r.Workloads.correct then 0 else 1)
