(* perfbench: one workload per process.

     bench.exe --workload sweep|autotune|serve --seed N [--holdout-seed M]
               --seconds S --trace 0|1 --out DIR --phloemd PATH
               --spec BENCHMARK.json

   Prints a detail line ({"detail": ...}: machine fingerprint, digest of
   simulated statistics, timings with sample counts) and, last, the result
   line {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
   when an output does not match its reference. *)

open Common

(* The metric names and units of one section ("end_to_end" or "per_layer")
   of the benchmark's spec, in its order. *)
let spec_metrics file section =
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> failwith ("spec: " ^ k) in
  match Json.member section (Json.of_file file) with
  | Some (Json.List ms) -> List.map (fun m -> (str "name" m, str "unit" m)) ms
  | _ -> failwith ("spec: no " ^ section ^ " list in " ^ file)

let workloads = [ ("sweep", Sweep.run); ("autotune", Tune.run); ("serve", Serve.run) ]

let () =
  let workload = ref "" and seed = ref 1 and holdout = ref None and seconds = ref 10.
  and trace = ref 0 and out_dir = ref ".bench_build/perfbench" and phloemd = ref ""
  and spec = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep | autotune | serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--holdout-seed", Arg.Int (fun h -> holdout := Some h), "M held-out input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--out", Arg.Set_string out_dir, "DIR directory for traces and logs");
      ("--phloemd", Arg.Set_string phloemd, "PATH daemon executable (serve)");
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json: metric names and units");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let opts =
    { seed = !seed; holdout = !holdout; seconds = !seconds; trace = !trace = 1;
      out_dir = !out_dir; phloemd = !phloemd }
  in
  let wanted = spec_metrics !spec (if opts.trace then "per_layer" else "end_to_end") in
  (try Unix.mkdir opts.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Phloem_util.Log.set_level Phloem_util.Log.Error;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let steal0, total0 = cpu_ticks () in
  let res = run opts in
  let steal1, total1 = cpu_ticks () in
  let chrome =
    if opts.trace then begin
      let file =
        Filename.concat opts.out_dir
          (Printf.sprintf "trace-%s-%d.json" !workload opts.seed)
      in
      Layer.write_chrome_trace file !Reps.collect_spans;
      [ ("chrome_trace", Json.Str file) ]
    end
    else []
  in
  (* Every metric of the spec, in its order. A workload reports the layers
     on its path; a layer it never calls reads 0. An end-to-end metric must
     be reported, and a reported name must be in the spec. *)
  let reported = if opts.trace then res.per_layer else res.end_to_end in
  List.iter
    (fun m ->
      if not (List.mem_assoc m.m_name wanted) then begin
        prerr_endline ("perfbench: " ^ m.m_name ^ " is not in " ^ !spec);
        exit 2
      end)
    reported;
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun m -> m.m_name = name) reported with
        | Some m -> (name, m.m_value, unit)
        | None when opts.trace -> (name, 0., unit)
        | None ->
          prerr_endline ("perfbench: " ^ !workload ^ " reports no " ^ name);
          exit 2)
      wanted
  in
  (* Values keep every digit: %.17g round-trips a double. *)
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics_text =
    "{"
    ^ String.concat ","
        (List.map
           (fun (name, v, unit) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit)
           metrics)
    ^ "}"
  in
  let detail =
    Json.Obj
      ([
         ("workload", Json.Str !workload);
         ("seed", Json.Int opts.seed);
         ("holdout_seed", match opts.holdout with Some h -> Json.Int h | None -> Json.Null);
         ("traced", Json.Bool opts.trace);
         ("fingerprint", fingerprint ());
         ("digest", Json.Str res.digest);
         ("error_rate", Json.Float (ratio (float res.failed) (float res.attempted)));
         ("host_steal_share", Json.Float (ratio (steal1 -. steal0) (total1 -. total0)));
       ]
      @ res.detail @ chrome)
  in
  print_endline (Json.to_string (Json.Obj [ ("detail", detail) ]));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    (res.failed = 0 && res.mismatches = 0)
    res.attempted res.failed metrics_text;
  if res.mismatches > 0 then exit 1
