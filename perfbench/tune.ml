(* The [autotune] workload: [Autotune.tune] (beam 4, budget 64) on seeded
   (benchmark, graph) pairs, pooled. Each tune trains on one input, as its
   only caller [simulate --autotune] does. *)

open Common
open Phloem_workloads
module Sim = Pipette.Sim
module A = Phloem.Autotune
module G = Phloem_graph.Gen
module M = Phloem_util.Metrics

type pair = { name : string; bound : Workload.bound }

(* Two seeded inputs per pair, so a repetition averages over inputs; CC on
   the 16x12 grid is the pair whose memo retention sets peak memory. *)
let setup opts : pair list =
  let s = input_seed opts in
  List.concat_map
    (fun k ->
      let key i = s ((10 * k) + i) in
      [
        { name = Printf.sprintf "BFS/road-20x16/%d" k; bound = Bfs.bind (G.grid ~width:20 ~height:16 ~seed:(key 11)) };
        { name = Printf.sprintf "CC/road-16x12/%d" k; bound = Cc.bind (G.grid ~width:16 ~height:12 ~seed:(key 12)) };
        { name = Printf.sprintf "PRD/rmat-7/%d" k; bound = Prd.bind (G.rmat ~scale:7 ~edge_factor:4 ~seed:(key 13)) };
      ])
    [ 0; 1 ]

type tune_run = {
  t_wall : float;
  t_cpu : float;  (** process CPU seconds, all domains *)
  t_outcome : A.outcome option;
  t_metrics : M.snapshot;
  t_cache : Sim.cache_counters;  (** memo counters of this tune alone *)
}

(* The winning configuration, rebuilt without the search as
   [Autotune.pipeline_of] builds it (cuts, chaining, replication; queue
   capacities and cores leave the functional result alone) and run
   functionally, must reproduce the pure-OCaml reference. *)
let check ~id (pr : pair) (o : A.outcome) =
  let b = pr.bound and c = o.A.o_best in
  let ok =
    try
      Layer.span ~id "check" (fun () ->
          let serial, inputs = b.Workload.b_serial in
          let p =
            if c.A.at_cuts = [] then serial
            else
              Phloem.Compile.with_cuts
                ~flags:{ Phloem.Decouple.all_passes with Phloem.Decouple.f_chain = c.A.at_chain }
                serial c.A.at_cuts
          in
          let p =
            if c.A.at_replicas > 1 then
              Phloem.Replicate.apply p
                { Phloem.Replicate.r_replicas = c.A.at_replicas; r_private_arrays = [];
                  r_private_params = []; r_distribute = None }
            else p
          in
          Workload.check b (Sim.functional ~inputs p))
    with e ->
      prerr_endline ("perfbench: check " ^ pr.name ^ ": " ^ Printexc.to_string e);
      false
  in
  if not ok then
    prerr_endline ("perfbench: " ^ pr.name ^ ": winner " ^ A.config_digest c ^ " does not match the reference");
  ok

(* Each tune starts from empty memo caches and a collected heap, as a
   [simulate --autotune] process does. *)
let tune_one ~pool ~id (pr : pair) =
  Sim.clear_caches ();
  Gc.full_major ();
  let metrics = M.create () in
  let b = pr.bound in
  let cpu0 = cpu () in
  let outcome, wall =
    timed (fun () ->
        match
          Layer.span ~id "autotune" (fun () ->
              A.tune ~beam:4 ~budget:64 ~pool ~metrics
                ~check_arrays:b.Workload.b_check_arrays ~training:[ b.Workload.b_serial ] ())
        with
        | o -> Some o
        | exception e ->
          prerr_endline ("perfbench: tune " ^ pr.name ^ ": " ^ Printexc.to_string e);
          None)
  in
  { t_wall = wall; t_cpu = cpu () -. cpu0; t_outcome = outcome; t_metrics = M.snapshot metrics;
    t_cache = Sim.cache_counters () }

type rep = {
  wall : float;
  tunes : tune_run list;
  mismatches : int;  (** winners that do not match the reference *)
  cpu : float;
  digest : string;
}

(* [wall] and [cpu] cover the tunes only, not the collection before each
   tune nor the winner checks after them. *)
let rep ~pool pairs =
  let tunes = List.mapi (fun i pr -> tune_one ~pool ~id:i pr) pairs in
  let wall = List.fold_left (fun a t -> a +. t.t_wall) 0. tunes in
  let cpu = List.fold_left (fun a t -> a +. t.t_cpu) 0. tunes in
  let mismatches =
    List.length
      (List.filteri
         (fun i (pr, t) -> match t.t_outcome with Some o -> not (check ~id:i pr o) | None -> false)
         (List.combine pairs tunes))
  in
  let d = digest () in
  List.iter2
    (fun pr t ->
      match t.t_outcome with
      | None -> add_int d (pr.name ^ "/failed") 1
      | Some o ->
        List.iteri (fun i c -> add_int d (Printf.sprintf "%s/best-cycles-%d" pr.name i) c) o.A.o_best_cycles;
        List.iteri (fun i c -> add_int d (Printf.sprintf "%s/serial-cycles-%d" pr.name i) c) o.A.o_serial_cycles;
        add_float d (pr.name ^ "/best-gmean") o.A.o_best_gmean;
        add_int d (pr.name ^ "/simulated") o.A.o_simulated;
        add_int d (pr.name ^ "/rejected") o.A.o_rejected;
        add_int d (pr.name ^ "/deduped") o.A.o_deduped;
        add_int d (pr.name ^ "/waves") o.A.o_waves;
        Buffer.add_string d (A.config_digest o.A.o_best))
    pairs tunes;
  { wall; tunes; mismatches; cpu; digest = digest_hex d }

let counter (s : M.snapshot) name = Option.value ~default:0 (List.assoc_opt name s.M.sn_counters)

let cache_sum (r : rep) f = float (List.fold_left (fun a t -> a + f t.t_cache) 0 r.tunes)

let eval_hist (r : rep) =
  List.fold_left
    (fun acc t ->
      match List.assoc_opt "autotune_eval_s" t.t_metrics.M.sn_hists with
      | None -> acc
      | Some h -> (match acc with None -> Some h | Some a -> Some (Phloem_util.Stats.hist_merge a h)))
    None r.tunes

let run opts : result =
  let pairs = setup opts in
  Phloem_util.Pool.with_pool (fun pool ->
      let jobs = Phloem_util.Pool.jobs pool in
      let reps, setups =
        Reps.loop opts ~min_reps:(if opts.trace then 2 else 3)
          ~setup:(fun () -> ignore (setup opts))
          (fun () -> rep ~pool pairs)
      in
      let all = List.map (fun x -> x.Reps.r) reps in
      let u = List.map (fun x -> x.Reps.r) (Reps.untraced reps) in
      let tune_medians =
        component_medians
          (List.map (fun r -> List.map2 (fun p t -> (p.name, t.t_wall)) pairs r.tunes) u)
      in
      let digests = List.sort_uniq compare (List.map (fun r -> r.digest) all) in
      let nondeterministic = List.length digests <> 1 in
      if nondeterministic then prerr_endline "perfbench: autotune digest differs between repetitions";
      let tunes = List.concat_map (fun r -> r.tunes) all in
      let failed_tunes = List.length (List.filter (fun t -> t.t_outcome = None) tunes) in
      let mismatches = List.fold_left (fun a r -> a + r.mismatches) 0 all in
      let evals r = float (List.fold_left (fun a t -> a + counter t.t_metrics "autotune_evals") 0 r.tunes) in
      let sum_counter name r = float (List.fold_left (fun a t -> a + counter t.t_metrics name) 0 r.tunes) in
      let lm = Reps.layer_median reps in
      let hist_pct r p =
        match eval_hist r with
        | Some h when Phloem_util.Stats.hist_count h > 0 -> 1000. *. Phloem_util.Stats.percentile_hist p h
        | _ -> 0.
      in
      let tail_p r =
        match eval_hist r with
        | Some h -> (
          match tail (List.init (Phloem_util.Stats.hist_count h) float) with
          | Some (p, _) -> p
          | None -> 1.)
        | None -> 1.
      in
      let best r =
        gmean (List.filter_map (fun t -> Option.map (fun o -> o.A.o_best_gmean) t.t_outcome) r.tunes)
      in
      {
        attempted = (2 * List.length tunes) + 1 (* the cross-repetition digest check *);
        failed = failed_tunes + mismatches + (if nondeterministic then 1 else 0);
        mismatches = mismatches + (if nondeterministic then 1 else 0);
        digest = List.hd digests;
        end_to_end =
          [
            metric "setup_s" (median setups);
            metric "wall_s" (sum_values tune_medians);
            metric "latency_ms" (1000. *. gmean (List.map snd tune_medians));
            metric "speedup_gmean" (best (List.hd all));
            metric "peak_rss_mb" (peak_rss_mb ());
          ];
        per_layer =
          (if not opts.trace then []
           else
             Reps.layer_metrics reps
             @ [
                 metric "check.failed" (float mismatches);
                 metric "pool.utilization" (lm (fun x -> ratio x.Reps.r.cpu (x.Reps.r.wall *. float jobs)));
                 metric "trace.evictions" (lm (fun x -> cache_sum x.Reps.r (fun c -> c.Sim.cc_trace_evictions)));
                 metric "autotune.s" (lm (fun x -> Reps.self x "autotune"));
                 metric "autotune.evals" (lm (fun x -> evals x.Reps.r));
                 metric "autotune.evals_per_s" (lm (fun x -> ratio (evals x.Reps.r) (Reps.self x "autotune")));
                 metric "autotune.eval_p50_ms" (lm (fun x -> hist_pct x.Reps.r 0.5));
                 metric "autotune.eval_tail_ms" (lm (fun x -> hist_pct x.Reps.r (tail_p x.Reps.r)));
                 metric "autotune.rejected" (lm (fun x -> sum_counter "autotune_rejected" x.Reps.r));
                 metric "autotune.deduped" (lm (fun x -> sum_counter "autotune_deduped" x.Reps.r));
                 metric "autotune.waves" (lm (fun x -> sum_counter "autotune_waves" x.Reps.r));
                 metric "autotune.trace_hit_ratio"
                   (lm (fun x ->
                        let hits = cache_sum x.Reps.r (fun c -> c.Sim.cc_trace_hits) in
                        ratio hits (hits +. cache_sum x.Reps.r (fun c -> c.Sim.cc_trace_misses))));
                 metric "gc.top_heap_mb" (gc_top_heap_mb ());
                 metric "tracing.overhead" (Reps.overhead reps (fun r -> r.wall));
               ]);
        detail =
          [
            ("reps", Json.Int (List.length reps));
            ("pool_jobs", Json.Int jobs);
            ("pairs", Json.List (List.map (fun p -> Json.Str p.name) pairs));
            ("setup_s", timing_json setups);
            ("autotune_s", timing_json (List.map (fun r -> r.wall) u));
            ("tune_ms", timing_json ~scale:1000. (List.concat_map (fun r -> List.map (fun t -> t.t_wall) r.tunes) u));
            ( "tune_ms_by_pair",
                Json.Obj
                  (List.mapi
                     (fun i p ->
                       (p.name, timing_json ~scale:1000. (List.map (fun r -> (List.nth r.tunes i).t_wall) u)))
                     pairs) );
            ( "evals_by_pair",
              Json.Obj
                (List.map2
                   (fun p t -> (p.name, Json.Int (counter t.t_metrics "autotune_evals")))
                   pairs (List.hd all).tunes) );
            ( "best_gmean",
              Json.Obj
                (List.map2
                   (fun p t ->
                     (p.name, match t.t_outcome with Some o -> Json.Float o.A.o_best_gmean | None -> Json.Null))
                   pairs (List.hd all).tunes) );
            ("accounting", Reps.accounting_json reps (fun r -> r.wall));
          ];
      })
