(* The [sweep] workload: the Fig. 9-11 evaluation on seeded inputs. Every
   cell (benchmark x input) runs serial, data-parallel, phloem-static,
   phloem-pgo and manual; PGO cut recipes come from seeded training
   inputs. Each repetition starts from cleared memo caches, so every
   pipeline is compiled, traced and replayed once per repetition. *)

open Common
open Phloem_workloads
module Sim = Pipette.Sim
module G = Phloem_graph.Gen
module S = Phloem_sparse.Gen

(* Input sizes, fixed; only the random structure varies with the seed. *)
let road = (24, 20)
let mesh = (22, 18)
let rmat = (8, 4)
let train_road = (12, 10)
let train_rmat = (7, 2)
let spmm_rows = 32
let spmm_train_rows = 12

type cell = { bench : string; input : string; bound : Workload.bound }

type setup = {
  cells : cell list list;  (** per benchmark, in [benches] order *)
  training : Workload.bound list list;  (** per benchmark *)
}

let benches = [ "BFS"; "CC"; "PRD"; "Radii"; "SpMM" ]

let graph_bound bench g =
  match bench with
  | "BFS" -> Bfs.bind g
  | "CC" -> Cc.bind g
  | "PRD" -> Prd.bind g
  | _ -> Radii.bind g

let spmm_bound a = Spmm.bind a (Phloem_sparse.Csr_matrix.transpose a)

(* Seeded input generation plus every [*.bind] (minic lowering and the
   pure-OCaml reference results). *)
let setup opts : setup =
  let s = input_seed opts in
  let graphs =
    [
      ("road", G.grid ~width:(fst road) ~height:(snd road) ~seed:(s 1));
      ("mesh", G.mesh ~width:(fst mesh) ~height:(snd mesh) ~seed:(s 2));
      ("rmat", G.rmat ~scale:(fst rmat) ~edge_factor:(snd rmat) ~seed:(s 3));
    ]
  in
  let train_graphs =
    [
      G.grid ~width:(fst train_road) ~height:(snd train_road) ~seed:(s 4);
      G.rmat ~scale:(fst train_rmat) ~edge_factor:(snd train_rmat) ~seed:(s 5);
    ]
  in
  let power_law rows seed = S.power_law ~rows ~cols:rows ~nnz_per_row:8 ~seed in
  let cells, training =
    List.split
      (List.map
         (fun bench ->
           if bench = "SpMM" then
             ( [ { bench; input = "power-law"; bound = spmm_bound (power_law spmm_rows (s 6)) } ],
               [ spmm_bound (power_law spmm_train_rows (s 7)) ] )
           else
             ( List.map (fun (input, g) -> { bench; input; bound = graph_bound bench g }) graphs,
               List.map (graph_bound bench) train_graphs ))
         benches)
  in
  { cells; training }

type variant_run = {
  v_name : string;
  v_wall : float;
  v_cycles : int;
  v_uops : int;
  v_ok : bool;
}

(* One variant through every layer: compile, Flat lowering, functional
   trace, timing replay, reference check, analysis and JSON report. *)
let run_variant ~id (b : Workload.bound) ~name (pipeline : unit -> _ * _) =
  let t0 = now () in
  Layer.span ~id "variant" (fun () ->
      let p, inputs = pipeline () in
      ignore (Layer.span ~id "flat" (fun () -> Sim.prepare p));
      let fr = Layer.span ~id "trace" (fun () -> Sim.functional ~inputs p) in
      Layer.count "trace" fr.Phloem_ir.Interp.r_instrs;
      let r = Layer.span ~id "replay" (fun () -> Sim.simulate p fr) in
      Layer.count "replay" (Sim.instrs r);
      let ok = Layer.span ~id "check" (fun () -> Workload.check b r.Sim.sr_functional) in
      Layer.span ~id "report" (fun () ->
          ignore (Sim.analyze ~stage_names:(Sim.stage_names p) r);
          ignore (Pipette.Telemetry.Json.to_string (Sim.json_of_run r)));
      { v_name = name; v_wall = now () -. t0; v_cycles = Sim.cycles r; v_uops = Sim.instrs r; v_ok = ok })

let compile ~id f =
  Layer.span ~id "compile" (fun () -> Layer.count "compile" 1; f ())

(* All five variants of one cell; a raising variant is a failure record. *)
let run_cell ~id ~pgo_cuts (c : cell) =
  Layer.span ~id "cell" (fun () ->
      let b = c.bound in
      let serial_p, serial_in = b.Workload.b_serial in
      let variants =
        [
          ("serial", Some (fun () -> (serial_p, serial_in)));
          ("data-parallel", Some (fun () -> b.Workload.b_data_parallel ~threads:4));
          ( "phloem-static",
            Some (fun () ->
                (compile ~id (fun () -> Phloem.Compile.static_flow ~stages:4 serial_p), serial_in)) );
          ( "phloem-pgo",
            Option.map
              (fun cuts () ->
                ( (match cuts with
                  | [] -> serial_p
                  | cuts -> compile ~id (fun () -> Phloem.Compile.with_cuts serial_p cuts)),
                  serial_in ))
              pgo_cuts );
          ("manual", Option.map (fun mp () -> mp) b.Workload.b_manual);
        ]
      in
      List.filter_map
        (fun (name, thunk) ->
          Option.map
            (fun th ->
              match run_variant ~id b ~name th with
              | v -> Ok v
              | exception e -> Error (name, Printexc.to_string e))
            thunk)
        variants)

type rep = {
  wall : float;
  stages : (string * float) list;
      (** the sweep's steps, one after the other: each PGO search
          ("pgo/BFS"), then the pooled batch of all cells ("cells") *)
  variant_walls : (string * float) list;  (** per variant run ("BFS/road/serial") *)
  uops : int;
  sim_cycles : int;
  attempted : int;
  failed : int;
  mismatches : int;
  speedups : float list;  (** phloem-pgo over serial, per cell *)
  digest : string;
  cpu : float;
  cache : Sim.cache_counters;
  pgo_candidates : int;
}

(* PGO for every benchmark (each search fans out over the pool), then all
   cells in one pool batch. *)
let rep ~pool (st : setup) : rep =
  Sim.clear_caches ();
  let cpu0 = cpu () in
  let t0 = now () in
  let d = digest () in
  let attempted = ref 0 and failed = ref 0 and mismatches = ref 0 in
  let uops = ref 0 and sim_cycles = ref 0 and speedups = ref [] in
  let stages = ref [] and variant_walls = ref [] in
  let candidates = ref 0 in
  let recipes =
    List.mapi
      (fun bi (bench, training) ->
        incr attempted;
        match
          timed (fun () ->
              Layer.span ~id:bi "pgo" (fun () -> Phloem_harness.Runner.pgo_cuts ~pool training))
        with
        | o, t ->
          stages := ("pgo/" ^ bench, t) :: !stages;
          let n = List.length o.Phloem.Search.all in
          candidates := !candidates + n;
          Layer.count "pgo" n;
          add_int d (bench ^ "/pgo-candidates") n;
          Some o.Phloem.Search.best
        | exception e ->
          incr failed;
          prerr_endline ("perfbench: pgo " ^ bench ^ ": " ^ Printexc.to_string e);
          None)
      (List.combine benches st.training)
  in
  let cells =
    List.concat
      (List.mapi (fun bi cells -> List.map (fun c -> (bi, c)) cells) st.cells)
  in
  let results, t_cells =
    timed (fun () ->
        Phloem_util.Pool.map_list pool
          (fun (i, (bi, c)) -> run_cell ~id:i ~pgo_cuts:(List.nth recipes bi) c)
          (List.mapi (fun i c -> (i, c)) cells))
  in
  stages := ("cells", t_cells) :: !stages;
  List.iter2
    (fun (_, c) vs ->
      let serial = ref 0 in
      List.iter
        (function
          | Ok v ->
            incr attempted;
            let tag = String.concat "/" [ c.bench; c.input; v.v_name ] in
            variant_walls := (tag, v.v_wall) :: !variant_walls;
            uops := !uops + v.v_uops;
            sim_cycles := !sim_cycles + v.v_cycles;
            if v.v_name = "serial" then serial := v.v_cycles;
            if not v.v_ok then begin
              incr failed;
              incr mismatches;
              Printf.eprintf "perfbench: %s/%s/%s does not match the reference\n%!" c.bench
                c.input v.v_name
            end;
            add_int d (tag ^ "/cycles") v.v_cycles;
            add_int d (tag ^ "/uops") v.v_uops;
            add_float d (tag ^ "/speedup") (ratio (float !serial) (float v.v_cycles));
            if v.v_name = "phloem-pgo" then
              speedups := ratio (float !serial) (float v.v_cycles) :: !speedups
          | Error (name, msg) ->
            incr attempted;
            incr failed;
            Printf.eprintf "perfbench: %s/%s/%s raised %s\n%!" c.bench c.input name msg)
        vs)
    cells results;
  let wall = now () -. t0 in
  {
    wall;
    stages = List.rev !stages;
    variant_walls = !variant_walls;
    uops = !uops;
    sim_cycles = !sim_cycles;
    attempted = !attempted;
    failed = !failed;
    mismatches = !mismatches;
    speedups = !speedups;
    digest = digest_hex d;
    cpu = cpu () -. cpu0;
    cache = Sim.cache_counters ();
    pgo_candidates = !candidates;
  }

let run opts : result =
  let st = setup opts in
  Phloem_util.Pool.with_pool (fun pool ->
      let jobs = Phloem_util.Pool.jobs pool in
      let reps, setups =
        Reps.loop opts ~min_reps:(if opts.trace then 2 else 3)
          ~setup:(fun () -> ignore (setup opts))
          (fun () -> rep ~pool st)
      in
      let all = List.map (fun x -> x.Reps.r) reps in
      let u = List.map (fun x -> x.Reps.r) (Reps.untraced reps) in
      let stages = component_medians (List.map (fun r -> r.stages) u) in
      let variant_walls = component_medians (List.map (fun r -> r.variant_walls) u) in
      let digests = List.sort_uniq compare (List.map (fun r -> r.digest) all) in
      let nondeterministic = List.length digests <> 1 in
      if nondeterministic then prerr_endline "perfbench: sweep digest differs between repetitions";
      let sum f = List.fold_left (fun a r -> a + f r) 0 all in
      let lm = Reps.layer_median reps in
      let cache f = lm (fun x -> f x.Reps.r.cache) in
      let cc = (fun f -> cache (fun c -> float (f c))) in
      {
        attempted = sum (fun r -> r.attempted) + 1 (* the cross-repetition digest check *);
        failed = sum (fun r -> r.failed) + (if nondeterministic then 1 else 0);
        mismatches = sum (fun r -> r.mismatches) + (if nondeterministic then 1 else 0);
        digest = List.hd digests;
        end_to_end =
          [
            metric "setup_s" (median setups);
            metric "wall_s" (sum_values stages);
            metric "latency_ms" (1000. *. gmean (List.map snd variant_walls));
            metric "speedup_gmean" (gmean (List.hd all).speedups);
            metric "peak_rss_mb" (peak_rss_mb ());
          ];
        per_layer =
          (if not opts.trace then []
           else
             Reps.layer_metrics reps
             @ [
                 metric "flat.hit_ratio"
                   (cache (fun c ->
                        ratio (float c.Sim.cc_program_hits)
                          (float (c.Sim.cc_program_hits + c.Sim.cc_program_misses))));
                 metric "trace.hit_ratio"
                   (cache (fun c ->
                        ratio (float c.Sim.cc_trace_hits)
                          (float (c.Sim.cc_trace_hits + c.Sim.cc_trace_misses))));
                 metric "trace.evictions" (cc (fun c -> c.Sim.cc_trace_evictions));
                 metric "replay.sim_cycles" (float (List.hd all).sim_cycles);
                 metric "check.failed" (lm (fun x -> float x.Reps.r.mismatches));
                 metric "pool.utilization"
                   (lm (fun x -> ratio x.Reps.r.cpu (x.Reps.r.wall *. float jobs)));
                 metric "gc.top_heap_mb" (gc_top_heap_mb ());
                 metric "tracing.overhead" (Reps.overhead reps (fun r -> r.wall));
               ]);
        detail =
          [
            ("reps", Json.Int (List.length reps));
            ("pool_jobs", Json.Int jobs);
            ("setup_s", timing_json setups);
            ("sweep_s", timing_json (List.map (fun r -> r.wall) u));
            ("stage_s_median", Json.Obj (List.map (fun (k, t) -> (k, Json.Float t)) stages));
            ("variant_ms", timing_json ~scale:1000. (List.concat_map (fun r -> List.map snd r.variant_walls) u));
            ("sim_uops_per_rep", Json.Int (List.hd all).uops);
            ("sim_uops_per_s", timing_json (List.map (fun r -> ratio (float r.uops) r.wall) u));
            ("cells", Json.Int (List.length (List.concat st.cells)));
            ("pgo_candidates_per_rep", Json.Int (List.hd all).pgo_candidates);
            ("accounting", Reps.accounting_json reps (fun r -> r.wall));
          ];
      })
