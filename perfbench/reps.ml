(* The measuring loop shared by the workloads: repeat until [--seconds] have
   passed, and at least [min_reps] times. Every repetition starts from cold
   memo caches and a fully collected heap, both untimed. In a traced run,
   untraced and traced repetitions alternate, so the tracing overhead is
   measured on the same machine state. After every repetition, [setup] is
   timed for a quarter second, outside the repetition: the set-up samples
   spread over the run as the repetitions do, so one slow second of the
   host does not set the run's [setup_s]. Returns the repetitions and every
   set-up duration. *)

open Common

type 'r rep = {
  r : 'r;
  traced : bool;
  layers : (string * Layer.acc) list;  (** traced reps only *)
  self : (string * float) list;  (** self seconds per span name *)
  busy : (string * float) list;  (** seconds inside spans, per track *)
  gc_minor : float;  (** [Gc.quick_stat] deltas: all domains *)
  gc_major : float;  (** promoted plus directly allocated words *)
  gc_collections : int;
}

let gc_totals () =
  let q = Gc.quick_stat () in
  (q.Gc.minor_words, q.Gc.major_words, q.Gc.major_collections)

(* Spans of every traced repetition, for the Chrome trace. *)
let collect_spans = ref []

let loop opts ~min_reps ~setup (f : unit -> 'r) : 'r rep list * float list =
  let t_end = now () +. opts.seconds in
  let setup_durations = ref [] in
  let rec go i acc =
    if i >= min_reps && now () >= t_end then (List.rev acc, !setup_durations)
    else begin
      let traced = opts.trace && i mod 2 = 1 in
      Gc.full_major ();
      Layer.reset ();
      Layer.on := traced;
      let mi0, ma0, c0 = gc_totals () in
      let r = Layer.span "rep" f in
      let mi1, ma1, c1 = gc_totals () in
      Layer.on := false;
      let spans = if traced then Layer.spans () else [] in
      if traced then collect_spans := !collect_spans @ spans;
      let rep =
        {
          r;
          traced;
          layers = (if traced then Layer.all () else []);
          self = Layer.self_times spans;
          busy = Layer.busy_by_track spans;
          gc_minor = mi1 -. mi0;
          gc_major = ma1 -. ma0;
          gc_collections = c1 - c0;
        }
      in
      (* set-up, and the next repetition, from cold memo caches *)
      Pipette.Sim.clear_caches ();
      setup_durations := !setup_durations @ snd (setups ~seconds:0.25 setup);
      go (i + 1) (rep :: acc)
    end
  in
  go 0 []

let untraced reps = List.filter (fun x -> not x.traced) reps
let traced reps = List.filter (fun x -> x.traced) reps

(* Median over traced reps of a per-rep layer quantity. *)
let layer_median reps f = median (List.map f (traced reps))

let acc rep name =
  match List.assoc_opt name rep.layers with
  | Some a -> a
  | None -> Layer.zero ()

let self rep name = Option.value ~default:0. (List.assoc_opt name rep.self)

(* Traced over untraced median, minus one. *)
let overhead reps wall =
  match (traced reps, untraced reps) with
  | [], _ | _, [] -> 0.
  | t, u -> ratio (median (List.map (fun x -> wall x.r) t)) (median (List.map (fun x -> wall x.r) u)) -. 1.

(* The standard per-layer block for the layers a workload times from
   outside: self seconds, calls, work units, words per unit. *)
let layer_metrics reps =
  let words a = a.Layer.minor +. a.Layer.major in
  let per_unit f name =
    layer_median reps (fun r -> let a = acc r name in ratio (f a) a.Layer.units)
  in
  let secs name = layer_median reps (fun r -> self r name) in
  let units name = layer_median reps (fun r -> (acc r name).Layer.units) in
  [
    metric "compile.s" (secs "compile");
    metric "compile.calls" (layer_median reps (fun r -> float (acc r "compile").Layer.calls));
    metric "pgo.s" (secs "pgo");
    metric "pgo.candidates" (units "pgo");
    metric "flat.s" (secs "flat");
    metric "trace.s" (secs "trace");
    metric "trace.uops" (units "trace");
    metric "trace.uops_per_s" (layer_median reps (fun r -> ratio (acc r "trace").Layer.units (self r "trace")));
    metric "trace.words_per_uop" (per_unit words "trace");
    metric "replay.s" (secs "replay");
    metric "replay.uops" (units "replay");
    metric "replay.uops_per_s" (layer_median reps (fun r -> ratio (acc r "replay").Layer.units (self r "replay")));
    metric "replay.words_per_uop" (per_unit words "replay");
    metric "report.s" (secs "report");
    metric "check.s" (secs "check");
    metric "glue.s"
      (layer_median reps (fun r -> self r "rep" +. self r "cell" +. self r "variant"));
    metric "gc.minor_mwords" (layer_median reps (fun r -> r.gc_minor /. 1e6));
    metric "gc.major_mwords" (layer_median reps (fun r -> r.gc_major /. 1e6));
    metric "gc.major_collections" (layer_median reps (fun r -> float r.gc_collections));
  ]

(* Self-time accounting of the traced reps: per span name, and the sum over
   all tracks against wall x domains. *)
let accounting_json reps wall : Json.t =
  let t = traced reps in
  let names = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.self) t) in
  Json.Obj
    [
      ("self_s_median", Json.Obj (List.map (fun n -> (n, Json.Float (median (List.map (fun r -> self r n) t)))) names));
      ("wall_s_median", Json.Float (median (List.map (fun r -> wall r.r) t)));
      ("self_sum_s_median", Json.Float (median (List.map (fun r -> List.fold_left (fun a (_, s) -> a +. s) 0. r.self) t)));
      ( "busy_s_by_track",
        Json.List
          (List.map (fun r -> Json.Obj (List.map (fun (k, b) -> (k, Json.Float b)) r.busy)) t) );
    ]
