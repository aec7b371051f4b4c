(* Options, seeded input streams, summaries and the machine fingerprint
   shared by the three workloads. *)

module Json = Pipette.Telemetry.Json

type opts = {
  seed : int;
  holdout : int option;
      (** held-out seed: inputs come from a namespace no [--seed] reaches *)
  seconds : float;
  trace : bool;
  out_dir : string;  (** traces and logs of this run, inside the checkout *)
  phloemd : string;  (** path of the daemon executable (serve only) *)
}

(* Every generated input draws its generator seed from a keyed stream:
   [rng opts k] is a pure function of the workload seed and the input's key,
   so the same seed gives the same inputs in any order of generation. *)
let rng opts key =
  match opts.holdout with
  | None -> Phloem_util.Prng.of_key ~seed:opts.seed ~key
  | Some h -> Phloem_util.Prng.of_key ~seed:h ~key:(key + (1 lsl 40))

let input_seed opts key = Phloem_util.Prng.next (rng opts key) land 0x3fff_ffff

(* What a workload hands back to the main program in [bench.ml], which
   takes each metric's unit from BENCHMARK.json. *)
type metric = { m_name : string; m_value : float }

type result = {
  attempted : int;
  failed : int;
  mismatches : int;  (** wrong outputs: the run exits nonzero *)
  digest : string;  (** MD5 over every simulated statistic *)
  end_to_end : metric list;
  per_layer : metric list;
  detail : (string * Json.t) list;
}

let metric m_name m_value = { m_name; m_value }

(* --- summaries --- *)

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
   samples beyond it (nearest rank), or [None] below twenty samples. *)
let tail xs =
  let n = List.length xs in
  let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ] in
  match List.find_opt (fun p -> float_of_int n *. (1. -. p) >= 10.) ladder with
  | None -> None
  | Some p -> Some (p, Phloem_util.Stats.percentile p xs)

(* A timing as the guide asks for it: median, tail percentile, sample count. *)
let timing_json ?(scale = 1.) xs : Json.t =
  let xs = List.map (fun x -> x *. scale) xs in
  let tail =
    match tail xs with
    | Some (p, v) -> [ ("tail_pct", Json.Float (100. *. p)); ("tail", Json.Float v) ]
    | None -> []
  in
  let samples =
    if List.length xs <= 20 then [ ("samples", Json.List (List.map (fun x -> Json.Float x) xs)) ]
    else []
  in
  Json.Obj
    (([ ("median", Json.Float (median xs)); ("n", Json.Int (List.length xs)) ] @ tail) @ samples)

(* Medians per component over repetitions. Each repetition gives the wall
   of each of its components (a PGO search, a variant run, a tune, a
   request), by name. A slow spell of the host that lasts less than a
   repetition then moves no component's median, where it moves the median
   of whole repetitions as soon as it touches most of them. *)
let component_medians (reps : (string * float) list list) : (string * float) list =
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) reps) in
  List.map (fun k -> (k, median (List.filter_map (List.assoc_opt k) reps))) keys

let sum_values l = List.fold_left (fun a (_, v) -> a +. v) 0. l

let mean = function [] -> 0. | xs -> Phloem_util.Stats.mean xs
let gmean = function [] -> 0. | xs -> Phloem_util.Stats.gmean xs
let ratio a b = if b <= 0. then 0. else a /. b

(* --- time and memory --- *)

let now = Clock.now
let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Set-up is short and noisy: repeat it at least seven times and for at
   least [seconds] (at most 200 times), keep the last result, and return
   every duration so the caller reports their median. Each repetition
   starts from a fully collected heap, after [between], both untimed. *)
let setups ?(between = ignore) ?(seconds = 1.) f =
  let t_end = now () +. seconds in
  let rec go i durations =
    between ();
    Gc.full_major ();
    let x, d = timed f in
    let durations = d :: durations in
    if (i >= 6 && now () >= t_end) || i >= 199 then (x, List.rev durations)
    else go (i + 1) durations
  in
  go 0 []

let gc_top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- fingerprint --- *)

(* The rest of the first line of [file] that starts with [key], without a
   leading colon: "MemTotal" gives "8222320 kB". *)
let first_line_with file key =
  try
    In_channel.with_open_text file (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> ""
          | Some l when String.starts_with ~prefix:key l ->
            let rest = String.trim (String.sub l (String.length key) (String.length l - String.length key)) in
            if String.starts_with ~prefix:":" rest then String.trim (String.sub rest 1 (String.length rest - 1))
            else rest
          | Some _ -> go ()
        in
        go ())
  with _ -> ""

(* Peak resident set of a process, from the VmHWM line of its status. *)
let peak_rss_mb ?(pid = "self") () =
  match String.split_on_char ' ' (first_line_with (Printf.sprintf "/proc/%s/status" pid) "VmHWM") with
  | kb :: _ -> Option.value ~default:0. (float_of_string_opt kb) /. 1024.
  | [] -> 0.

(* Aggregate CPU ticks as (steal, total) from /proc/stat: stolen time is
   the host running other guests, the usual cause of a slow run here. *)
let cpu_ticks () =
  match
    List.filter_map float_of_string_opt
      (String.split_on_char ' ' (first_line_with "/proc/stat" "cpu "))
  with
  | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
    (steal, user +. nice +. system +. idle +. iowait +. irq +. softirq +. steal)
  | _ -> (0., 0.)

let nproc () =
  try
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let n = ref 0 in
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some l ->
            if String.starts_with ~prefix:"processor" l then incr n;
            go ()
        in
        go ();
        max 1 !n)
  with _ -> 1

let fingerprint () : Json.t =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("pool_default_jobs", Json.Int (Phloem_util.Pool.default_jobs ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("cpu_model", Json.Str (first_line_with "/proc/cpuinfo" "model name"));
      ("mem_total", Json.Str (first_line_with "/proc/meminfo" "MemTotal"));
    ]

(* --- digest of simulated statistics --- *)

type digest = Buffer.t

let digest () : digest = Buffer.create 4096
let add_int d tag v = Printf.bprintf d "%s=%d;" tag v
let add_float d tag v = Printf.bprintf d "%s=%.17g;" tag v
let digest_hex d = Digest.to_hex (Digest.string (Buffer.contents d))
