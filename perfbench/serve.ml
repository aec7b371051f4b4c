(* The [serve] workload: a fresh phloemd child with one domain, driven
   in a closed loop by client threads, each on its own Unix-socket
   connection, as callers like [simulate --remote] wait for every reply.
   The pool of small jobs (bench x variant x input x scale) holds fewer
   keys than the daemon's 256-entry result cache, so misses are first
   touches only. One client first requests every key once (the misses),
   then one client thread per CPU sends a Zipf-skewed stream drawn by the
   seed (the hits). *)

open Common
module P = Phloem_serve.Protocol
module C = Phloem_serve.Client

let zipf_s = 1.1

let benches = [ "bfs"; "cc"; "prd"; "radii"; "spmm" ]
let variants = [| "serial"; "phloem"; "data-parallel"; "manual" |]
let graphs = [| "internet"; "USA-road-d-NY"; "hugetrace-00000"; "USA-road-d-USA" |]
let matrices = [| "email-Enron"; "wiki-Vote"; "p2p-Gnutella31"; "cage12" |]

(* A narrow band: the seed changes input sizes a little, not the amount of
   work (below 0.1 every named graph and matrix is clamped to its minimum
   size, so the scale would change nothing). *)
let scales = [| 0.12; 0.13; 0.14; 0.15 |]

(* One job per (bench, input, variant): 80 keys. Per bench, the scales form
   a Latin square over inputs x variants, its rows and columns permuted by
   the seed: every input and every variant meets every scale once, so each
   seed serves nearly the same amount of work. The seed also sets the Zipf
   rank order of the jobs and the request stream. *)
let job_pool opts : P.job array =
  let r = rng opts 21 in
  let perm () =
    let a = Array.init (Array.length scales) Fun.id in
    Phloem_util.Prng.shuffle r a;
    a
  in
  let jobs =
    List.concat_map
      (fun bench ->
        let inputs = if bench = "spmm" then matrices else graphs in
        let row = perm () and col = perm () in
        List.concat
          (List.init (Array.length inputs) (fun i ->
               List.init (Array.length variants) (fun v ->
                   { P.default_job with
                     P.j_bench = bench;
                     j_variant = variants.(v);
                     j_input = inputs.(i);
                     j_scale = scales.((row.(i) + col.(v)) mod Array.length scales) }))))
      benches
    |> Array.of_list
  in
  Phloem_util.Prng.shuffle r jobs;
  jobs

(* Cumulative Zipf weights over ranks 1..n. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1. /. (float (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw cdf rng =
  let u = Phloem_util.Prng.float rng 1.0 in
  let rec go i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else go (i + 1) in
  go 0

(* --- the daemon --- *)

type daemon = { pid : int; socket : string }

(* Default flags but one executing domain. Misses come from one client, so
   at most one job is in flight and a second domain could only idle; idle,
   it still takes part in every stop-the-world minor collection. With a CPU
   hog on one of two vCPUs, cold rounds took 4.2-4.6 s at the default
   against 3.6-3.7 s with one domain (3.9-4.1 s for both without the hog). *)
let daemon_flags = [ "--jobs"; "1" ]

let spawn opts ~tag ~extra =
  let socket = Filename.concat opts.out_dir (Printf.sprintf "d%d-%s.sock" (Unix.getpid ()) tag) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat opts.out_dir ("phloemd-" ^ tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args = Array.of_list ([ opts.phloemd; "--socket"; socket ] @ daemon_flags @ extra) in
  let pid = Unix.create_process opts.phloemd args Unix.stdin log log in
  Unix.close log;
  let d = { pid; socket } in
  (* ready when the first ping is answered *)
  let deadline = now () +. 60. in
  let rec wait () =
    match C.with_unix socket (fun fd -> C.request fd (P.plain_request "ping")) with
    | _ -> d
    | exception (Unix.Unix_error _ | End_of_file) ->
      if now () > deadline then failwith "phloemd did not answer ping within 60 s";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "phloemd exited before answering ping");
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ()

let stop d =
  (try ignore (C.with_unix d.socket (fun fd -> C.request fd (P.plain_request "shutdown")))
   with _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; reap ()
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  try Unix.unlink d.socket with Unix.Unix_error _ -> ()

let stats d =
  let resp = Json.of_string (C.with_unix d.socket (fun fd -> C.request fd (P.plain_request "stats"))) in
  Option.value ~default:Json.Null (Json.member "result" resp)

(* --- the closed loop --- *)

type sample = { key : int; lat : float; hit : bool; ok : bool }

(* What the daemons of one run answered: every response, untraced or
   traced, is checked against the first payload seen for its key. *)
type state = {
  jobs : P.job array;
  lock : Mutex.t;
  first : (int, string) Hashtbl.t;  (** key -> first payload *)
  payloads : (int, float * float * float * float) Hashtbl.t;
      (** key -> serial cycles, cycles, µops, speedup *)
  mutable failed : int;
  mutable mismatches : int;
}

(* Check one response; returns (cache hit, good). Parses only the envelope:
   the payload is compared byte for byte with the key's first payload and
   parsed once per key, so the generator stays cheap. *)
let verify st ~id k resp =
  let payload = P.response_payload_raw resp in
  let envelope =
    match payload with
    | Some p -> String.sub resp 0 (String.length resp - String.length p - 1) ^ "null}"
    | None -> resp
  in
  let ok, hit =
    match Json.of_string envelope with
    | exception _ -> (false, false)
    | j -> (P.response_status j = "ok", P.response_cached j)
  in
  Mutex.protect st.lock (fun () ->
      let good =
        ok
        &&
        match payload with
        | None -> false
        | Some payload -> (
          match Hashtbl.find_opt st.first k with
          | Some first -> String.equal first payload
          | None ->
            let pj = Json.of_string payload in
            let num f = Option.value ~default:0. (Option.bind (Json.member f pj) Json.to_float_opt) in
            Hashtbl.replace st.first k payload;
            Hashtbl.replace st.payloads k (num "serial_cycles", num "cycles", num "instrs", num "speedup");
            Json.member "valid" pj = Some (Json.Bool true))
      in
      if not good then begin
        st.failed <- st.failed + 1;
        if ok then st.mismatches <- st.mismatches + 1;
        Printf.eprintf "perfbench: request %d (%s) failed: %s\n%!" id
          (P.canonical_of_job st.jobs.(k))
          (if String.length resp > 300 then String.sub resp 0 300 else resp)
      end;
      (hit, good))

(* [clients] threads, each on its own connection, in a closed loop: a
   client sends its next request, the key [next c] picks, only after the
   previous reply; [None] ends the client. *)
let closed_loop st d ~clients ~(next : int -> int option) =
  let client c =
    let samples = ref [] in
    C.with_unix d.socket (fun fd ->
        let i = ref 0 and alive = ref true in
        while
          !alive
          &&
          match next c with
          | None -> false
          | Some k ->
            let id = (c * 1_000_000) + !i in
            incr i;
            let line = P.simulate_request ~id:(Json.Int id) st.jobs.(k) in
            let resp, lat =
              Layer.span ~track:(Printf.sprintf "client-%d" c) ~id "request" (fun () ->
                  timed (fun () ->
                      (* a lost connection fails this request and ends the client *)
                      try C.request fd line
                      with (Unix.Unix_error _ | End_of_file) as e ->
                        alive := false;
                        Printexc.to_string e))
            in
            let hit, ok = verify st ~id k resp in
            samples := { key = k; lat; hit; ok } :: !samples;
            true
        do
          ()
        done);
    !samples
  in
  let run_client c =
    try client c
    with e ->
      Printf.eprintf "perfbench: client %d: %s\n%!" c (Printexc.to_string e);
      Mutex.protect st.lock (fun () -> st.failed <- st.failed + 1);
      [ { key = -1; lat = 0.; hit = false; ok = false } ]
  in
  let results = Array.make clients [] in
  let t0 = now () in
  let threads = List.init clients (fun c -> Thread.create (fun () -> results.(c) <- run_client c) ()) in
  List.iter Thread.join threads;
  (List.concat (Array.to_list results), now () -. t0)

type phase = {
  cold : sample list;  (** the first request for every key, every round *)
  cold_walls : float list;  (** one per round *)
  cold_rss_mb : float list;  (** daemon VmHWM after each round's misses *)
  cold_by_key : (string * float) list;  (** median miss latency per key over rounds *)
  hot : sample list;  (** the Zipf stream *)
  hot_wall : float;
  failed : int;  (** of this phase *)
  mismatches : int;
  payloads : (int * (float * float * float * float)) list;
  stats : Json.t;  (** of the last daemon, after the hot phase *)
}

(* Fresh daemons in turn each get every key once from a single client, in a
   fixed order: the misses (scheduler, pool, compile, trace and replay).
   One client, because with two the misses that share a batch depend on
   timing, and identical rounds then differed by up to 30%. Rounds start
   until about one round (4 s) before [seconds] is up, so that they fill
   most of the run, and at least [min_rounds] run; a run reports per-key
   medians over them. [after_round] runs, untimed, after
   each round but the last. The last daemon then serves the Zipf
   stream from [clients] clients until the deadline: the hits (the request
   path). Payloads are compared across daemons and phases through [st]. *)
let measure opts st ~extra ~clients ~min_rounds ~seconds ~after_round =
  let jobs = st.jobs in
  let failed0 = st.failed and mismatches0 = st.mismatches in
  let t_cold = now () +. seconds -. 4. and t_end = now () +. seconds in
  (* A fixed order of work sizes, so that the daemon's heap grows the same
     way whatever the seed. *)
  let order = Array.init (Array.length jobs) Fun.id in
  let cls k = let j = jobs.(k) in (j.P.j_bench, j.P.j_input, j.P.j_scale, j.P.j_variant) in
  Array.sort (fun a b -> compare (cls a) (cls b)) order;
  let cold_round () =
    let d = spawn opts ~tag:"measured" ~extra in
    match
      let pos = ref 0 in
      let samples, wall =
        closed_loop st d ~clients:1 ~next:(fun _ ->
            Mutex.protect st.lock (fun () ->
                if !pos >= Array.length order then None
                else begin
                  incr pos;
                  Some order.(!pos - 1)
                end))
      in
      (samples, wall, peak_rss_mb ~pid:(string_of_int d.pid) ())
    with
    | r -> (d, r)
    | exception e -> stop d; raise e
  in
  let rec go i acc =
    let d, r = cold_round () in
    if i + 1 < min_rounds || now () < t_cold then begin
      stop d;
      after_round ();
      go (i + 1) (r :: acc)
    end
    else (d, List.rev (r :: acc))
  in
  let d, cold = go 0 [] in
  (* the hot phase gets at least two seconds, also on a slow host *)
  let t_end = Float.max t_end (now () +. 2.) in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let cdf = zipf_cdf (Array.length jobs) in
      let rngs = Array.init clients (fun c -> rng opts (1000 + c)) in
      let hot, hot_wall =
        closed_loop st d ~clients ~next:(fun c ->
            if now () >= t_end then None else Some (draw cdf rngs.(c)))
      in
      {
        cold = List.concat_map (fun (s, _, _) -> s) cold;
        cold_walls = List.map (fun (_, w, _) -> w) cold;
        cold_rss_mb = List.map (fun (_, _, m) -> m) cold;
        cold_by_key =
          component_medians
            (List.map
               (fun (s, _, _) ->
                 List.filter_map (fun x -> if x.ok then Some (string_of_int x.key, x.lat) else None) s)
               cold);
        hot;
        hot_wall;
        failed = st.failed - failed0;
        mismatches = st.mismatches - mismatches0;
        payloads = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.payloads [] |> List.sort compare;
        stats = stats d;
      })

(* --- the workload --- *)

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  |> fun v -> Option.value ~default:0. (Option.bind v Json.to_float_opt)

(* Set-up: the seeded request pool, then daemon spawn until the first ping
   reply, timed for a quarter second (at least seven times); each set-up
   daemon is stopped, untimed, before the next. *)
let set_up opts =
  let previous = ref None in
  let r =
    setups ~seconds:0.25
      ~between:(fun () -> Option.iter stop !previous)
      (fun () ->
        let jobs = job_pool opts in
        previous := Some (spawn opts ~tag:"setup" ~extra:[]);
        jobs)
  in
  Option.iter stop !previous;
  r

let run opts : result =
  let clients = nproc () in
  (* set-up samples are taken before the first cold round and after every
     other one, so they spread over the run as the rounds do *)
  let jobs, first_setups = set_up opts in
  let setups = ref first_setups in
  let after_round () = setups := !setups @ snd (set_up opts) in
  let st =
    { jobs; lock = Mutex.create (); first = Hashtbl.create 128; payloads = Hashtbl.create 128;
      failed = 0; mismatches = 0 }
  in
  let untraced = measure opts st ~extra:[] ~clients ~min_rounds:5 ~seconds:opts.seconds ~after_round in
  let traced =
    if not opts.trace then None
    else begin
      let f name = Filename.concat opts.out_dir (Printf.sprintf "phloemd-%s-%d.json" name opts.seed) in
      Layer.reset ();
      Layer.on := true;
      let ph =
        Fun.protect ~finally:(fun () -> Layer.on := false) (fun () ->
            measure opts st ~extra:[ "--metrics-out"; f "metrics"; "--trace-out"; f "trace" ]
              ~clients ~min_rounds:1 ~seconds:(opts.seconds /. 2.) ~after_round:ignore)
      in
      Reps.collect_spans := Layer.spans ();
      Some ph
    end
  in
  let lat samples = List.filter_map (fun s -> if s.ok then Some s.lat else None) samples in
  let requests ph = List.length ph.cold + List.length ph.hot in
  let hits ph = List.length (List.filter (fun s -> s.hit) (ph.cold @ ph.hot)) in
  let rps ph = ratio (float (List.length ph.hot)) ph.hot_wall in
  let u = untraced in
  let phases = u :: Option.to_list traced in
  let sum f = List.fold_left (fun a ph -> a + f ph) 0 phases in
  let d = digest () in
  List.iter
    (fun (k, (serial, cycles, uops, speedup)) ->
      let tag = P.canonical_of_job jobs.(k) in
      add_float d (tag ^ "/serial-cycles") serial;
      add_float d (tag ^ "/cycles") cycles;
      add_float d (tag ^ "/uops") uops;
      add_float d (tag ^ "/speedup") speedup)
    u.payloads;
  let layer ph =
    let st = ph.stats in
    [
      metric "serve.hit_p50_ms" (1000. *. median (lat (List.filter (fun s -> s.hit) ph.hot)));
      metric "serve.miss_p50_ms" (1000. *. median (lat (List.filter (fun s -> not s.hit) (ph.cold @ ph.hot))));
      metric "serve.hit_ratio" (ratio (float (hits ph)) (float (requests ph)));
      metric "serve.rps" (rps ph);
      metric "serve.queue_wait_mean_ms" (1000. *. field [ "scheduler"; "queue_wait_mean_s" ] st);
      metric "serve.queue_wait_max_ms" (1000. *. field [ "scheduler"; "queue_wait_max_s" ] st);
      metric "serve.shed" (field [ "shed" ] st);
      metric "serve.errors" (field [ "errors" ] st);
      metric "serve.exec_trace_s" (field [ "phases"; "trace_s" ] st);
      metric "serve.exec_simulate_s" (field [ "phases"; "simulate_s" ] st);
      metric "serve.sim_trace_hit_ratio"
        (let h = field [ "sim_cache"; "trace_hits" ] st and m = field [ "sim_cache"; "trace_misses" ] st in
         ratio h (h +. m));
      metric "check.failed" (float ph.mismatches);
    ]
  in
  let timing ph =
    [
      ("requests", Json.Int (requests ph));
      ("cold_wall_s", timing_json ph.cold_walls);
      ("cold_peak_rss_mb", Json.List (List.map (fun m -> Json.Float m) ph.cold_rss_mb));
      ("cold_latency_ms", timing_json ~scale:1000. (lat ph.cold));
      ("hot_wall_s", Json.Float ph.hot_wall);
      ("hot_rps", Json.Float (rps ph));
      ("hot_latency_ms", timing_json ~scale:1000. (lat ph.hot));
      ("hit_share", Json.Float (ratio (float (hits ph)) (float (requests ph))));
      ("daemon_stats", ph.stats);
    ]
  in
  {
    attempted = sum requests;
    failed = sum (fun ph -> ph.failed);
    mismatches = sum (fun ph -> ph.mismatches);
    digest = digest_hex d;
    end_to_end =
      [
        metric "setup_s" (median !setups);
        metric "wall_s" (sum_values u.cold_by_key);
        metric "latency_ms" (1000. *. gmean (List.map snd u.cold_by_key));
        metric "speedup_gmean" (gmean (List.map (fun (_, (_, _, _, s)) -> s) u.payloads));
        metric "peak_rss_mb" (median u.cold_rss_mb);
      ];
    per_layer =
      (match traced with
      | None -> []
      | Some t ->
        layer t
        @ [ metric "tracing.overhead" (ratio (median (lat t.hot)) (median (lat u.hot)) -. 1.) ]);
    detail =
      [
        ("clients", Json.Int clients);
        ("pool_keys", Json.Int (Array.length jobs));
        ("zipf_s", Json.Float zipf_s);
        ("setup_s", timing_json !setups);
        ("untraced", Json.Obj (timing u));
      ]
      @ (match traced with Some t -> [ ("traced", Json.Obj (timing t)) ] | None -> []);
  }
