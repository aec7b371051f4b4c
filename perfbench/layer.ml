(* Spans and allocation around calls into the program's layers.

   With tracing off, [span] is a plain call: no clock read, no GC probe.
   With tracing on, every call records a span (name, start, stop, cell or
   request id, executing domain) in a [Metrics.recorder] and charges the
   call and its allocation to the layer's accumulator. Allocation is read
   on the calling domain: minor words from [Gc.minor_words], words
   allocated directly in the major heap from [Gc.counters]. Parents are
   implied by nesting: spans on one track nest properly, so the parent of a
   span is the innermost span on the same track that contains it. *)

module M = Phloem_util.Metrics

let on = ref false
let recorder = ref (M.recorder ~max_spans:2_000_000 ())

type acc = {
  mutable calls : int;
  mutable minor : float;  (** minor-heap words *)
  mutable major : float;  (** words allocated directly in the major heap *)
  mutable units : float;  (** layer-specific work count (µops, candidates) *)
}

let zero () = { calls = 0; minor = 0.; major = 0.; units = 0. }
let lock = Mutex.create ()
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

let reset () =
  Mutex.protect lock (fun () -> Hashtbl.reset accs);
  recorder := M.recorder ~max_spans:2_000_000 ()

let spans () = M.spans !recorder

(* A copy of every layer's accumulator. *)
let all () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun k a l -> (k, { a with calls = a.calls }) :: l) accs [])

(* The caller holds [lock]. *)
let acc_of name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = zero () in
    Hashtbl.replace accs name a;
    a

let charge name ~minor ~major =
  Mutex.protect lock (fun () ->
      let a = acc_of name in
      a.calls <- a.calls + 1;
      a.minor <- a.minor +. minor;
      a.major <- a.major +. major)

(* Credit [n] units of work (µops, candidates, ...) to a layer. *)
let count name n =
  if !on then
    Mutex.protect lock (fun () ->
        let a = acc_of name in
        a.units <- a.units +. float_of_int n)

(* Words the calling domain allocated directly in the major heap: promoted
   words were already counted as minor words. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let span ?(id = 0) ?track name f =
  if not !on then f ()
  else begin
    let m0 = Gc.minor_words () and j0 = direct_major_words () in
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now () in
        charge name
          ~minor:(Gc.minor_words () -. m0)
          ~major:(direct_major_words () -. j0);
        let track =
          match track with
          | Some t -> t
          | None -> Printf.sprintf "domain-%d" (Domain.self () :> int)
        in
        M.record !recorder ~trace:id ~track ~name ~start:t0 ~stop:t1)
      f
  end

(* Self time per span name: each span's duration minus the part covered by
   its direct children on the same track. Summed over all tracks. *)
let self_times (spans : M.span list) : (string * float) list =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun (s : M.span) ->
      Hashtbl.replace by_track s.M.sp_track
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_track s.M.sp_track)))
    spans;
  let self = Hashtbl.create 16 in
  let add name d =
    Hashtbl.replace self name (d +. Option.value ~default:0. (Hashtbl.find_opt self name))
  in
  Hashtbl.iter
    (fun _ spans ->
      (* outer spans first: earlier start, then longer *)
      let spans =
        List.sort
          (fun (a : M.span) (b : M.span) ->
            compare (a.M.sp_start, -.a.M.sp_stop) (b.M.sp_start, -.b.M.sp_stop))
          spans
      in
      (* stack of open spans with their accumulated child time *)
      let stack = ref [] in
      let close () =
        match !stack with
        | (s, child) :: rest ->
          add s.M.sp_name (s.M.sp_stop -. s.M.sp_start -. child);
          stack := rest;
          (match !stack with
          | (p, pc) :: rest' ->
            stack := (p, pc +. (s.M.sp_stop -. s.M.sp_start)) :: rest'
          | [] -> ())
        | [] -> ()
      in
      List.iter
        (fun (s : M.span) ->
          let rec pop () =
            match !stack with
            | (top, _) :: _ when top.M.sp_stop <= s.M.sp_start -> close (); pop ()
            | _ -> ()
          in
          pop ();
          stack := (s, 0.) :: !stack)
        spans;
      while !stack <> [] do close () done)
    by_track;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare

(* Chrome trace of every retained span: one thread per track, the cell or
   request id as the event category. *)
let write_chrome_trace file (spans : M.span list) =
  let t0 = match spans with s :: _ -> s.M.sp_start | [] -> 0. in
  let tids = Hashtbl.create 8 in
  let tid track =
    match Hashtbl.find_opt tids track with
    | Some t -> t
    | None ->
      let t = Hashtbl.length tids + 1 in
      Hashtbl.replace tids track t;
      t
  in
  let us x = int_of_float (x *. 1e6) in
  let events =
    List.map
      (fun (s : M.span) ->
        {
          Pipette.Telemetry.te_pid = 1;
          te_tid = tid s.M.sp_track;
          te_cat = Printf.sprintf "id-%d" s.M.sp_trace;
          te_name = s.M.sp_name;
          te_ts = us (s.M.sp_start -. t0);
          te_dur = max 1 (us (s.M.sp_stop -. s.M.sp_start));
        })
      spans
  in
  let thread_names = Hashtbl.fold (fun tr t acc -> ((1, t), tr) :: acc) tids [] in
  Pipette.Telemetry.Json.to_file file
    (Pipette.Telemetry.trace_events_json ~process_names:[ (1, "perfbench") ]
       ~thread_names events)

(* Seconds each track spent inside any span: the self times of a track's
   spans partition exactly this time. *)
let busy_by_track (spans : M.span list) : (string * float) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : M.span) ->
      (* spans arrive sorted by start; keep the current covered interval *)
      let busy, hi =
        Option.value ~default:(0., neg_infinity) (Hashtbl.find_opt tbl s.M.sp_track)
      in
      let start = Float.max s.M.sp_start hi in
      let add = Float.max 0. (s.M.sp_stop -. start) in
      Hashtbl.replace tbl s.M.sp_track (busy +. add, Float.max hi s.M.sp_stop))
    (List.sort (fun (a : M.span) b -> compare a.M.sp_start b.M.sp_start) spans);
  Hashtbl.fold (fun k (b, _) acc -> (k, b) :: acc) tbl [] |> List.sort compare
