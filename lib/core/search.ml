(* Profile-guided pipeline search (paper Sec. V, Fig. 8): enumerate candidate
   pipelines from combinations of the top-ranked decoupling points, profile
   each on small training inputs, and keep the best. Candidates that the
   decoupler rejects, that fail validation, that spend their op budget or
   fail in the queue network, or that compute a different result from the
   serial version are discarded. *)

open Phloem_ir.Types
module Log = Phloem_util.Log

type candidate = {
  ca_cuts : Costmodel.cut list; (* program order *)
  ca_stages : int; (* threads + RAs, as Fig. 13 counts them *)
  ca_cycles : int list; (* per training input *)
  ca_speedups : float list;
  ca_gmean : float;
}

type outcome = {
  best : Costmodel.cut list;
  all : candidate list; (* every profiled candidate *)
  serial_cycles : int list;
}

(* Canonical digest of a cut set, insensitive to list order (subsets are
   always re-sorted to program order anyway) and to the float score, which
   is a ranking artifact rather than part of the cut's identity. Same
   canonical-string-then-MD5 scheme as the serve protocol's content key, so
   two cut sets collide exactly when they decouple identically. *)
let cut_set_key (cuts : Costmodel.cut list) : string =
  let canon =
    cuts
    |> List.map (fun (c : Costmodel.cut) ->
           Printf.sprintf "[%s]%b"
             (String.concat "," (List.map string_of_int c.cut_loads))
             c.cut_prefetch)
    |> List.sort compare
    |> String.concat ";"
  in
  Digest.to_hex (Digest.string canon)

(* All non-empty subsets of the top-k cuts with at most [max_cuts] members,
   each subset ordered by program position. The cost model can rank the
   same decoupling point more than once (e.g. with and without an equal
   neighbor), so subsets are deduplicated by canonical digest — profiling
   the same pipeline twice would only waste training runs. *)
let enumerate_cut_sets ?(top_k = 6) ?(max_cuts = 3) (serial : pipeline) :
    Costmodel.cut list list =
  let cuts = Compile.candidates serial in
  let top = List.filteri (fun i _ -> i < top_k) cuts in
  let rec subsets = function
    | [] -> [ [] ]
    | c :: rest ->
      let without = subsets rest in
      List.map (fun s -> c :: s) without @ without
  in
  let seen = Hashtbl.create 64 in
  subsets top
  |> List.filter (fun s -> s <> [] && List.length s <= max_cuts)
  |> List.map
       (List.sort (fun (a : Costmodel.cut) b ->
            compare (List.hd a.cut_loads) (List.hd b.cut_loads)))
  |> List.filter (fun s ->
         let k = cut_set_key s in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)

(* The op budget of one profiling run: generous next to the serial run's
   instruction count, with a floor so tiny inputs still get room. A candidate
   that runs away (e.g. an inconsistent control-value protocol that spins
   forever) is killed when it is spent. *)
let profile_budget ~serial_instrs = max 2_000_000 (8 * serial_instrs)

(* Why a cut set was dropped from the search. *)
type drop = Rejected | Invalid | Over_budget | Mismatch | Failed

let drop_name = function
  | Rejected -> "decoupler reject"
  | Invalid -> "validation"
  | Over_budget -> "op budget"
  | Mismatch -> "result mismatch"
  | Failed -> "pipeline failure"

(* Compile and profile one cut set on every training input in order: each
   run must finish within its [profile_budget] and match the serial result
   on the checked arrays. The first input that drops the cut set ends its
   profiling, so a doomed candidate costs one training run, not one per
   input. *)
let profile_cut_set ~flags ~cfg ~check_arrays cuts serial_runs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (serial, inputs, (sr : Pipette.Sim.run)) :: rest -> (
      let fr = sr.Pipette.Sim.sr_functional in
      match Compile.with_cuts ~flags serial cuts with
      | exception Decouple.Reject _ -> Error Rejected
      | exception Phloem_ir.Validate.Invalid _ -> Error Invalid
      | p -> (
        (* the budget is domain-local, so concurrent candidates profiled by
           the pool each get their own *)
        let budget = profile_budget ~serial_instrs:fr.Phloem_ir.Interp.r_instrs in
        match
          Phloem_ir.Interp.with_max_ops budget (fun () -> Pipette.Sim.run ~cfg ~inputs p)
        with
        | exception Phloem_ir.Interp.Budget_exceeded -> Error Over_budget
        | exception _ -> Error Failed
        | r ->
          let arrays = r.Pipette.Sim.sr_functional.Phloem_ir.Interp.r_arrays in
          if
            List.for_all
              (fun name ->
                List.assoc_opt name arrays
                = List.assoc_opt name fr.Phloem_ir.Interp.r_arrays)
              check_arrays
          then go ((p, Pipette.Sim.cycles r) :: acc) rest
          else Error Mismatch))
  in
  go [] serial_runs

(* Profile-guided optimization over a list of training bindings.
   [training] supplies, per training input, the serial pipeline and its
   array contents. [check_arrays] names the output arrays that must match. *)
let pgo ?(flags = Decouple.all_passes) ?(cfg = Pipette.Config.default) ?(top_k = 6)
    ?(max_cuts = 3) ?pool ~check_arrays
    ~(training : (pipeline * (string * value array) list) list) () : outcome =
  (* [pmap] fans independent jobs over the pool while keeping list order,
     so the outcome is identical to the serial evaluation. *)
  let pmap f l =
    match pool with
    | Some p -> Phloem_util.Pool.map_list p f l
    | None -> List.map f l
  in
  match training with
  | [] -> invalid_arg "Search.pgo: no training inputs"
  | (serial0, _) :: _ ->
    let cut_sets = enumerate_cut_sets ~top_k ~max_cuts serial0 in
    Log.info ~component:"search" "pgo: profiling %d candidate cut sets on %d inputs"
      (List.length cut_sets) (List.length training);
    let serial_runs =
      pmap
        (fun (serial, inputs) ->
          let r = Pipette.Sim.run ~cfg ~inputs serial in
          (serial, inputs, r))
        training
    in
    let serial_cycles =
      List.map (fun (_, _, r) -> Pipette.Sim.cycles r) serial_runs
    in
    let results =
      pmap
        (fun cuts ->
          match profile_cut_set ~flags ~cfg ~check_arrays cuts serial_runs with
          | Error d -> Error d
          | Ok runs ->
            let cycles = List.map snd runs in
            let stages =
              match runs with
              | (p, _) :: _ -> List.length p.p_stages + List.length p.p_ras
              | [] -> 0
            in
            let speedups =
              List.map2 (fun s c -> float_of_int s /. float_of_int c) serial_cycles cycles
            in
            let gmean = Phloem_util.Stats.gmean speedups in
            Log.debug ~component:"search" "cuts [%s]: %d stages, gmean %.3f"
              (String.concat ";"
                 (List.map
                    (fun (c : Costmodel.cut) -> string_of_int (List.hd c.cut_loads))
                    cuts))
              stages gmean;
            Ok
              {
                ca_cuts = cuts;
                ca_stages = stages;
                ca_cycles = cycles;
                ca_speedups = speedups;
                ca_gmean = gmean;
              })
        cut_sets
    in
    let candidates = List.filter_map Result.to_option results in
    let drops = List.filter_map (function Error d -> Some d | Ok _ -> None) results in
    let dropped =
      match
        List.filter_map
          (fun d ->
            match List.length (List.filter (( = ) d) drops) with
            | 0 -> None
            | n -> Some (Printf.sprintf "%d %s" n (drop_name d)))
          [ Rejected; Invalid; Over_budget; Mismatch; Failed ]
      with
      | [] -> "none"
      | l -> String.concat ", " l
    in
    (match candidates with
    | [] ->
      (* No candidate survived profiling: degrade to the serial (no-cut)
         recipe instead of aborting the whole sweep — downstream consumers
         treat [best = []] as "run serial". *)
      Log.warn ~component:"search"
        "pgo: no legal candidate pipelines among %d cut sets (dropped: %s); \
         falling back to the serial (no-cut) configuration"
        (List.length cut_sets) dropped;
      { best = []; all = []; serial_cycles }
    | _ ->
      let best =
        List.fold_left
          (fun acc c -> if c.ca_gmean > acc.ca_gmean then c else acc)
          (List.hd candidates) (List.tl candidates)
      in
      Log.info ~component:"search"
        "pgo: best of %d legal candidates has gmean %.3f (dropped: %s)"
        (List.length candidates) best.ca_gmean dropped;
      { best = best.ca_cuts; all = candidates; serial_cycles })
