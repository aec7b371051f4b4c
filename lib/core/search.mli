(** Profile-guided pipeline search (paper Sec. V, Fig. 8): enumerate
    candidate pipelines from combinations of the top-ranked decoupling
    points, profile each on small training inputs, keep the best. The
    paper reports "no fewer than fifty" candidates per benchmark at four
    threads; [top_k]/[max_cuts] control the space here.

    A candidate is discarded when the decoupler rejects its cuts (among
    them a merge cursor read outside the stage that updates it, see
    {!Stage_assign.def_stage_of}), when the generated pipeline fails
    validation, when a training run spends its {!profile_budget}, when the
    queue network fails, or when its simulated result differs from the
    serial run on the checked arrays (this is also what catches
    decouplings that would race). Training inputs are profiled in order
    and a candidate is dropped at its first failing input, so the later
    inputs never run it. The info log line reports the drop counts by
    reason. *)

type candidate = {
  ca_cuts : Costmodel.cut list;  (** in program order *)
  ca_stages : int;  (** threads + RAs, as Fig. 13 counts them *)
  ca_cycles : int list;  (** per training input *)
  ca_speedups : float list;
  ca_gmean : float;
}

type outcome = {
  best : Costmodel.cut list;  (** the recipe to apply to test inputs *)
  all : candidate list;  (** every legal candidate profiled (Fig. 13) *)
  serial_cycles : int list;
}

val cut_set_key : Costmodel.cut list -> string
(** Canonical hex digest of a cut set: insensitive to list order and to
    the float ranking score. Two sets share a key exactly when they
    decouple the program identically. *)

val profile_budget : serial_instrs:int -> int
(** Op budget of one profiling run of a candidate ([Phloem_ir.Interp]
    ops), from the serial run's instruction count on the same input:
    [max 2_000_000 (8 * serial_instrs)]. Shared with the autotuner. *)

val enumerate_cut_sets :
  ?top_k:int -> ?max_cuts:int -> Phloem_ir.Types.pipeline -> Costmodel.cut list list
(** Non-empty subsets of the top-[top_k] ranked cuts with at most
    [max_cuts] members, in program order, deduplicated by
    {!cut_set_key}. *)

val pgo :
  ?flags:Decouple.flags ->
  ?cfg:Pipette.Config.t ->
  ?top_k:int ->
  ?max_cuts:int ->
  ?pool:Phloem_util.Pool.t ->
  check_arrays:string list ->
  training:
    (Phloem_ir.Types.pipeline * (string * Phloem_ir.Types.value array) list) list ->
  unit ->
  outcome
(** When no candidate survives profiling, returns the serial fallback
    [{best = []; all = []; serial_cycles}] with a warning rather than
    raising — downstream consumers treat an empty recipe as "run serial".
    @raise Invalid_argument when no training inputs are given. *)
