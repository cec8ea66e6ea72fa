(** Schedule-space exploration and flaky-test hunting on top of the IDL
    solver (see DESIGN.md, "Schedule-space exploration: flip soundness and
    minimality").

    A recorded run pins one point of the Equation-1 solution space; every
    other model of the same system replays the {e same} observables
    (Theorem 1), so bug hunting must step {e outside} the recorded
    equivalence class.  A {!flip} does exactly that: it relaxes the
    dependence pins that forced a conflicting access pair into its recorded
    order (the intervals touching the pair become sourceless readers, and
    the lock-acquisition pins of the two threads are likewise freed so a
    critical-section order can invert) and adds the inverting hard atom
    [O(b) < O(a)].  The re-solve is seeded with the recorded witness, so
    feasible neighbors cost near-zero solver work; each solution is checked
    by {!Light_core.Validate} against the relaxed dependence set and then
    re-executed with blind-write suppression {e off} — every step of the
    run is a legal program step, so a crash found this way is a genuine
    interleaving of the program, not a replay artifact. *)

open Runtime

module Log = Light_core.Log
(** Re-exported for readability: all log types below are light.core's. *)

(** {1 Flips} *)

type flip = {
  fa : Log.evt;        (** recorded-earlier access *)
  fb : Log.evt;        (** recorded-later, conflicting access *)
  f_loc : Loc.t;
  fa_site : int;
  fb_site : int;
  fa_kind : Event.akind;
  fb_kind : Event.akind;
  f_racy : bool;       (** the site pair is racy (static or dynamic evidence) *)
}

val flip_key : flip -> Log.evt * Log.evt * Loc.t
val pp_flip : Format.formatter -> flip -> unit

val toggle : flip list -> flip -> flip list
(** Add the flip to the set, or remove it if already present (matching by
    {!flip_key}); the result is kept sorted so toggling is involutive:
    [toggle (toggle s f) f] is [s]. *)

(** {1 Solving a flipped system} *)

val relaxation : Log.t -> flip list -> Log.evt list * Log.evt list
(** [(free, extra)] for {!Light_core.Constraints.generate}: the interval
    start events whose source pins the flips disconnect, and the flip
    endpoints to materialize as order variables. *)

type solve_verdict =
  | Feasible of Light_core.Replayer.schedule
  | Infeasible      (** the inverted order contradicts the relaxed system *)
  | SolveAborted    (** solver budget exhausted — reported, never dropped *)

type solved = {
  sv : solve_verdict;
  free : Log.evt list;     (** the pins that were relaxed (for validation) *)
  solve_time_s : float;
  sv_vars : int;
}

val lock_sections : Log.t -> (Loc.t * (Log.evt * Log.evt) list) list
(** Critical sections reconstructed from the log alone (acquisition read to
    the thread's next recorded lock-ghost write).  Under-approximates when
    a final release was never read; prefer {!trace_sections} when a trace
    is available. *)

val trace_sections :
  Event.access list -> (Loc.t * (Log.evt * Log.evt) list) list
(** Exact critical sections from an access trace (acquire/reacquire read to
    the matching releasing write). *)

val solve_flips :
  ?budget:Dlsolver.Idl.budget ->
  ?hinted:bool ->
  ?sections:(Loc.t * (Log.evt * Log.evt) list) list ->
  Log.t ->
  flip list ->
  solved
(** Regenerate the constraint system with the flips' relaxation, append the
    inverting hard atoms plus the mutual-exclusion clauses keeping critical
    sections of one lock disjoint (the recorded pins no longer enforce
    this once freed), and solve.  [sections] defaults to
    {!lock_sections} of the log; [hinted] (default [true]) seeds the solver
    with the generation witness, [false] measures a fresh solve.  With an
    empty flip list nothing is relaxed or added: the problem is the base
    one, byte for byte. *)

(** {1 Exploration context} *)

type context = {
  recording : Light_core.Light.recording;
  trace : Event.access list;   (** full access trace of an identical rerun *)
  racy_pairs : (int * int) list;
      (** site pairs with race evidence: static ({!Analysis.Analyze.races})
          cross-checked with dynamic ({!Analysis.Hb_detector}); each pair
          normalized [(min, max)] *)
  base_order : Log.evt array;  (** the unflipped solved schedule's order *)
  sections : (Loc.t * (Log.evt * Log.evt) list) list;
      (** exact critical sections (from the trace), fed to every re-solve *)
}

val make_context :
  ?variant:Light_core.Light.variant ->
  ?max_steps:int ->
  ?seed:int ->
  make_sched:(unit -> Sched.t) ->
  Lang.Ast.program ->
  (context, string) result
(** Record one run ([Plan.all_shared], so counters cover every access) and
    re-execute it with a fresh scheduler instance from the same constructor
    — byte-identical, since both tools' hooks are passive — to collect the
    access trace and the dynamic races.  [variant] defaults to [v_basic]:
    O1 ranges coarsen the flip lattice, single-dependence records keep
    every interval endpoint addressable. *)

val candidates : ?limit:int -> context -> flip list
(** Conflicting cross-thread access pairs adjacent in the trace (per
    location, each access against the other threads' latest accesses, at
    least one write), deduplicated by site pair, racy pairs ranked first,
    capped at [limit] (default 32).  Deterministic: depends only on the
    trace and the race evidence. *)

(** {1 Enumeration and classification} *)

type verdict =
  | Same                        (** Theorem-1 observables and final heap match *)
  | Divergent of string list    (** feasible neighbor with different outcome *)
  | Crashed of Interp.crash list
  | Stuck of string             (** deadlock / gate stall / step limit *)
  | InfeasibleFlip
  | AbortedFlip                 (** solver budget exhausted *)

val verdict_name : verdict -> string

type explored = {
  ex_flip : flip;
  ex_verdict : verdict;
  ex_validate : string list;  (** {!Light_core.Validate} violations; [[]] = valid *)
  ex_solve_s : float;
}

val run_schedule : context -> Light_core.Replayer.schedule -> Interp.outcome
(** Re-execute the program under a (possibly flipped) schedule with
    blind-write suppression off. *)

val classify : context -> Interp.outcome -> verdict

val explore :
  ?pool:Engine.Pool.t ->
  ?budget:Dlsolver.Idl.budget ->
  ?limit:int ->
  context ->
  explored list
(** Solve, validate, re-execute and classify every single-flip candidate.
    Fans out across the pool; results merge in candidate order, so the
    output is byte-stable under any [LIGHT_JOBS]. *)

(** {1 Flaky-test hunting} *)

type reproducer = {
  rp_flips : flip list;        (** minimal failing flip set *)
  rp_log : Log.t;              (** the passing run's recording *)
  rp_sections : (Loc.t * (Log.evt * Log.evt) list) list;
      (** the critical sections of the recorded run, so the re-solve stays
          self-contained (no trace needed at replay time) *)
  rp_expected : (int * int * string) list;  (** (tid, site, msg) crash sigs *)
}

val reproducer_to_string : reproducer -> string
val reproducer_of_string : string -> (reproducer, string) result

val run_reproducer :
  ?budget:Dlsolver.Idl.budget ->
  ?max_steps:int ->
  Lang.Ast.program ->
  reproducer ->
  (Interp.outcome, string) result
(** Re-solve the embedded log with the stored flips and re-execute: the
    whole pipeline is deterministic, so repeated runs yield byte-identical
    outcomes. *)

type hunt_result = {
  hr_repro : reproducer option;
  hr_outcome : Interp.outcome option;  (** the failing run found *)
  hr_tried : int;                      (** flip sets evaluated *)
}

val hunt :
  ?pool:Engine.Pool.t ->
  ?budget:Dlsolver.Idl.budget ->
  ?limit:int ->
  ?depth:int ->
  context ->
  hunt_result
(** Breadth-first search by flip distance (singles, then pairs up to
    [depth], default 2) for a crashing schedule, taking the first crash in
    candidate order (deterministic under any pool size), then greedy
    shrinking to a minimal flip set whose removal of any member loses the
    failure. *)

(** {1 Log-only enumeration (synthetic-log tests, bench)} *)

val log_candidates : ?limit:int -> Log.t -> flip list
(** Flip candidates from a log alone (no trace): cross-thread interval
    endpoint pairs per location with at least one writer. *)

val enumerate_log :
  ?budget:Dlsolver.Idl.budget -> ?limit:int -> Log.t -> (flip * solved) list
(** Solve every log-only candidate under the budget.  Every candidate
    appears in the output — budget exhaustion yields [SolveAborted], never
    a silently dropped schedule. *)

(** {1 Bench statistics} *)

type stats = {
  st_label : string;
  st_candidates : int;
  st_same : int;
  st_divergent : int;
  st_crashed : int;
  st_stuck : int;
  st_infeasible : int;
  st_aborted : int;
  st_resolve_s : float;     (** total witness-seeded re-solve time *)
  st_fresh_s : float;       (** total fresh-solve time (budget-capped) *)
  st_fresh_aborted : int;   (** fresh solves that hit the cap *)
  st_sched_per_s : float;   (** candidates evaluated per second, end to end *)
}

val measure :
  ?budget:Dlsolver.Idl.budget ->
  ?fresh_budget:Dlsolver.Idl.budget ->
  ?limit:int ->
  label:string ->
  context ->
  stats
(** Serial per-workload measurement (run {e inside} a per-workload pool
    job; it must not fan out again): every candidate is re-solved hinted
    and fresh, executed, and classified. *)
