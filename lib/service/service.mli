(** Long-lived record service: a session dispatcher driving prepared
    programs across the domain Pool through a bounded submission queue with
    explicit back-pressure, per-worker session contexts that recycle one
    {!Light_core.Recorder} across sessions ({!Light_core.Recorder.reset}
    in place), and a drain-on-shutdown guarantee: when {!run} returns,
    every accepted session has completed or faulted.

    Determinism: a session's log bytes (and digest) depend only on the
    session — not on worker assignment, pool size, queue capacity, intern
    shard count, or recorder recycling.  Cross-run identity additionally
    requires deterministic intern-id assignment: warm the corpus with a
    serial pass first (the service bench's reference pass). *)

open Runtime

type session = {
  ss_label : string;
  ss_prepared : Light_core.Light.prepared;
  ss_engine : Vm.engine;
      (** Always [Vm.Bytecode]: sessions record on the register VM.  The
          field stays only because the record→replay benchmark program
          ([perfbench/main.ml]) reads it; ROADMAP item 7 removes it at the
          next change to that program. *)
  ss_sched : unit -> Sched.t;  (** fresh stateful scheduler per execution *)
  ss_seed : int;
  ss_max_steps : int;
}

(** One session of [prepared], recorded on the register VM by
    {!Light_core.Light.record_prepared}. *)
val session :
  ?label:string ->
  ?seed:int ->
  ?max_steps:int ->
  sched:(unit -> Sched.t) ->
  Light_core.Light.prepared ->
  session

type status = Done | Rejected | Failed of string

type result_ = {
  sr_label : string;
  sr_status : status;
  sr_digest : string;     (** MD5 of the session's v3 log ("" unless Done) *)
  sr_log : string option; (** the v3 log itself, when [keep_logs] *)
  sr_space_longs : int;
  sr_steps : int;
  sr_overhead : float;
  sr_queue_s : float;     (** submit → execution start (wall clock) *)
  sr_run_s : float;       (** execution start → finish (wall clock) *)
}

type stats = {
  st_workers : int;
  st_sessions : int;
  st_done : int;
  st_rejected : int;
  st_failed : int;
  st_recorders_created : int;
      (** with recycling: at most one per worker; without: one per session *)
  st_inline_runs : int;
      (** sessions the parked submitter executed itself (back-pressure) *)
  st_queue : Engine.Bqueue.stats;
}

val run :
  ?pool:Engine.Pool.t ->
  ?queue_capacity:int ->
  ?recycle:bool ->
  ?on_full:[ `Park | `Reject ] ->
  ?keep_logs:bool ->
  session array ->
  result_ array * stats
(** Drive the whole corpus through the service and return per-session
    results indexed like the input, plus run statistics.  One pool worker
    acts as the submitter; the rest consume.  [on_full] picks the
    back-pressure policy when the queue is at capacity: [`Park] (default)
    makes the submitter steal and execute a queued session inline before
    retrying (work-conserving; a size-1 pool degrades to the serial loop),
    [`Reject] drops the session with [sr_status = Rejected].  [recycle]
    (default true) reuses one recorder per worker across sessions;
    [keep_logs] retains each Done session's v3 log string in its result.
    Faulting sessions yield [Failed] results; the service itself never
    throws.  Uses the shared default pool unless [pool] is given. *)

val latencies : result_ array -> float array
(** Submit→finish latencies of the Done sessions, in seconds. *)

val percentile : float -> float array -> float
(** [percentile p xs], [p] in [0,100]; 0.0 on empty input. *)
