(** Long-lived record service: a session dispatcher over the domain Pool.

    The production shape the ROADMAP asks for — one deployed Light process
    recording many user sessions concurrently — reduced to its engine: a
    corpus of {e prepared} programs ({!Light_core.Light.prepare} already
    paid the analysis/compile cost) is submitted through a bounded
    {!Engine.Bqueue} and executed by the pool's worker domains, each of
    which owns a {e session context}: one long-lived {!Recorder} recycled
    across every session that worker executes ({!Recorder.reset}-in-place —
    last-write table, dep/range arenas, run tables and contention stripes
    keep their grown capacity, ~200KB of per-session allocation avoided).

    Scheduling discipline: the service borrows the Pool's workers via
    {!Engine.Pool.run_indexed} with one {e role} per worker.  Role 0 is the
    submitter: it feeds the queue and applies back-pressure when the queue
    is full — [`Reject] drops the session (recording its rejection), while
    [`Park] makes the submitter {e pay with work}: it steals a queued
    session and executes it inline before retrying, so a single-worker pool
    degrades to exactly the serial loop instead of deadlocking, and an
    overloaded many-worker pool throttles its producer without idling it.
    All other roles are consumers popping until the queue is closed and
    drained — the drain-on-shutdown guarantee: once {!run} returns, every
    accepted session has completed (or faulted), never been dropped.

    Determinism contract (extended to the service layer): a session's
    result bytes depend only on the session itself, never on which worker
    ran it, the pool size, the queue capacity, the intern shard count, or
    whether its recorder was fresh or recycled.  Each result carries the
    digest of the session's v3 log so harnesses can diff whole corpora
    cheaply; the service bench and tests check byte-identity across all of
    those axes.  (Cross-run identity additionally requires intern ids to be
    assigned in a deterministic order — warm the corpus with a serial pass
    first, as the bench does, because runtime map-key interning races are
    resolved by arrival order.) *)

open Runtime

type session = {
  ss_label : string;  (** for reports; not part of the recorded bytes *)
  ss_prepared : Light_core.Light.prepared;
  ss_engine : Vm.engine;  (** always [Vm.Bytecode]; see service.mli *)
  ss_sched : unit -> Sched.t;
      (** fresh scheduler per execution — schedulers are stateful, and a
          session may be re-executed (e.g. by an identity-checking pass) *)
  ss_seed : int;      (** program-visible nondeterminism ([@rand] etc.) *)
  ss_max_steps : int;
}

let session ?(label = "") ?(seed = 0)
    ?(max_steps = 5_000_000) ~sched prepared =
  {
    ss_label = label;
    ss_prepared = prepared;
    ss_engine = Vm.Bytecode;
    ss_sched = sched;
    ss_seed = seed;
    ss_max_steps = max_steps;
  }

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
      (** with recycling: at most one per worker role; without: one per
          executed session *)
  st_inline_runs : int;
      (** sessions the parked submitter executed itself (back-pressure) *)
  st_queue : Engine.Bqueue.stats;
}

let rejected_result (s : session) : result_ =
  {
    sr_label = s.ss_label;
    sr_status = Rejected;
    sr_digest = "";
    sr_log = None;
    sr_space_longs = 0;
    sr_steps = 0;
    sr_overhead = 0.0;
    sr_queue_s = 0.0;
    sr_run_s = 0.0;
  }

let run ?pool ?(queue_capacity = 64) ?(recycle = true) ?(on_full = `Park)
    ?(keep_logs = false) (sessions : session array) : result_ array * stats =
  let pool = match pool with Some p -> p | None -> Engine.Pool.get_default () in
  let n = Array.length sessions in
  let nroles = Engine.Pool.size pool in
  let q : (int * session) Engine.Bqueue.t =
    Engine.Bqueue.create ~capacity:queue_capacity
  in
  (* one slot per session, each written by exactly one role and read only
     after the run_indexed barrier — the Pool.map_array publication pattern *)
  let results : result_ option array = Array.make n None in
  let submit_t = Array.make n 0.0 in
  let created = Atomic.make 0 in
  let inline_runs = Atomic.make 0 in
  (* per-role session context: the recycled recorder *)
  let ctxs : Light_core.Recorder.t option ref array =
    Array.init nroles (fun _ -> ref None)
  in
  let execute (ctx : Light_core.Recorder.t option ref) (i : int) (s : session)
      : unit =
    let t0 = Light_core.Clock.now_s () in
    let recorder =
      if recycle then (
        match !ctx with
        | Some r -> Some r
        | None ->
          Atomic.incr created;
          let r =
            Light_core.Recorder.create
              ~variant:(Light_core.Light.prepared_variant s.ss_prepared)
              (Light_core.Light.prepared_modes s.ss_prepared)
          in
          ctx := Some r;
          Some r)
      else begin
        Atomic.incr created;
        None
      end
    in
    let res =
      match
        Light_core.Light.record_prepared ~sched:(s.ss_sched ())
          ~max_steps:s.ss_max_steps ~seed:s.ss_seed ?recorder s.ss_prepared
      with
      | rec_ ->
        let t1 = Light_core.Clock.now_s () in
        let log_str = Light_core.Log.to_string rec_.log in
        {
          sr_label = s.ss_label;
          sr_status = Done;
          sr_digest = Digest.string log_str;
          sr_log = (if keep_logs then Some log_str else None);
          sr_space_longs = rec_.space_longs;
          sr_steps = rec_.outcome.Interp.steps;
          sr_overhead = rec_.overhead;
          sr_queue_s = t0 -. submit_t.(i);
          sr_run_s = t1 -. t0;
        }
      | exception e ->
        (* a faulting session must not take the service down; the fault is
           the session's result *)
        let t1 = Light_core.Clock.now_s () in
        {
          sr_label = s.ss_label;
          sr_status = Failed (Printexc.to_string e);
          sr_digest = "";
          sr_log = None;
          sr_space_longs = 0;
          sr_steps = 0;
          sr_overhead = 0.0;
          sr_queue_s = t0 -. submit_t.(i);
          sr_run_s = t1 -. t0;
        }
    in
    results.(i) <- Some res
  in
  let rec consume ctx =
    match Engine.Bqueue.pop q with
    | Some (j, s) ->
      execute ctx j s;
      consume ctx
    | None -> ()
  in
  let produce ctx =
    for i = 0 to n - 1 do
      submit_t.(i) <- Light_core.Clock.now_s ();
      let rec submit () =
        match Engine.Bqueue.try_push q (i, sessions.(i)) with
        | `Ok -> ()
        | `Closed -> assert false (* only this role closes the queue *)
        | `Full -> (
          match on_full with
          | `Reject -> results.(i) <- Some (rejected_result sessions.(i))
          | `Park ->
            (* back-pressure by stealing: run one queued session inline,
               then retry — keeps a size-1 pool live and a loaded producer
               useful *)
            (match Engine.Bqueue.try_pop q with
            | Some (j, sj) ->
              Atomic.incr inline_runs;
              execute ctx j sj
            | None -> Domain.cpu_relax ());
            submit ())
      in
      submit ()
    done;
    Engine.Bqueue.close q;
    (* shutdown drain: deliver everything still queued *)
    consume ctx
  in
  if n > 0 then
    Engine.Pool.run_indexed pool nroles ~f:(fun role ->
        if role = 0 then produce ctxs.(role) else consume ctxs.(role));
  let out =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every session is executed or rejected *))
      results
  in
  let st_done = ref 0 and st_rej = ref 0 and st_fail = ref 0 in
  Array.iter
    (fun r ->
      match r.sr_status with
      | Done -> incr st_done
      | Rejected -> incr st_rej
      | Failed _ -> incr st_fail)
    out;
  ( out,
    {
      st_workers = nroles;
      st_sessions = n;
      st_done = !st_done;
      st_rejected = !st_rej;
      st_failed = !st_fail;
      st_recorders_created = Atomic.get created;
      st_inline_runs = Atomic.get inline_runs;
      st_queue = Engine.Bqueue.stats q;
    } )

(* ------------------------------------------------------------------ *)
(* Small result helpers for benches and the CLI                        *)
(* ------------------------------------------------------------------ *)

(** [percentile p xs] over completed-session latencies, [p] in [0,100];
    0.0 on an empty input. *)
let percentile (p : float) (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) idx))
  end

(** Submit→finish latencies of the Done sessions, in seconds. *)
let latencies (rs : result_ array) : float array =
  Array.of_list
    (Array.to_list rs
    |> List.filter_map (fun r ->
           match r.sr_status with
           | Done -> Some (r.sr_queue_s +. r.sr_run_s)
           | _ -> None))
