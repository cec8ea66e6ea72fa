(** The replayer: turns a solved constraint system into interpreter hooks
    that steer the replay run (Section 4.2).

    The IDL model assigns integers to the constrained events; sorting yields
    a total rank order over them.  The replay gate then:

    - lets a {e constrained} access (tid, c) proceed only when every
      lower-ranked constrained event has executed (exact-rank turn-taking);
    - lets an {e unconstrained} access proceed once all constrained events
      up to its thread-order predecessor have executed — interior accesses
      of a recorded interval thereby execute inside their endpoints, which
      together with the noninterference clauses preserves every inferred
      flow dependence;
    - suppresses blind writes: a write that is neither constrained, nor
      interior to a recorded interval of its thread, nor at a lock-guarded
      site, took part in no flow dependence, and executing it could corrupt
      a read (ghost writes are never suppressed — they carry the lock
      semantics);
    - substitutes recorded syscall values and steers [notify] wakeups to the
      recorded waiter. *)

open Runtime

(* One thread's slice of the schedule, in dense sorted arrays: the replay
   driver reaches every per-access answer by a cursor or a binary search
   over these, never by hashing an event. *)
type thread_plan = {
  tp_tid : int;
  tp_cs : int array;  (** the thread's constrained counters, ascending *)
  tp_ranks : int array;  (** [tp_ranks.(i)] = rank of [(tp_tid, tp_cs.(i))] *)
  tp_iv_lo : int array;  (** recorded intervals, by ascending start counter *)
  tp_iv_hi : int array;
  tp_iv_reach : int array;  (** prefix maximum of [tp_iv_hi] *)
  tp_iv_loc : Loc.t array;
}

type schedule = {
  rank_of : (Log.evt, int) Hashtbl.t;
  order : Log.evt array;  (** rank -> event *)
  threads : thread_plan array;
      (** every thread with a constrained event or a recorded interval,
          by ascending tid *)
  syscall_values : (int * int, Value.t) Hashtbl.t;
  notify_pairs : (Log.evt, int) Hashtbl.t;  (** notify write event -> waiter tid *)
}

type solve_result_kind = Solved | Unsatisfiable | SolverAborted

type solve_report = {
  schedule : schedule option;
  result_kind : solve_result_kind;
  solver_stats : Dlsolver.Idl.stats;
  gen_stats : Constraints.gen_stats;
      (** clause counts before/after pruning and generation time *)
  n_vars : int;
  n_hard : int;
  n_clauses : int;
  solve_time_s : float;
  max_model : int;
      (** largest model value assigned (0 when unsolved) — epoch chaining
          shifts the next epoch's hint above this watermark *)
}

let build_schedule (log : Log.t) (cs : Constraints.t) (model : int array) : schedule =
  let n = Array.length cs.evts in
  let order =
    Array.init n (fun i -> i)
    |> Array.to_list
    |> List.sort (fun i j ->
           match compare model.(i) model.(j) with
           | 0 -> compare cs.evts.(i) cs.evts.(j)
           | c -> c)
    |> List.map (fun i -> cs.evts.(i))
    |> Array.of_list
  in
  let rank_of = Hashtbl.create (2 * n) in
  Array.iteri (fun rank e -> Hashtbl.replace rank_of e rank) order;
  (* per thread: (counter, rank) of its constrained events, its intervals *)
  let per_thread : (int, (int * int) list ref * (Loc.t * int * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let slot t =
    match Hashtbl.find_opt per_thread t with
    | Some s -> s
    | None ->
      let s = (ref [], ref []) in
      Hashtbl.add per_thread t s;
      s
  in
  Array.iteri (fun rank (t, c) -> let evs, _ = slot t in evs := (c, rank) :: !evs) order;
  List.iter
    (fun (iv : Constraints.interval) ->
      let _, ivs = slot (fst iv.start_e) in
      ivs := (iv.iv_loc, snd iv.start_e, snd iv.end_e) :: !ivs)
    cs.intervals;
  let thread_plan t (evs, ivs) =
    let evs = Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) !evs) in
    let ivs =
      Array.of_list (List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) !ivs)
    in
    let reach = ref min_int in
    {
      tp_tid = t;
      tp_cs = Array.map fst evs;
      tp_ranks = Array.map snd evs;
      tp_iv_lo = Array.map (fun (_, lo, _) -> lo) ivs;
      tp_iv_hi = Array.map (fun (_, _, hi) -> hi) ivs;
      tp_iv_reach = Array.map (fun (_, _, hi) -> reach := max !reach hi; !reach) ivs;
      tp_iv_loc = Array.map (fun (l, _, _) -> l) ivs;
    }
  in
  let threads =
    Hashtbl.fold (fun t s acc -> thread_plan t s :: acc) per_thread []
    |> List.sort (fun a b -> Int.compare a.tp_tid b.tp_tid)
    |> Array.of_list
  in
  let syscall_values = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace syscall_values (t, i) v) log.syscalls;
  (* notify -> waiter pairing from condition-ghost records *)
  let notify_pairs = Hashtbl.create 16 in
  List.iter
    (fun (d : Log.dep) ->
      if d.loc.fld = Loc.cond_fld then
        match d.w with Some w -> Hashtbl.replace notify_pairs w (fst d.rf) | None -> ())
    log.deps;
  List.iter
    (fun (r : Log.range) ->
      if r.loc.fld = Loc.cond_fld then
        match r.w_in with Some w -> Hashtbl.replace notify_pairs w r.rt | None -> ())
    log.ranges;
  { rank_of; order; threads; syscall_values; notify_pairs }

(** Generate constraints, solve, and build the schedule.  [budget] bounds
    the solver's work so a pathological constraint system aborts with
    honest statistics instead of hanging; [naive] switches to the
    unpruned quadratic generator (differential oracle). *)
let solve ?(naive = false) ?budget ?(hint_shift = 0) (log : Log.t) : solve_report =
  let cs = Constraints.generate ~naive log in
  let hint =
    (* IDL is translation-invariant, so shifting the witness hint by a
       constant preserves satisfaction; epoch chaining shifts each epoch's
       hint above the previous epoch's solved ranks so the concatenated
       per-epoch orders stay globally consistent. *)
    match cs.hint with
    | Some h when hint_shift <> 0 -> Some (Array.map (fun v -> v + hint_shift) h)
    | h -> h
  in
  let t0 = Clock.now_s () in
  let result = Dlsolver.Idl.solve ?budget ?hint cs.problem in
  let dt = Clock.now_s () -. t0 in
  let mk kind stats schedule max_model =
    {
      schedule;
      result_kind = kind;
      solver_stats = stats;
      gen_stats = cs.gen_stats;
      n_vars = cs.problem.nvars;
      n_hard = cs.n_hard;
      n_clauses = cs.n_clauses;
      solve_time_s = dt;
      max_model;
    }
  in
  match result with
  | Sat (model, stats) ->
    mk Solved stats
      (Some (build_schedule log cs model))
      (Array.fold_left max 0 model)
  | Unsat stats -> mk Unsatisfiable stats None 0
  | Aborted stats -> mk SolverAborted stats None 0

(* ------------------------------------------------------------------ *)
(* Replay-run driver                                                   *)
(* ------------------------------------------------------------------ *)

type driver = {
  hooks : Interp.hooks;
  progress : unit -> int;  (** executed constrained events *)
}

(* least i in [lo, Array.length a) with a.(i) >= x *)
let lower_bound (a : int array) (lo : int) (x : int) : int =
  let lo = ref lo and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Is [c] interior to (or an endpoint of) a recorded interval of [tp] on
   [loc]?  Intervals are sorted by start; the ones that can contain [c]
   start at or before it, and the prefix-maximum end stops the backward
   walk at the first prefix that ends entirely before [c]. *)
let in_interval (tp : thread_plan) (loc : Loc.t) (c : int) : bool =
  let j = ref (lower_bound tp.tp_iv_lo 0 (c + 1) - 1) and found = ref false in
  while (not !found) && !j >= 0 && Array.unsafe_get tp.tp_iv_reach !j >= c do
    if Array.unsafe_get tp.tp_iv_hi !j >= c && Loc.equal tp.tp_iv_loc.(!j) loc then
      found := true;
    decr j
  done;
  !found

(** [?suppress:false] turns off blind-write suppression — the exploration
    mode: every executed step is then a legal program step, so any crash a
    flipped schedule reaches is a genuine interleaving of the program, not
    an artifact of replay-time write elision.  Replay of the {e recorded}
    schedule keeps the default ([true]); see the module doc.

    The driver is counter-indexed: each thread's constrained counters are
    searched from a cursor that follows the thread's monotone counter
    (falling back to a binary search if a consult ever goes backwards),
    executed events are a rank-indexed bit per event, and accesses arrive
    through the allocation-free [on_shared] hook — no gate consult, write
    check or access hashes or allocates an event (a notify write alone
    boxes its event, for the wakeup it steers). *)
let driver ?(suppress = true) (sch : schedule) ~(plan : Plan.t) : driver =
  let threads = sch.threads in
  let executed = Array.make (Array.length sch.order) false in
  let n_executed = ref 0 in
  let next_rank = ref 0 in
  let advance () =
    while !next_rank < Array.length executed && Array.unsafe_get executed !next_rank do
      incr next_rank
    done
  in
  (* tid -> index into [threads] (-1: no constrained event, no interval),
     memoized for the last tid asked *)
  let tids = Array.map (fun tp -> tp.tp_tid) threads in
  let last_tid = ref min_int and last_ti = ref (-1) in
  let thread_index tid =
    if tid <> !last_tid then begin
      let i = lower_bound tids 0 tid in
      last_tid := tid;
      last_ti := if i < Array.length tids && tids.(i) = tid then i else -1
    end;
    !last_ti
  in
  (* position of the first constrained counter >= c of thread [ti] *)
  let cursor = Array.make (Array.length threads) 0 in
  let seek ti c =
    let cs = threads.(ti).tp_cs in
    let i = Array.unsafe_get cursor ti in
    let i =
      if i > 0 && cs.(i - 1) >= c then lower_bound cs 0 c
      else if i < Array.length cs && cs.(i) < c then lower_bound cs (i + 1) c
      else i
    in
    Array.unsafe_set cursor ti i;
    i
  in
  (* rank of (tid, c) when constrained, else -1 - (index of its successor) *)
  let locate ti c =
    let tp = threads.(ti) in
    let i = seek ti c in
    if i < Array.length tp.tp_cs && tp.tp_cs.(i) = c then tp.tp_ranks.(i) else -1 - i
  in
  let last_notify : Log.evt option ref = ref None in
  let gate (pre : Event.pre) : bool =
    let ti = thread_index pre.tid in
    ti < 0
    ||
    let k = locate ti pre.c in
    if k >= 0 then k = !next_rank
    else
      (* unconstrained: wait for the thread-order predecessor's rank *)
      let i = -1 - k in
      i = 0 || !next_rank > threads.(ti).tp_ranks.(i - 1)
  in
  let on_shared ~tid ~c ~loc:_ ~kind:_ ~site:_ ~ghost =
    let ti = thread_index tid in
    (if ti >= 0 then
       let k = locate ti c in
       if k >= 0 then begin
         if not executed.(k) then begin
           executed.(k) <- true;
           incr n_executed
         end;
         advance ()
       end);
    if ghost = Event.NotifyWrite then last_notify := Some (tid, c)
  in
  let suppress_write (pre : Event.pre) : bool =
    suppress
    && pre.ghost = Event.NotGhost
    && (let ti = thread_index pre.tid in
        ti < 0 || (locate ti pre.c < 0 && not (in_interval threads.(ti) pre.loc pre.c)))
    && not (plan.guarded_site pre.site)
  in
  let syscall_override ~tid ~idx ~name:_ =
    Hashtbl.find_opt sch.syscall_values (tid, idx)
  in
  let choose_wakeup ~lock:_ ~waiters =
    match !last_notify with
    | Some n -> (
      match Hashtbl.find_opt sch.notify_pairs n with
      | Some w when List.mem w waiters -> w
      | _ -> List.hd waiters)
    | None -> List.hd waiters
  in
  {
    hooks =
      {
        Interp.gate = Some gate;
        observe = None;
        on_shared = Some on_shared;
        syscall_override = Some syscall_override;
        choose_wakeup = Some choose_wakeup;
        suppress_write = Some suppress_write;
        on_branch = None;
      };
    progress = (fun () -> !n_executed);
  }

(** Execute the replay run, on the register VM by default or on the tree
    walker (the driver hooks are engine-agnostic; the schedule constrains
    shared accesses, which both engines present identically). *)
let replay ?(max_steps = 10_000_000) ?suppress ?(engine = Vm.Bytecode)
    (program : Lang.Ast.program) ~(plan : Plan.t) (sch : schedule) :
    Interp.outcome =
  let d = driver ?suppress sch ~plan in
  let run =
    match engine with Vm.Tree -> Interp.run | Vm.Bytecode -> Vm.run
  in
  run ~hooks:d.hooks ~plan ~max_steps ~sched:(Sched.round_robin ()) program
