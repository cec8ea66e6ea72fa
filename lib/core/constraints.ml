(** Offline constraint generation (Section 4.2, Equation 1).

    Every recorded artifact is normalized to an {e interval} of same-thread
    accesses to one location:

    - a dep [w -> [rf..rl]] yields a read interval [[rf..rl]] with source
      [w], plus a singleton write interval for [w] when [w] is not already
      interior to a recorded interval of its thread;
    - an O1 range yields an interval [[lo..hi]] with its [w_in] source;
      referenced sources again materialize as singleton write intervals.

    The constraint system over the order variables [O(tid,c)]:

    + {b thread order}: for the referenced events of each thread, sorted by
      counter, [O(e_i) < O(e_{i+1})] — the intra-thread order the paper
      derives for free from thread-local counters;
    + {b dependence}: [O(src) < O(start I)] for each sourced interval;
    + {b initial-value reads}: an interval reading the virtual initialization
      write must end before the start of every write-bearing interval on the
      location (Java default initialization makes this a flow dependence on
      the allocation; the paper leaves it implicit);
    + {b noninterference}: Equation 1's disjunction, generalized from single
      dependences to intervals.  The {e protected zone} of an interval [I]
      that reads is [(zstart(I) .. end I]] where [zstart(I)] is its source
      write when it has one (the reads at the start of [I] obtain their value
      from that write, so no other write may land after it and before the
      last read), and [start I] otherwise (its reads see its own writes).
      For every write-bearing interval [J]:
      [O(end I) < O(start J) \/ O(end J) < O(zstart I)].
      When [zstart(I)] is itself an event of [J] it is necessarily [J]'s
      last write and no constraint is needed beyond the hard source edge.

    {b Exploration hooks.}  Schedule-space exploration (lib/explore)
    deliberately steps outside the recorded equivalence class: [~free]
    names interval start events whose incoming dependence pin is dropped
    (the interval becomes a {e sourceless} reader: noninterference still
    keeps writers out of its interior, but its read-from write may change),
    and [~extra_events] materializes additional order variables for
    accesses the log never referenced (they join their thread's order
    chain and participate in no clause, so the solver — and the replay
    gate — can place them).  With both empty the generated system is
    byte-identical to the unrelaxed one.

    {b Pruning.}  Materializing the noninterference disjunction for every
    (reader, writer) pair is quadratic per location and dominates both
    generation and solving at workload scale.  Most pairs are already
    ordered by the {e hard} constraints alone (thread order + recorded flow
    edges): if those entail one disjunct of a clause, every model of the
    hard part satisfies the clause and it can be dropped without changing
    the solution set (see DESIGN.md, "Noninterference pruning").  The
    default generator therefore precomputes, per order variable, a vector
    clock over the hard constraint graph and sweeps each location's
    write-bearing intervals in thread order: for a reader [I] and a writer
    thread [t], the writers hard-ordered before [zstart I] form a prefix of
    [t]'s interval sequence and the writers hard-ordered after [end I] form
    a suffix (both monotone in thread order), so two binary searches find
    the unordered {e gap} and only the gap produces clauses.  Same-thread
    gap writers reduce to unit hard edges ([O(end J) < O(zstart I)], the
    other disjunct being falsified by thread order), and surviving clauses
    are deduplicated.  [generate ~naive:true] keeps the original pairwise
    generator as a differential oracle: the two systems are equisatisfiable
    by construction, which test/test_replay.ml checks on random traces.

    Literals are ordered by the recording observation stamps so the original
    schedule acts as an implicit witness for the DPLL search. *)

open Runtime

type interval = {
  iv_loc : Loc.t;
  start_e : Log.evt;
  end_e : Log.evt;
  writes : bool;
  reads : bool;
  src : Log.evt option option;
      (** [None]: no incoming dependence; [Some None]: virtual init write;
          [Some (Some w)]: recorded write *)
  obs : int;
  src_obs : int;  (** access-clock stamp of the recorded source write, or 0 *)
}

type gen_stats = {
  n_pairs : int;
      (** (reader, writer) pairs subject to noninterference — what the
          naive generator would emit as clauses *)
  n_pruned : int;   (** pairs dropped: one disjunct entailed by hard constraints *)
  n_unit : int;     (** pairs reduced to a hard edge by thread order *)
  n_dedup : int;    (** duplicate clauses dropped *)
  gen_time_s : float;
}

type t = {
  problem : Dlsolver.Idl.problem;
  vars : (Log.evt, int) Hashtbl.t;
  evts : Log.evt array;          (** var index -> event *)
  intervals : interval list;
  n_hard : int;
  n_clauses : int;
  gen_stats : gen_stats;
  hint : int array option;
      (** topological order of the hard constraint DAG — a model of the
          hard atoms, seeding the solver's potentials ([None] on a cyclic
          hard graph, i.e. an unsatisfiable system) *)
}

module LMap = Loc.Map

let intervals_of_log (log : Log.t) : interval list =
  let base =
    List.map
      (fun (d : Log.dep) ->
        {
          iv_loc = d.loc;
          start_e = d.rf;
          end_e = (fst d.rf, d.rl_c);
          writes = false;
          reads = true;
          src = Some d.w;
          obs = d.dep_obs;
          src_obs = d.w_obs;
        })
      log.deps
    @ List.map
        (fun (r : Log.range) ->
          {
            iv_loc = r.loc;
            start_e = (r.rt, r.lo);
            end_e = (r.rt, r.hi);
            writes = r.has_write;
            reads = true;  (* only runs containing reads are recorded *)
            src = (if r.prefix_reads then Some r.w_in else None);
            obs = r.rng_obs;
            src_obs = r.w_obs;
          })
        log.ranges
  in
  (* group by location to materialize referenced writes *)
  let by_loc =
    List.fold_left
      (fun m iv ->
        LMap.update iv.iv_loc
          (fun prev -> Some (iv :: Option.value ~default:[] prev))
          m)
      LMap.empty base
  in
  let singletons =
    LMap.fold
      (fun loc ivs acc ->
        let covered (t, c) =
          List.exists
            (fun iv ->
              fst iv.start_e = t && snd iv.start_e <= c && c <= snd iv.end_e
              && Loc.equal iv.iv_loc loc)
            ivs
        in
        let srcs =
          List.filter_map
            (fun iv ->
              match iv.src with Some (Some w) -> Some (w, iv.src_obs) | _ -> None)
            ivs
        in
        let seen = Hashtbl.create 8 in
        List.fold_left
          (fun acc (w, w_obs) ->
            if Hashtbl.mem seen w || covered w then acc
            else begin
              Hashtbl.add seen w ();
              {
                iv_loc = loc;
                start_e = w;
                end_e = w;
                writes = true;
                reads = false;
                src = None;
                obs = w_obs;  (* the write's own recorded stamp *)
                src_obs = 0;
                }
              :: acc
            end)
          acc srcs)
      by_loc []
  in
  base @ singletons

(* ------------------------------------------------------------------ *)
(* Hard-graph reachability (vector clocks)                             *)
(* ------------------------------------------------------------------ *)

(* [vc.(v * nthreads + slot tid)] is the greatest counter of a tid-event
   known to hard-precede (or be) variable [v].  Since thread order chains
   every variable-bearing event of a thread, [(t, c)] hard-precedes [v] iff
   that entry is >= c (and the events differ).  Computed by one topological
   pass over the hard edges; [None] when the hard graph is cyclic (the
   problem is then unsatisfiable whatever clauses we emit, so pruning
   soundness is moot and the caller emits without pruning). *)
type reach = {
  vc : int array;
  nthreads : int;
  slot_of : (int, int) Hashtbl.t;  (* tid -> slot *)
}

let compute_reach (evts : Log.evt array) (edges : (int * int) list) : reach option =
  let nv = Array.length evts in
  let slot_of = Hashtbl.create 16 in
  Array.iter
    (fun (t, _) ->
      if not (Hashtbl.mem slot_of t) then Hashtbl.add slot_of t (Hashtbl.length slot_of))
    evts;
  let nt = Hashtbl.length slot_of in
  let adj = Array.make nv [] in
  let indeg = Array.make nv 0 in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      indeg.(b) <- indeg.(b) + 1)
    edges;
  let vc = Array.make (nv * nt) min_int in
  let q = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v q) indeg;
  let processed = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    incr processed;
    (* own entry *)
    let t, c = evts.(v) in
    let own = (v * nt) + Hashtbl.find slot_of t in
    if vc.(own) < c then vc.(own) <- c;
    List.iter
      (fun w ->
        for s = 0 to nt - 1 do
          if vc.((w * nt) + s) < vc.((v * nt) + s) then
            vc.((w * nt) + s) <- vc.((v * nt) + s)
        done;
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w q)
      adj.(v)
  done;
  if !processed < nv then None else Some { vc; nthreads = nt; slot_of }

(* Topological order of the hard constraint DAG: the returned array
   strictly increases along every edge, so it is a model of the hard atoms
   and doubles as a potential seed for the solver; [None] on a cycle.
   Ready vertices are released by ascending [prio] (the observation-stamp
   estimate of each event), so the order tracks the recorded schedule
   wherever the hard constraints leave slack — making it a good witness
   for the clauses too, not just the hard part.  Positions are spread by a
   slack factor so that the relaxation cascades triggered by asserting
   clause literals against the seeded potentials die out quickly instead
   of rippling through zero-slack chains. *)
module PQ = Set.Make (struct
  type t = int * int  (* priority, vertex *)

  let compare = compare
end)

let topo_hint (nv : int) (prio : int array) (edges : (int * int) list) :
    int array option =
  let adj = Array.make (max 1 nv) [] in
  let indeg = Array.make (max 1 nv) 0 in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      indeg.(b) <- indeg.(b) + 1)
    edges;
  let hint = Array.make (max 1 nv) 0 in
  let q = ref PQ.empty in
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then q := PQ.add (prio.(v), v) !q
  done;
  let n = ref 0 in
  while not (PQ.is_empty !q) do
    let ((_, v) as e) = PQ.min_elt !q in
    q := PQ.remove e !q;
    hint.(v) <- 16 * !n;
    incr n;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then q := PQ.add (prio.(w), w) !q)
      adj.(v)
  done;
  if !n < nv then None else Some hint

(* Per-event global-time estimate from the log's access-clock anchors:
   deps stamp their last read and source write, ranges their endpoints and
   feeding write — every event appearing in a constraint atom is stamped
   exactly, so the topological tie-break reconstructs the recorded
   schedule at those events.  Counters between anchors interpolate
   linearly (scaled to keep integer precision) and counters outside the
   sampled span extrapolate by one unit per step. *)
let event_time_estimator (log : Log.t) : Log.evt -> int =
  let scale = 1024 in
  let tbl : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let anchor t c o =
    match Hashtbl.find_opt tbl t with
    | Some l -> l := (c, o) :: !l
    | None -> Hashtbl.add tbl t (ref [ (c, o) ])
  in
  List.iter
    (fun (d : Log.dep) ->
      anchor (fst d.rf) d.rl_c d.dep_obs;
      match d.w with Some (t, c) -> anchor t c d.w_obs | None -> ())
    log.deps;
  List.iter
    (fun (r : Log.range) ->
      anchor r.rt r.hi r.rng_obs;
      anchor r.rt r.lo r.lo_obs;
      match r.w_in with Some (t, c) -> anchor t c r.w_obs | None -> ())
    log.ranges;
  let arrs : (int, (int * int) array) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun t l ->
      let a = Array.of_list (List.sort_uniq compare !l) in
      (* force stamps monotone in the counter (duplicate counters keep the
         later stamp after sort_uniq; noisy stamps are clamped) *)
      for i = 1 to Array.length a - 1 do
        let c, o = a.(i) in
        let _, o' = a.(i - 1) in
        if o < o' then a.(i) <- (c, o')
      done;
      Hashtbl.replace arrs t a)
    tbl;
  fun (t, c) ->
    match Hashtbl.find_opt arrs t with
    | None -> 0
    | Some a ->
      let n = Array.length a in
      (* greatest index with counter <= c *)
      let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if fst a.(mid) <= c then (best := mid; lo := mid + 1) else hi := mid - 1
      done;
      if !best < 0 then (snd a.(0) * scale) - (fst a.(0) - c)
      else if !best = n - 1 then (snd a.(n - 1) * scale) + (c - fst a.(n - 1))
      else begin
        let c0, o0 = a.(!best) and c1, o1 = a.(!best + 1) in
        if c = c0 then o0 * scale
        else (o0 * scale) + ((o1 - o0) * scale * (c - c0) / (c1 - c0))
      end

(* greatest counter of a [tid] event hard-preceding (or equal to) var [v];
   [min_int] when reachability is unavailable *)
let reach_entry (r : reach option) (v : int) (tid : int) : int =
  match r with
  | None -> min_int
  | Some r -> (
    match Hashtbl.find_opt r.slot_of tid with
    | None -> min_int
    | Some s -> r.vc.((v * r.nthreads) + s))

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let generate ?(naive = false) ?(free = []) ?(extra_events = []) (log : Log.t) : t =
  let t_start = Clock.now_s () in
  let intervals = intervals_of_log log in
  (* freed interval starts: their source pin is dropped (exploration) *)
  let freed : (Log.evt, unit) Hashtbl.t = Hashtbl.create (max 4 (List.length free)) in
  List.iter (fun e -> Hashtbl.replace freed e ()) free;
  let eff_src (iv : interval) : Log.evt option option =
    match iv.src with
    | Some _ when Hashtbl.mem freed iv.start_e -> None
    | s -> s
  in
  (* variable per referenced event *)
  let vars : (Log.evt, int) Hashtbl.t = Hashtbl.create 1024 in
  let evts_rev = ref [] in
  let var (e : Log.evt) : int =
    match Hashtbl.find_opt vars e with
    | Some v -> v
    | None ->
      let v = Hashtbl.length vars in
      Hashtbl.add vars e v;
      evts_rev := e :: !evts_rev;
      v
  in
  List.iter
    (fun iv ->
      ignore (var iv.start_e);
      ignore (var iv.end_e);
      match iv.src with Some (Some w) -> ignore (var w) | _ -> ())
    intervals;
  (* exploration events: a variable in the thread-order chain, no clauses *)
  List.iter (fun e -> ignore (var e)) extra_events;
  let evts = Array.of_list (List.rev !evts_rev) in
  let est = event_time_estimator log in
  let prio = Array.map est evts in
  let hard = ref [] in
  let hard_edges = ref [] in  (* (var, var) mirror of [hard], feeds reachability *)
  let add_hard a b =
    hard := Dlsolver.Idl.lt a b :: !hard;
    hard_edges := (a, b) :: !hard_edges
  in
  (* thread order *)
  let by_tid : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (t, c) _ ->
      match Hashtbl.find_opt by_tid t with
      | Some l -> l := c :: !l
      | None -> Hashtbl.add by_tid t (ref [ c ]))
    vars;
  Hashtbl.iter
    (fun t cs ->
      let sorted = List.sort_uniq compare !cs in
      let rec chain = function
        | a :: (b :: _ as rest) ->
          add_hard (var (t, a)) (var (t, b));
          chain rest
        | _ -> ()
      in
      chain sorted)
    by_tid;
  (* dependence edges *)
  let by_loc =
    List.fold_left
      (fun m iv ->
        LMap.update iv.iv_loc (fun p -> Some (iv :: Option.value ~default:[] p)) m)
      LMap.empty intervals
  in
  LMap.iter
    (fun _ ivs ->
      List.iter
        (fun iv ->
          match eff_src iv with
          | Some (Some w) -> add_hard (var w) (var iv.start_e)
          | Some None | None -> ())
        ivs)
    by_loc;
  let clauses = ref [] in
  let n_clause_acc = ref 0 in
  let n_pairs = ref 0 and n_pruned = ref 0 and n_unit = ref 0 and n_dedup = ref 0 in
  let inside (t, c) (j : interval) =
    fst j.start_e = t && snd j.start_e <= c && c <= snd j.end_e
  in
  let emit_clause ~iobs ~jobs lits =
    clauses := (max iobs jobs, lits) :: !clauses;
    incr n_clause_acc
  in
  if naive then
    (* the original pairwise generator, kept as the differential oracle for
       the pruning sweep below *)
    LMap.iter
      (fun _ ivs ->
        let sorted = List.sort (fun a b -> compare a.obs b.obs) ivs in
        List.iter
          (fun i ->
            if i.reads then
              List.iter
                (fun j ->
                  if j != i && j.writes then
                    match eff_src i with
                    | Some None ->
                      (* initial-value reads precede every write on the loc *)
                      add_hard (var i.end_e) (var j.start_e)
                    | Some (Some w) ->
                      if not (inside w j) then begin
                        incr n_pairs;
                        (* the first literal matches the original order when i
                           was observed before j *)
                        let lits =
                          if i.obs <= j.obs then
                            [| Dlsolver.Idl.lt (var i.end_e) (var j.start_e);
                               Dlsolver.Idl.lt (var j.end_e) (var w) |]
                          else
                            [| Dlsolver.Idl.lt (var j.end_e) (var w);
                               Dlsolver.Idl.lt (var i.end_e) (var j.start_e) |]
                        in
                        emit_clause ~iobs:i.obs ~jobs:j.obs lits
                      end
                    | None ->
                      if
                        fst i.start_e <> fst j.start_e
                        && not (Hashtbl.mem freed i.start_e)
                      then begin
                        incr n_pairs;
                        let lits =
                          if i.obs <= j.obs then
                            [| Dlsolver.Idl.lt (var i.end_e) (var j.start_e);
                               Dlsolver.Idl.lt (var j.end_e) (var i.start_e) |]
                          else
                            [| Dlsolver.Idl.lt (var j.end_e) (var i.start_e);
                               Dlsolver.Idl.lt (var i.end_e) (var j.start_e) |]
                        in
                        emit_clause ~iobs:i.obs ~jobs:j.obs lits
                      end
                )
                sorted)
          sorted)
      by_loc
  else begin
    (* ---- pruned sweep ---- *)
    (* per location: write-bearing intervals per thread, in thread order *)
    let writers_of ivs : (int * interval array * int array) list =
      let tbl : (int, interval list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun j ->
          if j.writes then begin
            let t = fst j.start_e in
            match Hashtbl.find_opt tbl t with
            | Some l -> l := j :: !l
            | None -> Hashtbl.add tbl t (ref [ j ])
          end)
        ivs;
      Hashtbl.fold (fun t l acc -> (t, !l) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (t, l) ->
             let ws =
               Array.of_list
                 (List.sort (fun a b -> compare (snd a.start_e) (snd b.start_e)) l)
             in
             (* running max of end counters: recorded intervals are disjoint
                per thread so ends ascend, but synthetic logs may nest them —
                pruning against the prefix max stays sound either way *)
             let pmax = Array.make (Array.length ws) min_int in
             let acc = ref min_int in
             Array.iteri
               (fun k j ->
                 if snd j.end_e > !acc then acc := snd j.end_e;
                 pmax.(k) <- !acc)
               ws;
             (t, ws, pmax))
    in
    (* compressed initial-value constraints: one edge to the first write
       interval of each thread; thread order entails the edges to the rest *)
    LMap.iter
      (fun _ ivs ->
        let writers = writers_of ivs in
        List.iter
          (fun i ->
            if i.reads && eff_src i = Some None then
              List.iter
                (fun (_, ws, _) ->
                  (* first writer that is not the reader itself: the edge to
                     it entails (with thread order) the edges to every later
                     writer of the thread, which is all the naive generator
                     emits for them *)
                  let k = ref 0 in
                  while !k < Array.length ws && ws.(!k) == i do incr k done;
                  if !k < Array.length ws then
                    add_hard (var i.end_e) (var ws.(!k).start_e))
                writers)
          ivs)
      by_loc;
    (* reachability over the hard constraints accumulated so far; hard
       edges added later (unit reductions) only make pruning conservative *)
    let reach = compute_reach evts !hard_edges in
    let seen_clause : (int * int * int * int, unit) Hashtbl.t = Hashtbl.create 4096 in
    let seen_unit : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
    (* binary searches over a writer array [ws] (thread order) *)
    let prefix_count (pmax : int array) (bound : int) =
      (* #writers whose end counter (and every earlier one's) is <= bound,
         so their zone exit is implied by thread order *)
      let lo = ref 0 and hi = ref (Array.length pmax) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if pmax.(mid) <= bound then lo := mid + 1 else hi := mid
      done;
      !lo
    and suffix_start (ws : interval array) ~(t1 : int) ~(c_end_i : int) =
      (* first writer whose start is implied after end_e of the reader *)
      let lo = ref 0 and hi = ref (Array.length ws) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if reach_entry reach (var ws.(mid).start_e) t1 >= c_end_i then hi := mid
        else lo := mid + 1
      done;
      !lo
    in
    LMap.iter
      (fun _ ivs ->
        let writers = writers_of ivs in
        List.iter
          (fun i ->
            (* a freed interval is fully unpinned: its reads no longer claim
               a consistent source, so it emits no reader-side interference
               (it still interferes as a writer with other intervals'
               zones) *)
            if
              i.reads
              && eff_src i <> Some None
              && not (Hashtbl.mem freed i.start_e)
            then begin
              let t1 = fst i.start_e in
              let c_end_i = snd i.end_e in
              let zstart_e, w_opt =
                match eff_src i with
                | Some (Some w) -> (w, Some w)
                | _ -> (i.start_e, None)
              in
              let v_zstart = var zstart_e in
              List.iter
                (fun (t2, ws, pmax) ->
                  if not (w_opt = None && t2 = t1) then begin
                    let m = Array.length ws in
                    (* candidate pairs the naive generator would emit *)
                    let cands =
                      let self = if i.writes && t2 = t1 then 1 else 0 in
                      let w_inside =
                        match w_opt with
                        | Some w when fst w = t2 ->
                          if Array.exists (fun j -> inside w j) ws then 1 else 0
                        | _ -> 0
                      in
                      m - self - w_inside
                    in
                    n_pairs := !n_pairs + cands;
                    let pfx = prefix_count pmax (reach_entry reach v_zstart t2) in
                    let sfx = ref (suffix_start ws ~t1 ~c_end_i) in
                    (* a writer starting at the reader's own end event (same
                       (t, c) — possible in synthetic logs with nested
                       intervals) reaches [end I] by the "or be" case of the
                       vector clock, but O(end I) < O(start J) is then false
                       rather than entailed: keep such boundary writers in
                       the emission window *)
                    while !sfx < m && ws.(!sfx).start_e = i.end_e do incr sfx done;
                    let sfx = !sfx in
                    let handled = ref 0 in
                    for jx = pfx to sfx - 1 do
                      let j = ws.(jx) in
                      let skip =
                        j == i
                        || match w_opt with Some w -> inside w j | None -> false
                      in
                      if not skip then begin
                        incr handled;
                        match w_opt with
                        | Some w
                          when t2 = t1 && snd j.end_e < snd i.start_e ->
                          (* thread order falsifies O(end i) < O(start j):
                             the clause reduces to the unit O(end j) < O(w) *)
                          let key = (var j.end_e, var w) in
                          if not (Hashtbl.mem seen_unit key) then begin
                            Hashtbl.add seen_unit key ();
                            add_hard (var j.end_e) (var w)
                          end;
                          incr n_unit
                        | _ ->
                          let v_zs = match w_opt with Some w -> var w | None -> v_zstart in
                          let a1 = Dlsolver.Idl.lt (var i.end_e) (var j.start_e) in
                          let a2 = Dlsolver.Idl.lt (var j.end_e) v_zs in
                          let key =
                            if (a1.u, a1.v) <= (a2.u, a2.v) then (a1.u, a1.v, a2.u, a2.v)
                            else (a2.u, a2.v, a1.u, a1.v)
                          in
                          if Hashtbl.mem seen_clause key then incr n_dedup
                          else begin
                            Hashtbl.add seen_clause key ();
                            let lits =
                              if i.obs <= j.obs then [| a1; a2 |] else [| a2; a1 |]
                            in
                            emit_clause ~iobs:i.obs ~jobs:j.obs lits
                          end
                      end
                    done;
                    n_pruned := !n_pruned + (cands - !handled)
                  end)
                writers
            end)
          ivs)
      by_loc
  end;
  let clause_arr =
    List.sort (fun (o1, _) (o2, _) -> compare o1 o2) !clauses
    |> List.map snd |> Array.of_list
  in
  let hint = topo_hint (Array.length evts) prio !hard_edges in
  (* Literal ordering: the hint is a model of the hard atoms that tracks
     the recorded schedule; placing a hint-true literal first makes the
     solver's first descent assert a set of literals that the hint itself
     satisfies — conflicts can only come from clauses whose both literals
     the hint falsifies.  The observation-stamp order chosen at emission
     stays as the tie-break. *)
  (match hint with
  | Some h ->
    let truth (a : Dlsolver.Idl.atom) = h.(a.u) - h.(a.v) <= a.k in
    Array.iteri
      (fun i cl ->
        if Array.length cl = 2 && (not (truth cl.(0))) && truth cl.(1) then
          clause_arr.(i) <- [| cl.(1); cl.(0) |])
      clause_arr
  | None -> ());
  let problem =
    { Dlsolver.Idl.nvars = Hashtbl.length vars; hard = List.rev !hard; clauses = clause_arr }
  in
  {
    problem;
    vars;
    evts;
    intervals;
    n_hard = List.length problem.hard;
    n_clauses = Array.length clause_arr;
    hint;
    gen_stats =
      {
        n_pairs = !n_pairs;
        n_pruned = !n_pruned;
        n_unit = !n_unit;
        n_dedup = !n_dedup;
        gen_time_s = Clock.now_s () -. t_start;
      };
  }
