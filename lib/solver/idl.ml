(** DPLL(T) solver for Integer Difference Logic.

    This is the offline scheduling engine of the paper (Section 4.2): the
    replay constraint system is a conjunction of difference atoms
    [O(a) < O(b)] plus binary disjunctions of such atoms (noninterference).
    Z3 discharges it via its IDL theory; we implement the same decision
    procedure — boolean search over the disjunctions with an incremental
    negative-cycle theory solver ({!Diff_graph}) checking each candidate.

    The search is conflict-driven: clauses are decided in order, and when a
    clause has no theory-consistent literal the negative-cycle tags reported
    by {!Diff_graph} name the decisions the conflict actually depends on, so
    the search backjumps directly to the deepest of them instead of undoing
    every intervening decision (conflict-directed backjumping; each decision
    carries the culprit set its subtree's failures accumulated, which keeps
    the jump complete).  Within a clause, literals follow the caller's
    order until the clause itself conflicts; a re-decision of a conflicted
    clause orders its literals by ascending activity (a score bumped at
    every theory conflict), demoting literals that keep failing.  Clauses
    that never conflict — and therefore the whole search on a well-ordered
    input — preserve the caller's literal order, so the
    recorded-observation witness ordering of the constraint generator
    still solves with zero backtracking.  Every
    decision remembers its resume index into that ordering: returning to a
    clause after a backjump continues with the next untried literal rather
    than re-asserting ones that already failed there. *)

type atom = { u : int; v : int; k : int }  (** x_u - x_v <= k *)

(** [lt a b] encodes the strict order [x_a < x_b] over integers. *)
let lt a b : atom = { u = a; v = b; k = -1 }

(** [le a b] encodes [x_a <= x_b]. *)
let le a b : atom = { u = a; v = b; k = 0 }

type problem = {
  nvars : int;
  hard : atom list;            (** asserted unconditionally *)
  clauses : atom array array;  (** each must have >= 1 satisfied atom *)
}

type stats = {
  decisions : int;
  backtracks : int;          (** decision levels undone *)
  theory_conflicts : int;
  theory_adds : int;         (** constraints pushed into the theory solver *)
  max_depth : int;           (** deepest decision stack *)
  final_edges : int;
}

type result =
  | Sat of int array * stats   (** a satisfying assignment of the x variables *)
  | Unsat of stats
  | Aborted of stats           (** work or wall-clock budget exhausted *)

type budget = {
  max_backtracks : int;      (** decision levels undone before giving up *)
  max_conflicts : int;       (** theory conflicts before giving up *)
  max_time_s : float;
      (** seconds of monotonic wall time before giving up: process CPU
          time would also count other pool domains' work *)
}

let default_budget =
  { max_backtracks = 2_000_000; max_conflicts = max_int; max_time_s = infinity }

exception Give_up
exception Unsat_now

module ISet = Set.Make (Int)

(* a decision: clause [ci] satisfied by literal [perm.(lit)]; [culprits] are
   the clause indices that failed literals at this level depended on *)
type entry = {
  ci : int;
  perm : int array;
  mutable lit : int;
  mutable culprits : ISet.t;
}

let solve ?max_backtracks ?(budget = default_budget) ?hint (p : problem) : result =
  let budget =
    match max_backtracks with
    | Some b -> { budget with max_backtracks = b }
    | None -> budget
  in
  let g = Diff_graph.create (max 1 p.nvars) in
  (* seeding the potentials with a model of (a subset of) the hard atoms —
     e.g. a topological order of the constraint DAG — makes their assertion
     relaxation-free instead of quadratic *)
  (match hint with Some h -> Diff_graph.seed g h | None -> ());
  let decisions = ref 0 and backtracks = ref 0 and conflicts = ref 0 in
  let adds = ref 0 and max_depth = ref 0 in
  (* bechamel's monotonic clock, as [Light_core.Clock], which this library
     cannot depend on *)
  let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9 in
  let t_start = now_s () in
  let stats () =
    {
      decisions = !decisions;
      backtracks = !backtracks;
      theory_conflicts = !conflicts;
      theory_adds = !adds;
      max_depth = !max_depth;
      final_edges = Diff_graph.num_edges g;
    }
  in
  let check_budget () =
    if
      !backtracks > budget.max_backtracks
      || !conflicts > budget.max_conflicts
      || (budget.max_time_s < infinity && now_s () -. t_start > budget.max_time_s)
    then raise Give_up
  in
  let hard_ok =
    List.for_all
      (fun (a : atom) ->
        incr adds;
        match Diff_graph.add_constraint g ~u:a.u ~v:a.v ~k:a.k ~tag:(-1) with
        | Ok () -> true
        | Error _ -> incr conflicts; false)
      p.hard
  in
  if not hard_ok then Unsat (stats ())
  else begin
    let clauses = p.clauses in
    let n = Array.length clauses in
    (* activity: bumped for the endpoint variables of conflicting literals.
       Activity only reorders a clause that has itself conflicted before —
       every other clause keeps the caller's literal order, so the
       recorded-observation witness ordering still drives a conflict-free
       search.  When a previously-conflicted clause is re-decided, its
       literals are tried in ASCENDING activity: the literal whose
       variables keep appearing in conflicts is demoted behind its
       alternatives instead of being re-tried (and re-failed) first. *)
    let act = Array.make (max 1 p.nvars) 0.0 in
    let act_inc = ref 1.0 in
    let bump x =
      act.(x) <- act.(x) +. !act_inc;
      if act.(x) > 1e100 then begin
        Array.iteri (fun i a -> act.(i) <- a *. 1e-100) act;
        act_inc := !act_inc *. 1e-100
      end
    in
    let conflicted = Array.make (max 1 n) false in
    let order_lits (ci : int) (clause : atom array) : int array =
      let len = Array.length clause in
      let perm = Array.init len (fun j -> j) in
      if len > 1 && conflicted.(ci) then begin
        let score j = act.(clause.(j).u) +. act.(clause.(j).v) in
        let lst = Array.to_list perm in
        let sorted =
          List.stable_sort (fun a b -> compare (score a) (score b)) lst
        in
        List.iteri (fun idx j -> perm.(idx) <- j) sorted
      end;
      perm
    in
    (* decision stack, sorted by clause index (clauses decided in order) *)
    let stack : entry option array = Array.make (max 1 n) None in
    let sp = ref 0 in
    let pos = Array.make (max 1 n) (-1) in  (* clause index -> stack slot *)
    let all_stack_cis () =
      let s = ref ISet.empty in
      for d = 0 to !sp - 1 do
        match stack.(d) with Some e -> s := ISet.add e.ci !s | None -> ()
      done;
      !s
    in
    let model () =
      let m = Array.init p.nvars (fun i -> Diff_graph.potential g i) in
      Sat (m, stats ())
    in
    let i = ref 0 in
    try
      while !i < n do
        (* decide clause [ci] starting at literal slot [start] of [perm],
           with failure reasons [culprits] accumulated so far; on conflict,
           backjump and loop with the target's stored resume state *)
        let ci = ref !i
        and perm = ref (order_lits !i clauses.(!i))
        and start = ref 0
        and culprits = ref ISet.empty in
        let decided = ref false in
        while not !decided do
          let clause = clauses.(!ci) in
          let len = Array.length clause in
          let j = ref !start in
          let chosen = ref (-1) in
          while !chosen < 0 && !j < len do
            let a = clause.((!perm).(!j)) in
            Diff_graph.push g;
            incr adds;
            (match Diff_graph.add_constraint g ~u:a.u ~v:a.v ~k:a.k ~tag:!ci with
            | Ok () -> chosen := !j
            | Error c ->
              incr conflicts;
              Diff_graph.pop g;
              conflicted.(!ci) <- true;
              bump a.u;
              bump a.v;
              act_inc := !act_inc *. 1.03;
              (* conflict reasons: every decision named by the cycle; an
                 incomplete cycle walk degrades to blaming every decision
                 (chronological backtracking), preserving completeness *)
              let reasons =
                if c.Diff_graph.complete then
                  List.fold_left
                    (fun s t -> if t >= 0 && t <> !ci then ISet.add t s else s)
                    ISet.empty c.Diff_graph.tags
                else all_stack_cis ()
              in
              culprits := ISet.union !culprits reasons;
              check_budget ();
              incr j)
          done;
          if !chosen >= 0 then begin
            let e = { ci = !ci; perm = !perm; lit = !chosen; culprits = !culprits } in
            stack.(!sp) <- Some e;
            pos.(!ci) <- !sp;
            incr sp;
            if !sp > !max_depth then max_depth := !sp;
            incr decisions;
            (* conflict-free searches over large graphs would otherwise
               never observe the wall-clock budget *)
            check_budget ();
            i := !ci + 1;
            decided := true
          end
          else begin
            (* clause [!ci] has no consistent literal: backjump to the
               deepest decision the failure depends on *)
            let on_stack = ISet.filter (fun c -> c < n && pos.(c) >= 0) !culprits in
            if ISet.is_empty on_stack then raise Unsat_now;
            let target_ci = ISet.max_elt on_stack in
            let target_slot = pos.(target_ci) in
            (* discard decisions above the target *)
            while !sp - 1 > target_slot do
              decr sp;
              (match stack.(!sp) with
              | Some e -> pos.(e.ci) <- -1
              | None -> assert false);
              stack.(!sp) <- None;
              Diff_graph.pop g;
              incr backtracks
            done;
            (* reopen the target: undo its assertion, inherit the reasons,
               and resume at its next untried literal *)
            let e = match stack.(target_slot) with Some e -> e | None -> assert false in
            decr sp;
            stack.(target_slot) <- None;
            pos.(e.ci) <- -1;
            Diff_graph.pop g;
            incr backtracks;
            check_budget ();
            ci := e.ci;
            perm := e.perm;
            start := e.lit + 1;
            culprits := ISet.remove e.ci (ISet.union e.culprits !culprits)
          end
        done
      done;
      model ()
    with
    | Unsat_now -> Unsat (stats ())
    | Give_up -> Aborted (stats ())
  end
