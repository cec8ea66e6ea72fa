(* End-to-end determinism: record -> constraint generation -> IDL solving ->
   gated replay -> Theorem-1 oracle.  This is the repository's core
   correctness property, exercised over a family of programs covering the
   whole feature surface, many schedules, and all recorder variants —
   including regressions for historical soundness bugs. *)

open Light_core
open Runtime

let parse src = Lang.Check.validate_exn (Lang.Parser.parse_program src)

let roundtrip ?(seed = 1) ?(stickiness = 4) ?(variant = Light.v_both) p =
  Light.record_and_replay ~variant ~sched:(Sched.sticky ~seed ~stickiness) p

(* The seeds x variants matrix fans out across the engine's batch driver —
   this both exercises the engine under tier-1 and cuts the suite's
   wall-clock when LIGHT_JOBS > 1.  Failure messages come from job labels,
   so diagnostics are identical for any pool size. *)
let assert_faithful name p ~seeds ~variants =
  Engine.Batch.grid ~variants ~seeds
    ~sched:(fun ~seed -> Sched.sticky ~seed ~stickiness:4)
    ~label:name p
  |> Engine.Batch.roundtrips
  |> List.iter (fun (rt : Engine.Batch.roundtrip) ->
         match rt.rt_result with
         | Error e -> Alcotest.failf "%s: solver: %s" rt.rt_job.label e
         | Ok (r, rr) ->
           (match rr.replay_outcome.status with
           | Interp.AllFinished -> ()
           | Deadlock _ -> Alcotest.failf "%s: replay deadlock" rt.rt_job.label
           | GateStuck _ -> Alcotest.failf "%s: replay gate stuck" rt.rt_job.label
           | StepLimit -> Alcotest.failf "%s: replay step limit" rt.rt_job.label);
           if rr.faithful <> [] then
             Alcotest.failf "%s: %s" rt.rt_job.label (String.concat "; " rr.faithful);
           (* the solved schedule must be a valid linearization of the log *)
           match rr.report.schedule with
           | None -> Alcotest.failf "%s: no schedule" rt.rt_job.label
           | Some sch ->
             (match Validate.check ~zones:true r.log sch with
             | [] -> ()
             | vs ->
               Alcotest.failf "%s: invalid schedule: %s" rt.rt_job.label
                 (String.concat "; " vs)))

let all_variants = [ Light.v_basic; Light.v_o1; Light.v_both ]
let seeds = [ 1; 2; 3; 5; 8; 13 ]

(* ------------------------------------------------------------------ *)
(* Program family                                                      *)
(* ------------------------------------------------------------------ *)

let racy_fields = {|
  global x; global y;
  fn w1() { x = 1; y = x + 1; x = y * 2; }
  fn w2() { x = 5; y = x + 3; x = y * 7; }
  main { x = 0; y = 0; spawn a = w1(); spawn b = w2(); join a; join b; print x; print y; }
|}

let locked_counter = {|
  class C { n; } global c; global l;
  fn w(k) { while (k > 0) { sync (l) { c.n = c.n + 1; } k = k - 1; } }
  main { l = new C; c = new C; c.n = 0;
         spawn a = w(12); spawn b = w(12); join a; join b; print c.n; }
|}

let array_races = {|
  global arr;
  fn m(id, iters) {
    i = 0;
    while (i < iters) { arr[i % 4] = arr[(i + 1) % 4] + id; i = i + 1; }
  }
  main { arr = new[4];
         spawn a = m(1, 6); spawn b = m(2, 6); spawn c = m(3, 6);
         join a; join b; join c;
         x = arr[0] + arr[1] + arr[2] + arr[3]; print x; }
|}

let map_races = {|
  global tbl;
  fn m(id, iters) {
    i = 0;
    while (i < iters) {
      tbl{id % 2} = i;
      has = maphas(tbl, 1 - (id % 2));
      if (has) { w = tbl{1 - (id % 2)}; i = i + w - w; }
      i = i + 1;
    }
  }
  main { tbl = newmap; spawn a = m(1, 6); spawn b = m(2, 6); join a; join b; print 0; }
|}

let wait_notify = {|
  class C { flag; n; } global m;
  fn producer() { sync (m) { m.n = 42; m.flag = 1; notify m; } }
  fn consumer() { sync (m) { while (m.flag == 0) { wait m; } print m.n; } }
  main { m = new C; m.flag = 0; m.n = 0;
         spawn c = consumer(); spawn p = producer(); join c; join p; }
|}

let notifyall_two_waiters = {|
  class C { phase; n; } global m;
  fn waiter() { sync (m) { while (m.phase == 0) { wait m; } m.n = m.n + 1; } }
  main { m = new C; m.phase = 0; m.n = 0;
         spawn w1 = waiter(); spawn w2 = waiter();
         yield; yield;
         sync (m) { m.phase = 1; notifyall m; }
         join w1; join w2; print m.n; }
|}

let syscalls_prog = {|
  class B { n; m; } global shared;
  fn w(id, iters) {
    i = 0;
    while (i < iters) {
      shared.n = shared.n + id;
      t = @time(); r = @rand(10);
      shared.m = t + r;
      i = i + 1;
    }
  }
  main { shared = new B; shared.n = 0; shared.m = 0;
         spawn a = w(1, 6); spawn b = w(2, 6); join a; join b;
         print shared.n; print shared.m; }
|}

let crashing = {|
  class S { valid; data; } global sess; global sink;
  fn invalidate() { sess.data = null; sess.valid = 0; }
  fn access(r) {
    i = 0;
    while (i < r) {
      v = sess.valid;
      if (v == 1) { d = sess.data; x = d.valid; sink.valid = x; }
      i = i + 1;
    }
  }
  main { sess = new S; sink = new S; aux = new S; aux.valid = 9;
         sess.valid = 1; sess.data = aux;
         spawn a = access(4); spawn b = invalidate(); join a; join b; print 1; }
|}

let blind_writes = {|
  global x; global y;
  fn w1() { x = 10; x = 20; y = 1; }      // x=10 is blind if never read
  fn w2() { v = x; y = v; }
  main { x = 0; y = 0; spawn a = w1(); spawn b = w2(); join a; join b; print y; }
|}

let deep_calls = {|
  global acc;
  fn add(v) { acc = acc + v; return acc; }
  fn twice(v) { a = add(v); b = add(v); return a + b; }
  fn w(id) { r = twice(id); return r; }
  main { acc = 0; spawn a = w(3); spawn b = w(5); join a; join b; print acc; }
|}

let family =
  [
    ("racy-fields", racy_fields);
    ("locked-counter", locked_counter);
    ("array-races", array_races);
    ("map-races", map_races);
    ("wait-notify", wait_notify);
    ("notifyall", notifyall_two_waiters);
    ("syscalls", syscalls_prog);
    ("crashing", crashing);
    ("blind-writes", blind_writes);
    ("deep-calls", deep_calls);
  ]

let family_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          assert_faithful name (parse src) ~seeds ~variants:all_variants))
    family

(* ------------------------------------------------------------------ *)
(* Crash reproduction detail                                           *)
(* ------------------------------------------------------------------ *)

let test_crash_site_reproduced () =
  let p = parse crashing in
  let found = ref false in
  for seed = 1 to 40 do
    if not !found then begin
      let sched = Sched.sticky ~seed ~stickiness:2 in
      let r = Light.record ~sched p in
      if r.outcome.crashes <> [] then begin
        found := true;
        match Light.replay r with
        | Error e -> Alcotest.failf "solver: %s" e
        | Ok rr ->
          let key (c : Interp.crash) = (c.tid, c.site, c.c, c.msg) in
          Alcotest.(check bool) "identical crash (thread, site, counter, message)" true
            (List.map key r.outcome.crashes = List.map key rr.replay_outcome.crashes)
      end
    end
  done;
  Alcotest.(check bool) "a crashing schedule was found" true !found

(* ------------------------------------------------------------------ *)
(* Constraint generation (Section 4.2 worked example)                  *)
(* ------------------------------------------------------------------ *)

let test_constraints_shape () =
  let p = parse racy_fields in
  let r = Light.record ~variant:Light.v_basic ~sched:(Sched.sticky ~seed:1 ~stickiness:4) p in
  let cs = Light_core.Constraints.generate r.log in
  Alcotest.(check bool) "has variables" true (cs.problem.nvars > 0);
  Alcotest.(check bool) "has hard atoms" true (cs.n_hard > 0);
  (* every interval endpoint has a variable *)
  List.iter
    (fun (iv : Light_core.Constraints.interval) ->
      Alcotest.(check bool) "start var" true (Hashtbl.mem cs.vars iv.start_e);
      Alcotest.(check bool) "end var" true (Hashtbl.mem cs.vars iv.end_e))
    cs.intervals

let test_schedule_respects_deps () =
  let p = parse racy_fields in
  let r = Light.record ~variant:Light.v_basic ~sched:(Sched.sticky ~seed:2 ~stickiness:4) p in
  let report = Light_core.Replayer.solve r.log in
  match report.schedule with
  | None -> Alcotest.fail "unsat"
  | Some sch ->
    let rank e = Hashtbl.find_opt sch.rank_of e in
    List.iter
      (fun (d : Log.dep) ->
        match d.w with
        | Some w -> (
          match rank w, rank d.rf with
          | Some rw, Some rr -> Alcotest.(check bool) "write before read" true (rw < rr)
          | _ -> Alcotest.fail "dep endpoints unranked")
        | None -> ())
      r.log.deps

(* ------------------------------------------------------------------ *)
(* Feasibility under replay of larger mixes                             *)
(* ------------------------------------------------------------------ *)

let torture = {|
  class Node { v; next; }
  class Box { n; m; }
  global shared; global arr; global tbl; global lk; global phase;
  fn mixer(id, iters) {
    local = new Box;
    local.n = id;
    i = 0;
    while (i < iters) {
      shared.n = shared.n + id;
      v = shared.m;
      if (v == null) { shared.m = id * 10; }
      arr[i % 4] = arr[(i + 1) % 4] + id;
      tbl{id % 2} = i;
      has = maphas(tbl, 1 - (id % 2));
      if (has) { w = tbl{1 - (id % 2)}; local.n = local.n + w; }
      sync (lk) { lk.n = lk.n + 1; sync (lk) { lk.m = lk.n * 2; } }
      t = @time(); r = @rand(10);
      local.n = local.n + t + r;
      i = i + 1;
    }
    return local.n;
  }
  fn waiter() {
    sync (lk) { while (phase == 0) { wait lk; } }
    shared.n = shared.n * 2;
  }
  main {
    shared = new Box; shared.n = 0; shared.m = null;
    arr = new[4]; tbl = newmap;
    lk = new Box; lk.n = 0; lk.m = 0; phase = 0;
    spawn w1 = waiter(); spawn w2 = waiter();
    spawn m1 = mixer(1, 8); spawn m2 = mixer(2, 8); spawn m3 = mixer(3, 8);
    join m1; join m2; join m3;
    sync (lk) { phase = 1; notifyall lk; }
    join w1; join w2;
    print shared.n; print lk.m;
    x = arr[0] + arr[1] + arr[2] + arr[3]; print x;
  }
|}

let test_torture () =
  assert_faithful "torture" (parse torture) ~seeds:[ 1; 2; 3; 4; 5 ]
    ~variants:all_variants

(* qcheck: determinism across random (seed, stickiness, variant, program) *)
let config_gen =
  QCheck.make
    ~print:(fun (name, s, k, v) ->
      Printf.sprintf "%s seed=%d stick=%d %s" name s k (Recorder.variant_name v))
    QCheck.Gen.(
      let progs = List.map fst family in
      oneofl progs >>= fun name ->
      triple (int_range 1 200) (int_range 1 16)
        (oneofl [ Light.v_basic; Light.v_o1; Light.v_both ])
      >>= fun (s, k, v) -> return (name, s, k, v))

let prop_replay_faithful =
  QCheck.Test.make ~count:120 ~name:"replay faithful for random configurations" config_gen
    (fun (name, seed, stickiness, variant) ->
      let p = parse (List.assoc name family) in
      match roundtrip ~seed ~stickiness ~variant p with
      | Error _ -> false
      | Ok (r, rr) ->
        rr.faithful = []
        && rr.replay_outcome.status = Interp.AllFinished
        && (match rr.report.schedule with
           | Some sch -> Validate.check ~zones:true r.log sch = []
           | None -> false))

(* ------------------------------------------------------------------ *)
(* Pruned generation vs the naive pairwise oracle                       *)
(* ------------------------------------------------------------------ *)

(* Random bounded synthetic logs, unconstrained by recorder invariants:
   overlapping and nested intervals, dangling sources, self-feeding
   writes, and unsatisfiable tangles all appear, exercising both
   directions of the equisatisfiability claim (see constraints.ml,
   "Pruning").  Both generators assign variable indices by the same
   interval scan, so a model of one problem can be evaluated directly
   against the other. *)
let synth_log_gen =
  QCheck.Gen.(
    let evt = pair (int_range 0 2) (int_range 0 6) in
    let loc_g = map (fun o -> Runtime.Loc.field o "f") (int_range 0 2) in
    let dep_g =
      loc_g >>= fun loc ->
      opt evt >>= fun w ->
      evt >>= fun rf ->
      int_range 0 2 >>= fun span ->
      int_range 0 40 >>= fun dep_obs ->
      int_range 0 40 >>= fun w_obs ->
      return { Log.loc; w; rf; rl_c = snd rf + span; dep_obs; w_obs }
    in
    let range_g =
      loc_g >>= fun loc ->
      int_range 0 2 >>= fun rt ->
      int_range 0 5 >>= fun lo ->
      int_range 0 3 >>= fun span ->
      opt evt >>= fun w_in ->
      bool >>= fun prefix_reads ->
      bool >>= fun has_write ->
      int_range 0 40 >>= fun rng_obs ->
      int_range 0 40 >>= fun lo_obs ->
      int_range 0 40 >>= fun w_obs ->
      return
        {
          Log.loc;
          rt;
          lo;
          hi = lo + span;
          w_in;
          prefix_reads;
          has_write;
          rng_obs;
          lo_obs;
          w_obs;
        }
    in
    pair (list_size (int_range 0 5) dep_g) (list_size (int_range 0 4) range_g)
    >>= fun (deps, ranges) -> return { Log.empty with deps; ranges })

let sat_in (p : Dlsolver.Idl.problem) (m : int array) =
  List.for_all (fun (a : Dlsolver.Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) p.hard
  && Array.for_all
       (fun cl ->
         Array.exists (fun (a : Dlsolver.Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) cl)
       p.clauses

let prop_pruned_equisat =
  QCheck.Test.make ~count:400
    ~name:"pruned constraint generation equisatisfiable with the naive oracle"
    (QCheck.make ~print:Log.to_string synth_log_gen)
    (fun log ->
      let pruned = Constraints.generate log in
      let naive = Constraints.generate ~naive:true log in
      let budget =
        { Dlsolver.Idl.max_backtracks = 100_000; max_conflicts = max_int; max_time_s = 10.0 }
      in
      match
        ( Dlsolver.Idl.solve ~budget ?hint:pruned.hint pruned.problem,
          Dlsolver.Idl.solve ~budget ?hint:naive.hint naive.problem )
      with
      | Sat (m, _), Sat _ ->
        (* stronger than sat-agreement: the pruned model must satisfy the
           naive system verbatim (every dropped clause was entailed), and
           the schedule built from it must validate against the log *)
        sat_in naive.problem m
        && Validate.check ~zones:true log (Replayer.build_schedule log pruned m) = []
      | Unsat _, Unsat _ -> true
      | Aborted _, _ | _, Aborted _ -> QCheck.assume_fail ()
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Replay driver vs the reference driver (test/ref_driver.ml)          *)
(* ------------------------------------------------------------------ *)

(* Run [program] with the production driver steering and the reference
   driver shadowing it; fail on the first disagreement at any consult. *)
let shadowed ?suppress ?(tree = false) ~label ~plan ~intervals sch program =
  let hooks, disagreements = Ref_driver.shadow ?suppress ~intervals sch ~plan in
  let max_steps = 10_000_000 and sched = Sched.round_robin () in
  let o =
    if tree then Interp.run ~hooks ~plan ~max_steps ~sched program
    else Vm.run ~hooks ~plan ~max_steps ~sched program
  in
  (match disagreements () with
  | [] -> ()
  | ds -> Alcotest.failf "%s: drivers disagree: %s" label (String.concat "; " ds));
  o

(* solved schedule plus the intervals it was built from *)
let solved label (log : Log.t) =
  match (Replayer.solve log).schedule with
  | Some sch -> (sch, (Constraints.generate log).intervals)
  | None -> Alcotest.failf "%s: no schedule" label

let faithful label (r : Light.recording) (o : Interp.outcome) =
  Alcotest.(check (list string))
    (label ^ ": faithful") []
    (Interp.replay_matches ~original:r.outcome ~replay:o)

let test_oracle_workloads () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      List.iter
        (fun v ->
          let label = bm.name ^ "/" ^ Recorder.variant_name v in
          let r =
            Light.record ~variant:v ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3
              (Workloads.program bm)
          in
          let sch, intervals = solved label r.log in
          faithful label r (shadowed ~label ~plan:r.plan ~intervals sch r.program))
        all_variants)
    Workloads.all

let prop_oracle_random =
  QCheck.Test.make ~count:40 ~name:"driver = reference driver on random programs"
    (QCheck.pair (QCheck.make Random_programs.params_gen)
       (QCheck.oneofl all_variants))
    (fun (prm, variant) ->
      let p = Random_programs.program prm in
      let r =
        Light.record ~variant ~sched:(Sched.sticky ~seed:prm.threads ~stickiness:prm.stickiness) p
      in
      let sch, intervals = solved "random program" r.log in
      List.for_all
        (fun tree ->
          let o = shadowed ~tree ~label:"random program" ~plan:r.plan ~intervals sch p in
          Interp.replay_matches ~original:r.outcome ~replay:o = [])
        [ false; true ])

(* Arbitrary consult sequences, not only a run's monotone ones.  Accesses
   mostly walk the schedule in rank order, sometimes skipping ahead (out
   of turn) or repeating; consults and write checks probe the counters
   around the events near that walk — the constrained event itself, and
   the unconstrained counters just before and after it — so they land on
   the rank boundaries, go backwards, and name tids the schedule has never
   seen. *)
let prop_oracle_consults =
  let setup =
    lazy
      (let r =
         Light.record ~variant:Light.v_o1 ~sched:(Sched.sticky ~seed:3 ~stickiness:4)
           (parse torture)
       in
       let sch, intervals = solved "torture" r.log in
       let tids = List.sort_uniq compare (Array.to_list (Array.map fst sch.order)) in
       let locs =
         Array.of_list
           ({ Loc.obj = 0; fld = 0 }
           :: List.map (fun (iv : Constraints.interval) -> iv.iv_loc) intervals)
       in
       (r, sch, intervals, tids, locs))
  in
  QCheck.Test.make ~count:300 ~name:"driver = reference driver on arbitrary consults"
    QCheck.(
      list_of_size Gen.(int_range 1 400)
        (quad (int_bound 3) (int_bound 6) (int_bound 3) (pair (int_bound 60) (int_bound 40))))
    (fun ops ->
      let r, sch, intervals, tids, locs = Lazy.force setup in
      let d = Replayer.driver sch ~plan:r.plan in
      let rf = Ref_driver.driver ~intervals sch ~plan:r.plan in
      let get = Option.get in
      let n = Array.length sch.order in
      let walk = ref 0 in
      List.for_all
        (fun (op, ahead, delta, (li, site)) ->
          let t, c = sch.order.(min (n - 1) (!walk + ahead)) in
          let tid, c = if ahead = 6 then (99_999, c) else (t, c + delta - 1) in
          let a =
            {
              Event.tid;
              c;
              loc = locs.(li mod Array.length locs);
              kind = (if op = 1 then Event.Write else Read);
              site;
              ghost = (if op = 3 then Event.NotifyWrite else NotGhost);
            }
          in
          (match op with
          | 0 -> get d.hooks.gate a = get rf.hooks.gate a
          | 1 -> get d.hooks.suppress_write a = get rf.hooks.suppress_write a
          | _ ->
            if ahead = 0 then incr walk;
            get d.hooks.on_shared ~tid ~c ~loc:a.loc ~kind:a.kind ~site ~ghost:a.ghost;
            get rf.hooks.observe (Event.Access (a, Value.VNull));
            get d.hooks.choose_wakeup ~lock:0 ~waiters:tids
            = get rf.hooks.choose_wakeup ~lock:0 ~waiters:tids)
          && d.progress () = rf.progress ())
        ops)

(* Epoch replay composes the driver under [Epoch.fenced_hooks]: the fence
   vetoes consults before the driver sees them. *)
let test_oracle_epochs () =
  List.iter
    (fun name ->
      let bm = Option.get (Workloads.by_name name) in
      let pp = Light.prepare (Workloads.program bm) in
      let plan = Light.prepared_plan pp in
      let er =
        Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 ~epoch_len:400 pp
      in
      List.iteri
        (fun k (e : Epoch.epoch) ->
          let label = Printf.sprintf "%s epoch %d" name k in
          let sch, intervals = solved label e.ep_log in
          let hooks, disagreements = Ref_driver.shadow ~intervals sch ~plan in
          let st =
            Vm.restore_state ~plan
              ~hooks:(Epoch.fenced_hooks hooks e.ep_log.Log.counters)
              (Light.prepared_bytecode pp) e.ep_snapshot
          in
          ignore
            (Vm.run_state ~max_steps:(e.ep_start_steps + 10_000_000)
               ~sched:(Sched.round_robin ()) st);
          Alcotest.(check (list string)) (label ^ ": drivers agree") [] (disagreements ());
          Alcotest.(check (list string))
            (label ^ ": window") []
            (Epoch.window_matches ~expected:e.ep_obs (Vm.drain_observables st)))
        er.er_epochs)
    [ "mp-queue"; "mp-barrier"; "cache4j"; "dacapo-avrora" ]

(* The explorer's flipped schedules run without write suppression. *)
let test_oracle_explorer () =
  let p = parse racy_fields in
  match
    Explore.make_context ~make_sched:(fun () -> Sched.sticky ~seed:2 ~stickiness:4) p
  with
  | Error e -> Alcotest.failf "make_context: %s" e
  | Ok ctx ->
    let flipped = ref 0 in
    List.iter
      (fun (f : Explore.flip) ->
        let s = Explore.solve_flips ~sections:ctx.sections ctx.recording.log [ f ] in
        match s.sv with
        | Explore.Feasible sch ->
          incr flipped;
          let label = Format.asprintf "flip %a" Explore.pp_flip f in
          let o =
            shadowed ~suppress:false ~label ~plan:ctx.recording.plan ~intervals:[] sch p
          in
          Alcotest.(check bool)
            (label ^ ": same run as the explorer's") true
            (o = Explore.run_schedule ctx sch)
        | Explore.Infeasible | Explore.SolveAborted -> ())
      (Explore.candidates ctx);
    Alcotest.(check bool) "some flip is feasible" true (!flipped > 0)

let () =
  Alcotest.run "replay"
    [
      ("family", family_tests);
      ( "detail",
        [
          Alcotest.test_case "crash site reproduced" `Quick test_crash_site_reproduced;
          Alcotest.test_case "constraint shape" `Quick test_constraints_shape;
          Alcotest.test_case "schedule respects deps" `Quick test_schedule_respects_deps;
          Alcotest.test_case "torture mix" `Slow test_torture;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "28 workloads x 3 variants" `Slow test_oracle_workloads;
          QCheck_alcotest.to_alcotest ~long:false prop_oracle_random;
          QCheck_alcotest.to_alcotest ~long:false prop_oracle_consults;
          Alcotest.test_case "epoch replay under fenced hooks" `Slow test_oracle_epochs;
          Alcotest.test_case "explorer flips, no suppression" `Quick test_oracle_explorer;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_replay_faithful;
          QCheck_alcotest.to_alcotest ~long:false prop_pruned_equisat;
        ] );
    ]
