(** Register-bytecode VM equivalence: [Vm] (flat instruction array, baked
    record sites) against [Interp] (slot-resolved tree walker) and
    [Interp_ref] (string-keyed reference).  The three engines must produce
    identical [outcome] records on every workload under both schedulers and
    on random generated programs; with the Light recorder installed, the
    VM's logs must be {e byte-identical} to the tree-walker's across all
    three recorder variants; under one solved schedule the two engines'
    replays must agree field by field (including where a perturbed
    schedule leaves the gate stuck); the VM must stay under fixed bounds
    of minor words allocated per recorded and per replayed step;
    epoch-mode recording through the VM must produce byte-identical v4
    files, and VM checkpoints must restore (in either engine — they share
    the snapshot format) and replay. *)

open Runtime

(* field-by-field comparison so a mismatch names the observable *)
let check_outcome name (a : Interp.outcome) (b : Interp.outcome) =
  let chk field eq = Alcotest.(check bool) (name ^ ": " ^ field) true eq in
  chk "status" (a.status = b.status);
  chk "steps" (a.steps = b.steps);
  chk "crashes" (a.crashes = b.crashes);
  chk "reads" (a.reads = b.reads);
  chk "outputs" (a.outputs = b.outputs);
  chk "counters" (a.counters = b.counters);
  chk "syscalls" (a.syscalls = b.syscalls);
  chk "final_heap" (a.final_heap = b.final_heap)

let scheds = [ ("random", fun () -> Sched.random ~seed:11); ("rr", Sched.round_robin) ]

let test_workloads_equiv () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      let p = Workloads.program bm in
      let bp = Lang.Compile.lower (Interp.compile p) in
      List.iter
        (fun (sname, sched) ->
          let vm = Vm.run_program ~seed:5 ~sched:(sched ()) bp in
          let tree = Interp.run ~seed:5 ~sched:(sched ()) p in
          let ref_ = Interp_ref.run ~seed:5 ~sched:(sched ()) p in
          check_outcome (bm.name ^ "/" ^ sname ^ " vm=tree") vm tree;
          check_outcome (bm.name ^ "/" ^ sname ^ " vm=ref") vm ref_)
        scheds)
    Workloads.all

let outcomes_equal (a : Interp.outcome) (b : Interp.outcome) =
  a.status = b.status && a.steps = b.steps && a.crashes = b.crashes
  && a.reads = b.reads && a.outputs = b.outputs && a.counters = b.counters
  && a.syscalls = b.syscalls && a.final_heap = b.final_heap

let equiv_prop =
  QCheck.Test.make ~count:40 ~name:"random programs: Vm = Interp = Interp_ref"
    (QCheck.make Random_programs.params_gen) (fun prm ->
      let p = Random_programs.program prm in
      List.for_all
        (fun (_, sched) ->
          let vm = Vm.run ~seed:5 ~sched:(sched ()) p in
          let tree = Interp.run ~seed:5 ~sched:(sched ()) p in
          let ref_ = Interp_ref.run ~seed:5 ~sched:(sched ()) p in
          outcomes_equal vm tree && outcomes_equal vm ref_)
        scheds)

(* ------------------------------------------------------------------ *)
(* Recorder byte-identity: the VM under the Light recorder must emit    *)
(* logs byte-for-byte equal to the tree walker's, on every variant      *)
(* ------------------------------------------------------------------ *)

let variants =
  [ Light_core.Light.v_basic; Light_core.Light.v_o1; Light_core.Light.v_both ]

let test_log_identity () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      let p = Workloads.program bm in
      List.iter
        (fun v ->
          let pp = Light_core.Light.prepare ~variant:v p in
          let record engine =
            Light_core.Light.record_prepared ~engine
              ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 pp
          in
          let rt = record Vm.Tree in
          let rv = record Vm.Bytecode in
          let tag =
            bm.name ^ "/" ^ Light_core.Recorder.variant_name v
          in
          Alcotest.(check string)
            (tag ^ ": log bytes")
            (Light_core.Log.to_string rt.log)
            (Light_core.Log.to_string rv.log);
          check_outcome (tag ^ ": recorded outcome") rt.outcome rv.outcome)
        variants)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Replay through the VM                                                *)
(* ------------------------------------------------------------------ *)

let wl name =
  match Workloads.by_name name with
  | Some bm -> bm
  | None -> Alcotest.failf "no workload %s" name

let solve_or_fail tag (log : Light_core.Log.t) =
  match (Light_core.Replayer.solve log).schedule with
  | Some sch -> sch
  | None -> Alcotest.failf "%s: no schedule" tag

let replay_on engine (r : Light_core.Light.recording) sch =
  Light_core.Replayer.replay ~engine r.program ~plan:r.plan sch

(* Every engine pairing: the recording engine does not matter, since
   [test_log_identity] holds both engines' logs and recorded outcomes
   byte-identical, so one schedule serves every pairing.  Replay on both
   engines under that schedule: the two replays must agree field by field
   — status, steps, reads, outputs, counters, final heap — and both must
   be faithful to the recording. *)
let test_vm_replay () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      let p = Workloads.program bm in
      List.iter
        (fun v ->
          let tag = bm.name ^ "/" ^ Light_core.Recorder.variant_name v in
          let r =
            Light_core.Light.record ~variant:v ~sched:(Workloads.scheduler ~seed:3 bm)
              ~seed:3 p
          in
          let sch = solve_or_fail tag r.log in
          let tree = replay_on Vm.Tree r sch in
          let vm = replay_on Vm.Bytecode r sch in
          check_outcome (tag ^ ": replay tree=vm") tree vm;
          List.iter
            (fun (o, e) ->
              Alcotest.(check (list string))
                (tag ^ ": faithful on " ^ e)
                []
                (Interp.replay_matches ~original:r.outcome ~replay:o))
            [ (tree, "tree"); (vm, "vm") ])
        variants)
    Workloads.all

(* A schedule with two adjacent ranks swapped, where a thread-ghost
   dependence orders them across threads (spawn write -> the child's first
   read, or exit write -> the joiner's read): the reader's turn now comes
   first, but it cannot step before the writer does (the child does not
   exist yet / the joined thread has not finished), while the writer waits
   for its own, later turn.  Both engines must stop [GateStuck] on the same
   threads — the VM's cached enabled set then holds threads the gate admits
   none of. *)
let thread_handoffs (log : Light_core.Log.t) :
    (Light_core.Log.evt * Light_core.Log.evt) list =
  List.filter_map
    (fun (d : Light_core.Log.dep) ->
      match d.w with
      | Some w when d.loc.fld = Loc.thread_fld && fst w <> fst d.rf -> Some (w, d.rf)
      | _ -> None)
    log.deps
  @ List.filter_map
      (fun (r : Light_core.Log.range) ->
        match r.w_in with
        | Some w when r.loc.fld = Loc.thread_fld && r.prefix_reads && fst w <> r.rt ->
          Some (w, (r.rt, r.lo))
        | _ -> None)
      log.ranges

let perturbed (r : Light_core.Light.recording) sch =
  let order = sch.Light_core.Replayer.order in
  let handoffs = thread_handoffs r.log in
  let rec find k =
    if k + 1 >= Array.length order then None
    else if List.mem (order.(k), order.(k + 1)) handoffs then Some k
    else find (k + 1)
  in
  match find 0 with
  | None -> None
  | Some k ->
    let cs = Light_core.Constraints.generate r.log in
    let model = Array.make (Array.length cs.evts) 0 in
    Array.iteri
      (fun rank e ->
        let rank = if rank = k then k + 1 else if rank = k + 1 then k else rank in
        model.(Hashtbl.find cs.vars e) <- rank)
      order;
    Some (Light_core.Replayer.build_schedule r.log cs model)

let test_perturbed_gate_stuck () =
  List.iter
    (fun v ->
      let vname = Light_core.Recorder.variant_name v in
      let rec first = function
        | [] -> Alcotest.failf "%s: no workload has an adjacent thread hand-off" vname
        | (bm : Workloads.benchmark) :: rest -> (
          let r =
            Light_core.Light.record ~variant:v ~sched:(Workloads.scheduler ~seed:3 bm)
              ~seed:3 (Workloads.program bm)
          in
          match perturbed r (solve_or_fail bm.name r.log) with
          | Some sch -> (bm.name ^ "/" ^ vname, r, sch)
          | None -> first rest)
      in
      let tag, r, sch = first Workloads.all in
      let tree = replay_on Vm.Tree r sch in
      let vm = replay_on Vm.Bytecode r sch in
      (match vm.status with
      | Interp.GateStuck (_ :: _) -> ()
      | s ->
        Alcotest.failf "%s: perturbed replay did not stop gate-stuck (%s)" tag
          (match s with
          | Interp.AllFinished -> "finished"
          | Deadlock _ -> "deadlock"
          | GateStuck _ -> "no thread"
          | StepLimit -> "step limit"));
      check_outcome (tag ^ ": perturbed replay tree=vm") tree vm)
    variants

(* ------------------------------------------------------------------ *)
(* Epoch mode through the VM                                            *)
(* ------------------------------------------------------------------ *)

let epoch_workloads = [ "mp-queue"; "mp-barrier"; "cache4j"; "dacapo-avrora" ]

(* v4 files (headers, checkpoints, intern deltas, record bodies) must be
   byte-identical whichever engine recorded them — the VM's snapshots
   reconstruct the same [Interp.snapshot] values from PC + registers. *)
let test_epoch_v4_identity () =
  List.iter
    (fun name ->
      let bm = wl name in
      let p = Workloads.program bm in
      let pp = Light_core.Light.prepare p in
      let re engine =
        Light_core.Epoch.record_epochs ~engine
          ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 ~epoch_len:400 pp
      in
      let rt = re Vm.Tree in
      let rv = re Vm.Bytecode in
      Alcotest.(check string)
        (name ^ ": v4 bytes")
        (Light_core.Epoch.to_string_v4 rt)
        (Light_core.Epoch.to_string_v4 rv);
      check_outcome (name ^ ": epoch outcome") rt.er_outcome rv.er_outcome)
    epoch_workloads

(* Cross-engine restore: replay an epoch of a tree-recorded run on the VM
   (and vice versa on a VM-recorded run) — checkpoints are interchangeable,
   and each replayed window reproduces the recorded one. *)
let test_epoch_cross_replay () =
  List.iter
    (fun name ->
      let bm = wl name in
      let p = Workloads.program bm in
      let pp = Light_core.Light.prepare p in
      let rt =
        Light_core.Epoch.record_epochs ~engine:Vm.Tree
          ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 ~epoch_len:400 pp
      in
      List.iteri
        (fun k (e : Light_core.Epoch.epoch) ->
          match
            Light_core.Epoch.replay_epoch ~engine:Vm.Bytecode rt k
          with
          | Error err -> Alcotest.failf "%s: epoch %d on vm: %s" name k err
          | Ok rr ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s: epoch %d window (vm replay)" name k)
              []
              (Light_core.Epoch.window_matches ~expected:e.ep_obs rr.rr_obs))
        rt.er_epochs;
      let rv =
        Light_core.Epoch.record_epochs ~engine:Vm.Bytecode
          ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 ~epoch_len:400 pp
      in
      List.iteri
        (fun k (e : Light_core.Epoch.epoch) ->
          match Light_core.Epoch.replay_epoch ~engine:Vm.Tree rv k with
          | Error err -> Alcotest.failf "%s: epoch %d on tree: %s" name k err
          | Ok rr ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s: epoch %d window (tree replay)" name k)
              []
              (Light_core.Epoch.window_matches ~expected:e.ep_obs rr.rr_obs))
        rv.er_epochs)
    epoch_workloads

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                      *)
(* ------------------------------------------------------------------ *)

(* Minor words this domain allocates per interpreter step, over the 28
   workloads (default variant, VM): for the recording run with the Light
   recorder (recorder creation and log finalization included) and for the
   replay run under the solved schedule (driver and lowering included).
   Allocation is a deterministic count, so the bounds are fixed numbers;
   they sit about 25% above the measured values (see CHANGES.md). *)
let record_words_bound = 12.5
let replay_words_bound = 46.0

let test_alloc_per_step () =
  let rec_words = ref 0.0 and rec_steps = ref 0 in
  let rep_words = ref 0.0 and rep_steps = ref 0 in
  let measure words steps f =
    let w0 = Gc.minor_words () in
    let o : Interp.outcome = f () in
    words := !words +. (Gc.minor_words () -. w0);
    steps := !steps + o.steps;
    o
  in
  List.iter
    (fun (bm : Workloads.benchmark) ->
      let pp = Light_core.Light.prepare (Workloads.program bm) in
      let sched = Workloads.scheduler ~seed:3 bm in
      let r = ref None in
      ignore
        (measure rec_words rec_steps (fun () ->
             let x = Light_core.Light.record_prepared ~engine:Vm.Bytecode ~sched ~seed:3 pp in
             r := Some x;
             x.outcome));
      let r = Option.get !r in
      let sch = solve_or_fail bm.name r.log in
      ignore (measure rep_words rep_steps (fun () -> replay_on Vm.Bytecode r sch)))
    Workloads.all;
  let per words steps = !words /. float !steps in
  let rec_wps = per rec_words rec_steps and rep_wps = per rep_words rep_steps in
  Printf.printf "minor words/step: record %.2f (bound %.1f), replay %.2f (bound %.1f)\n"
    rec_wps record_words_bound rep_wps replay_words_bound;
  if rec_wps > record_words_bound then
    Alcotest.failf "recording allocates %.2f minor words/step (bound %.1f)" rec_wps
      record_words_bound;
  if rep_wps > replay_words_bound then
    Alcotest.failf "replay allocates %.2f minor words/step (bound %.1f)" rep_wps
      replay_words_bound

let () =
  Alcotest.run "vm"
    [
      ( "equivalence",
        [
          Alcotest.test_case "28 workloads x 2 schedulers x 3 engines" `Slow
            test_workloads_equiv;
          QCheck_alcotest.to_alcotest equiv_prop;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "log byte-identity, 28 workloads x 3 variants"
            `Slow test_log_identity;
          Alcotest.test_case "replay via the VM (all engine pairings)" `Slow
            test_vm_replay;
          Alcotest.test_case "perturbed schedule: same GateStuck on both engines"
            `Slow test_perturbed_gate_stuck;
        ] );
      ( "allocation",
        [ Alcotest.test_case "minor words per step, record and replay" `Slow test_alloc_per_step ] );
      ( "epochs",
        [
          Alcotest.test_case "v4 byte-identity" `Slow test_epoch_v4_identity;
          Alcotest.test_case "cross-engine checkpoint replay" `Slow
            test_epoch_cross_replay;
        ] );
    ]
