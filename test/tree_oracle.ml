(** The tree walker ({!Runtime.Interp}) as the register VM's differential
    oracle.  Each helper mirrors one library entry point — the same
    recorder, replay driver, epoch fence and checkpoints — with the tree
    walker in the VM's place:
    - {!record}: {!Light_core.Light.record_prepared};
    - {!replay}: {!Light_core.Replayer.replay};
    - {!record_epochs}: {!Light_core.Epoch.record_epochs};
    - {!replay_epoch}: {!Light_core.Epoch.replay_epoch}, restoring the
      epoch's checkpoint with {!Runtime.Interp.restore_state}. *)

open Runtime
open Light_core

let record ?(max_steps = 5_000_000) ~sched ~seed (pp : Light.prepared) : Light.recording =
  let recorder =
    Recorder.create ~variant:(Light.prepared_variant pp) (Light.prepared_modes pp)
  in
  let outcome =
    Interp.run_compiled ~hooks:(Recorder.hooks recorder) ~plan:(Light.prepared_plan pp)
      ~max_steps ~seed ~sched (Light.prepared_compiled pp)
  in
  let log = Recorder.finalize recorder ~outcome in
  {
    Light.program = Light.prepared_program pp;
    plan = Light.prepared_plan pp;
    variant = Light.prepared_variant pp;
    log;
    outcome;
    space_longs = Log.space_longs log;
    overhead = Metrics.Cost.overhead (Recorder.meter recorder) ~steps:outcome.steps;
    meter = Recorder.meter recorder;
    instrumented_sites = Light.prepared_instrumented_sites pp;
    site_hits = Recorder.site_hits recorder;
  }

let replay (r : Light.recording) (sch : Replayer.schedule) : Interp.outcome =
  let d = Replayer.driver sch ~plan:r.plan in
  Interp.run ~hooks:d.hooks ~plan:r.plan ~max_steps:10_000_000
    ~sched:(Sched.round_robin ()) r.program

let record_epochs ~sched ~seed ~epoch_len (pp : Light.prepared) : Epoch.recording =
  let recorder =
    Recorder.create ~variant:(Light.prepared_variant pp) (Light.prepared_modes pp)
  in
  let st =
    Interp.init_state ~hooks:(Recorder.hooks recorder) ~plan:(Light.prepared_plan pp)
      ~seed (Light.prepared_compiled pp)
  in
  let out_counts = Hashtbl.create 16 in
  let outs tid = Option.value ~default:0 (Hashtbl.find_opt out_counts tid) in
  let rec loop idx eps =
    let sn = Interp.snapshot st in
    let sched_tok = sched.Sched.save () in
    let out_base =
      List.map (fun (t : Interp.snap_thread) -> (t.sn_tid, outs t.sn_tid)) sn.snap_threads
    in
    let status =
      Interp.run_state ~stop_at:(Interp.state_steps st + epoch_len) ~sched st
    in
    let counters = Interp.state_counters st in
    let obs = Interp.drain_observables st in
    let log = Recorder.seal recorder ~syscalls:obs.obs_syscalls ~counters in
    List.iter
      (fun (tid, o) -> Hashtbl.replace out_counts tid (outs tid + List.length o))
      obs.obs_outputs;
    let e =
      {
        Epoch.ep_idx = idx;
        ep_start_steps = sn.snap_steps;
        ep_steps = Interp.state_steps st;
        ep_clock = Recorder.accesses recorder;
        ep_sched = sched_tok;
        ep_snapshot = sn;
        ep_log = log;
        ep_obs = obs;
        ep_out_base = out_base;
      }
    in
    match status with
    | None -> loop (idx + 1) (e :: eps)
    | Some status -> (status, List.rev (e :: eps))
  in
  let status, eps = loop 0 [] in
  {
    Epoch.er_prepared = pp;
    er_epoch_len = epoch_len;
    er_seed = seed;
    er_epochs = eps;
    er_outcome = Epoch.reassemble (Interp.outcome_of_state st status) eps;
    er_site_hits = Recorder.site_hits recorder;
    er_seal_times = [];
  }

(* the replayed window's observables *)
let replay_epoch (r : Epoch.recording) (k : int) : (Interp.observables, string) result =
  let e = List.nth r.er_epochs k in
  match (Replayer.solve e.ep_log).schedule with
  | None -> Error "no schedule"
  | Some sch ->
    let plan = Light.prepared_plan r.er_prepared in
    let d = Replayer.driver sch ~plan in
    let st =
      Interp.restore_state ~hooks:(Epoch.fenced_hooks d.hooks e.ep_log.counters) ~plan
        (Light.prepared_compiled r.er_prepared) e.ep_snapshot
    in
    ignore
      (Interp.run_state ~max_steps:(e.ep_start_steps + 10_000_000)
         ~sched:(Sched.round_robin ()) st);
    Ok (Interp.drain_observables st)
