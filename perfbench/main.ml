(** The record -> log -> faithful-replay benchmark.

    One process runs one workload for a fixed time and prints, as the last
    line of stdout, a JSON object with the end-to-end metrics (untraced
    run) or the per-layer metrics (traced run).  Every output is checked:
    a suite item must replay faithfully from its parsed log with a
    validated schedule and a log that round-trips; a service session must
    finish and produce the same log as a serial recording of the session.
    See README.md in this directory for the workloads and metrics. *)

open Light_core

let now = Hostref.now_s

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref false
let smoke = ref false
let spans_dir = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "suite-o1o2 | suite-basic | service");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured time");
      ("--trace", Arg.Int (fun n -> traced := n <> 0), "0 = end-to-end, 1 = per layer");
      ("--smoke", Arg.Set smoke, "small corpus (self-tests)");
      ("--spans-dir", Arg.Set_string spans_dir, "write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

let tr = if !traced then Some (Trace.create ()) else None
let span name f = Trace.span tr name f

(* Every timed piece of work follows a run of the host-speed kernel, and
   its time is reported scaled to the reference host (hostref.ml). *)
let host = Hostref.create ()

let host_sample () =
  let h = Hostref.sample host in
  Trace.set_host tr h;
  h

(** A time measured after host sample [h], scaled to the reference host. *)
let scaled (t, h) = t *. Hostref.scale host h

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs = Service.percentile 50.0 (Array.of_list xs)

(** The highest of a few standard percentiles that leaves at least ten
    samples beyond it. *)
let tail_pct n =
  List.find_opt (fun p -> float n *. (1.0 -. p /. 100.0) >= 10.0) [ 99.0; 95.0; 90.0; 80.0; 75.0 ]
  |> Option.value ~default:50.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The suites run every program for a third of its standard iterations
   (only their loop bounds change).  An input then takes 10-40 ms, so
   each input repeats 10-20 times in a 30-s run, enough for the median
   of its repeats to span the host's slow and quick phases. *)
let suite_iters_div = 3

let programs ~iters_div =
  let all =
    List.map
      (fun (bm : Workloads.benchmark) ->
        { bm with params = { bm.params with iters = max 1 (bm.params.iters / iters_div) } })
      Workloads.all
  in
  if !smoke then List.filteri (fun i _ -> i mod 5 = 0) all else all

(** Scheduler and program seeds of input [k] of a run. *)
let input_seeds k =
  let st = Random.State.make [| !seed; k |] in
  let a = Random.State.bits st in
  (a, Random.State.bits st)

(** Generate, parse, check and prepare the corpus once per variant. *)
let setup ~iters_div variants =
  List.map
    (fun (bm : Workloads.benchmark) ->
      let src = Workloads.generate bm.params in
      let p =
        span "lang.parse" (fun () ->
            Lang.Check.validate_exn (Lang.Parser.parse_program src))
      in
      (bm, List.map (fun variant -> span "prepare" (fun () -> Light.prepare ~variant p)) variants))
    (programs ~iters_div)

(* The corpus is set up [setup_rounds] times, spread evenly over the
   measured time so that the median does not hang on one moment of host
   load; [setup_s] is the median scaled round. *)
let setup_rounds = 15

type setup_timer = {
  variants : Light.variant list;
  iters_div : int;
  mutable times : (float * int) list;  (** time, host sample *)
}

let setup_round st =
  let h = host_sample () in
  let t0 = now () in
  let corpus = span "setup" (fun () -> setup ~iters_div:st.iters_div st.variants) in
  st.times <- (now () -. t0, h) :: st.times;
  corpus

let first_setup ~iters_div variants =
  let st = { variants; iters_div; times = [] } in
  let corpus = setup_round st in
  (st, corpus)

(** Run the next setup round once its share of the measured time has
    [elapsed]. *)
let setup_due st ~elapsed =
  let k = List.length st.times in
  if k < setup_rounds && elapsed >= float k *. !seconds /. float setup_rounds then ignore (setup_round st)

let finish_setups st = while List.length st.times < setup_rounds do ignore (setup_round st) done

let setup_s st = median (List.map scaled st.times)

let site_counts corpus =
  List.fold_left
    (fun (i, g) (_, pps) ->
      List.fold_left
        (fun (i, g) pp ->
          let i', g' = Runtime.Plan.count_modes (Light.prepared_modes pp) in
          (i + i', g + g'))
        (i, g) pps)
    (0, 0) corpus

(** The engine the public entry points run when no [?engine] is passed,
    read from the library rather than restated here: [Service.session]'s
    default, which is also [Light.record_prepared]'s (light.mli).  The
    native baseline runs on it, so [recorder.overhead_ratio] and
    [replayer.slowdown] follow a change of the default. *)
let default_engine pp = (Service.session ~sched:(fun () -> Runtime.Sched.random ~seed:0) pp).ss_engine

(** The native run of an input: same plan, seeds and scheduler, no hooks.
    In the traced run, the plain and the traced run of an input each
    start with one, so that tracing is the only difference between them. *)
let native_run tr ?max_steps ~sched ~seed pp =
  let plan = Light.prepared_plan pp in
  let o =
    Trace.span tr "runtime.native" (fun () ->
        match default_engine pp with
        | Runtime.Vm.Tree -> Runtime.Interp.run_compiled ~plan ?max_steps ~seed ~sched (Light.prepared_compiled pp)
        | Runtime.Vm.Bytecode -> Runtime.Vm.run_program ~plan ?max_steps ~seed ~sched (Light.prepared_bytecode pp))
  in
  o.Runtime.Interp.steps

(** The native run and the recording of one input must take the same
    number of steps; a difference means the baseline no longer runs what
    the recorder runs. *)
let same_steps ~native steps =
  if native = steps then None
  else Some (Printf.sprintf "native run took %d steps, the recording %d" native steps)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec loop () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float kb /. 1024.0)
    | _ -> loop ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) loop

(* ------------------------------------------------------------------ *)
(* Failure accounting                                                  *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check label = function
  | None -> ()
  | Some why ->
    incr failed;
    if !failed <= 20 then Printf.eprintf "FAIL %s: %s\n%!" label why

(* ------------------------------------------------------------------ *)
(* Suite workloads: record -> write -> parse -> replay -> validate     *)
(* ------------------------------------------------------------------ *)

type item = {
  label : string;
  bm : Workloads.benchmark;
  pp : Light.prepared;
  sched_seed : int;
  prog_seed : int;
}

(** Deterministic counts of one distinct input (item or session). *)
type counts = {
  c_steps : int;
  c_bytes : int;  (** serialized log *)
  c_records : int;
  c_space : int;
  c_cost : float;  (** modeled overhead x steps *)
  c_pairs : int;
  c_pruned : int;
  c_clauses : int;
  c_hard : int;
  c_decisions : int;
  c_backtracks : int;
  c_conflicts : int;
}

let record_counts (r : Light.recording) bytes =
  {
    c_steps = r.outcome.steps;
    c_bytes = bytes;
    c_records = Log.num_records r.log;
    c_space = r.space_longs;
    c_cost = r.overhead *. float r.outcome.steps;
    c_pairs = 0;
    c_pruned = 0;
    c_clauses = 0;
    c_hard = 0;
    c_decisions = 0;
    c_backtracks = 0;
    c_conflicts = 0;
  }

let with_solve c (g : Constraints.gen_stats) ~clauses ~hard (st : Dlsolver.Idl.stats) =
  {
    c with
    c_pairs = g.n_pairs;
    c_pruned = g.n_pruned;
    c_clauses = clauses;
    c_hard = hard;
    c_decisions = st.decisions;
    c_backtracks = st.backtracks;
    c_conflicts = st.theory_conflicts;
  }

(** Steps executed under traced native and recording spans, the base of
    the minor-words-per-step metrics. *)
let traced_steps = ref 0

type run = {
  counts : counts;
  record_s : float;  (** record_prepared + Log.to_string *)
  latency_s : float;  (** log bytes -> validated faithful replay *)
}

let first_mismatch = function [] -> None | m :: _ -> Some ("unfaithful replay: " ^ m)

let validated l sch =
  match Validate.check l sch with [] -> None | e :: _ -> Some ("invalid schedule: " ^ e)

(** Untraced offline path: the public end-to-end entry point. *)
let offline_plain (r : Light.recording) (l : Log.t) c =
  match Light.replay { r with log = l } with
  | Error e -> (Some ("solver: " ^ e), c)
  | Ok rr -> (
    let rep = rr.report in
    let c = with_solve c rep.gen_stats ~clauses:rep.n_clauses ~hard:rep.n_hard rep.solver_stats in
    match rep.schedule with
    | None -> (Some "solver returned no schedule", c)
    | Some sch -> (
      match first_mismatch rr.faithful with Some _ as e -> (e, c) | None -> (validated l sch, c)))

(** Traced offline path: [Light.replay] split into the public calls it
    makes, one span each. *)
let offline_traced (r : Light.recording) (l : Log.t) c =
  let cs = span "constraints.gen" (fun () -> Constraints.generate l) in
  let with_solve = with_solve c cs.gen_stats ~clauses:cs.n_clauses ~hard:cs.n_hard in
  match span "solver.solve" (fun () -> Dlsolver.Idl.solve ?hint:cs.hint cs.problem) with
  | Unsat st -> (Some "solver: unsat", with_solve st)
  | Aborted st -> (Some "solver: aborted", with_solve st)
  | Sat (model, st) ->
    let sch = span "replayer.schedule" (fun () -> Replayer.build_schedule l cs model) in
    let out = span "replayer.run" (fun () -> Replayer.replay r.program ~plan:r.plan sch) in
    let verdict =
      span "validate" (fun () ->
          match first_mismatch (Runtime.Interp.replay_matches ~original:r.outcome ~replay:out) with
          | Some _ as e -> e
          | None -> validated l sch)
    in
    (verdict, with_solve st)

let run_item ~spans (it : item) : run =
  let tr = if spans then tr else None in
  let span name f = Trace.span tr name f in
  let sched () = Workloads.scheduler ~seed:it.sched_seed it.bm in
  span "item" @@ fun () ->
  let native = if !traced then Some (native_run tr ~sched:(sched ()) ~seed:it.prog_seed it.pp) else None in
  let t0 = now () in
  let r =
    span "recorder.record" (fun () -> Light.record_prepared ~sched:(sched ()) ~seed:it.prog_seed it.pp)
  in
  let s = span "log.write" (fun () -> Log.to_string r.log) in
  let t1 = now () in
  let l, (verdict, counts) =
    span "offline" (fun () ->
        let l = span "log.parse" (fun () -> Log.of_string s) in
        let c = record_counts r (String.length s) in
        (l, if spans then offline_traced r l c else offline_plain r l c))
  in
  let t2 = now () in
  if spans then traced_steps := !traced_steps + r.outcome.steps;
  incr attempted;
  check it.label
    (match verdict with
    | Some _ -> verdict
    | None when Log.to_string l <> s -> Some "log does not round-trip"
    | None -> Option.bind native (fun native -> same_steps ~native r.outcome.steps));
  { counts; record_s = t1 -. t0; latency_s = t2 -. t1 }

let inputs_digest labels =
  Printf.eprintf "inputs %s\n%!" (Digest.to_hex (Digest.string (String.concat ";" labels)))

(* On a shared host the speed of this process changes from moment to
   moment (measured: phases of seconds to minutes, up to 2x apart).
   Every repeat is therefore scaled by the host-speed kernel sampled just
   before it.  Every suite input is also repeated, its repeats are spread
   over the whole measured time, and each input's figure is the median of
   its scaled repeats; medians and tails are then taken across inputs.  The service
   repeats whole batches and reports the median batch.  Each repeat
   starts from a compacted heap, as a fresh process would, so one input's
   garbage is not collected on the next input's clock. *)

(** What a workload run hands to the metric tables. *)
type summary = {
  setup_s : float;
  corpus : (Workloads.benchmark * Light.prepared list) list;
  counts : counts list;  (** one per distinct input; its repeats agree *)
  record_s : float;  (** recording time of each input, summed *)
  pipeline_s : float;  (** record + replay time of each input, summed *)
  latency_p50_s : float;
  latency_tail_s : float;
  peak_mb : float;
      (** [VmHWM] after setup and one pass over every input (one batch on
          the service): what running the workload once needs, whatever
          the number of repeats *)
  plain_s : float;  (** untraced vs traced time of the same work *)
  traced_s : float;
  batches : batch list;  (** service only *)
}

(** Per-batch figures of the service, so memory stays bounded however
    many batches a run makes. *)
and batch = { b_queue_p50_s : float; b_exec_p50_s : float; b_host : int; b_stats : Service.stats }

let suite variant ~per_program : summary =
  let setups, corpus = first_setup ~iters_div:suite_iters_div [ variant ] in
  let items =
    List.concat_map
      (fun ((bm : Workloads.benchmark), pps) -> List.init per_program (fun j -> (bm, List.hd pps, j)))
      corpus
    |> List.mapi (fun k (bm, pp, j) ->
           let sched_seed, prog_seed = input_seeds k in
           { label = Printf.sprintf "%s#%d" bm.Workloads.name j; bm; pp; sched_seed; prog_seed })
    |> Array.of_list
  in
  let n = Array.length items in
  inputs_digest
    (Array.to_list (Array.map (fun it -> Printf.sprintf "%s/%d/%d" it.label it.sched_seed it.prog_seed) items));
  let counts = Array.make n None in
  (* the times of every repeat of every input, with their host samples *)
  let rec_s = Array.make n [] and lat_s = Array.make n [] and item_s = Array.make n [] in
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  let peak_mb = ref 0.0 in
  let t_start = now () in
  let k = ref 0 and pass = ref 0 in
  while !pass = 0 || now () -. t_start < !seconds do
    (* no set-up round in the first pass, so that what it allocates, and
       so peak_rss_mb, does not depend on the host's speed *)
    if !pass > 0 then setup_due setups ~elapsed:(now () -. t_start);
    let it = items.(!k) in
    Trace.set_item tr !k;
    Gc.compact ();
    let h = host_sample () in
    let r =
      if not !traced then run_item ~spans:false it
      else begin
        (* a plain and a traced run of the same item, alternating which
           goes first, give the tracing overhead *)
        let a, b =
          if !pass land 1 = 0 then
            let a = run_item ~spans:false it in
            (a, run_item ~spans:true it)
          else
            let b = run_item ~spans:true it in
            (run_item ~spans:false it, b)
        in
        plain_s := !plain_s +. a.record_s +. a.latency_s;
        traced_s := !traced_s +. b.record_s +. b.latency_s;
        b
      end
    in
    counts.(!k) <- Some r.counts;
    rec_s.(!k) <- (r.record_s, h) :: rec_s.(!k);
    lat_s.(!k) <- (r.latency_s, h) :: lat_s.(!k);
    item_s.(!k) <- (r.record_s +. r.latency_s, h) :: item_s.(!k);
    incr k;
    if !k = n then begin
      if !pass = 0 then peak_mb := peak_rss_mb ();
      k := 0;
      incr pass
    end
  done;
  finish_setups setups;
  let tp = tail_pct n in
  Printf.eprintf "%d items x %d passes (+%d); latency tail = p%g over n=%d items\n%!" n !pass !k tp n;
  let input_median t = median (List.map scaled t) in
  let sum_medians ts = Array.fold_left (fun a t -> a +. input_median t) 0.0 ts in
  let lat = Array.map input_median lat_s in
  {
    setup_s = setup_s setups;
    corpus;
    counts = Array.to_list (Array.map Option.get counts);
    record_s = sum_medians rec_s;
    pipeline_s = sum_medians item_s;
    latency_p50_s = Service.percentile 50.0 lat;
    latency_tail_s = Service.percentile tp lat;
    peak_mb = !peak_mb;
    plain_s = !plain_s;
    traced_s = !traced_s;
    batches = [];
  }

(* ------------------------------------------------------------------ *)
(* Service workload                                                    *)
(* ------------------------------------------------------------------ *)

(* A session records a bounded window of this many steps. *)
let session_steps = 500

let service () : summary =
  let setups, corpus = first_setup ~iters_div:1 [ Light.v_basic; Light.v_o1; Light.v_both ] in
  let combos = Array.of_list (List.concat_map (fun (bm, pps) -> List.map (fun pp -> (bm, pp)) pps) corpus) in
  let n = Array.length combos * if !smoke then 1 else 12 in
  let sessions =
    Array.init n (fun i ->
        let (bm : Workloads.benchmark), pp = combos.(i mod Array.length combos) in
        let sched_seed, prog_seed = input_seeds i in
        Service.session ~label:(Printf.sprintf "%s#%d/%d/%d" bm.name i sched_seed prog_seed) ~seed:prog_seed
          ~max_steps:session_steps
          ~sched:(fun () -> Workloads.scheduler ~seed:sched_seed bm)
          pp)
  in
  inputs_digest (Array.to_list (Array.map (fun (s : Service.session) -> s.ss_label) sessions));
  (* serial recording of session [i], as the reference pass runs it;
     traced, with the native run and a span per layer *)
  let reference_run ~spans i =
    let (s : Service.session) = sessions.(i) in
    let tr = if spans then tr else None in
    let span name f = Trace.span tr name f in
    Trace.set_item tr i;
    span "item" @@ fun () ->
    let native =
      if !traced then Some (native_run tr ~max_steps:s.ss_max_steps ~sched:(s.ss_sched ()) ~seed:s.ss_seed s.ss_prepared)
      else None
    in
    let t0 = now () in
    let r =
      span "recorder.record" (fun () ->
          Light.record_prepared ~sched:(s.ss_sched ()) ~max_steps:s.ss_max_steps ~seed:s.ss_seed s.ss_prepared)
    in
    let log = span "log.write" (fun () -> Log.to_string r.log) in
    let dt = now () -. t0 in
    if spans then traced_steps := !traced_steps + r.outcome.steps;
    (r, log, native, dt)
  in
  (* serial reference pass: the expected log of every session; it also
     assigns intern ids in a deterministic order before the pool runs *)
  let reference =
    Array.init n (fun i ->
        let r, log, _, _ = reference_run ~spans:false i in
        (Digest.string log, record_counts r (String.length log)))
  in
  (* the traced run repeats the reference pass over the whole run, a
     quarter of the sessions after each batch, once plain and once traced
     (alternating which goes first): the traced runs give the record,
     native and log-write layers, the pairs give the tracing overhead *)
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  let reference_pair k =
    let quarter = (n + 3) / 4 in
    let plain_first = k / 4 land 1 = 0 in
    for i = k mod 4 * quarter to min n ((k mod 4 + 1) * quarter) - 1 do
      let go spans =
        let r, log, native, dt = reference_run ~spans i in
        incr attempted;
        check sessions.(i).ss_label
          (if Digest.string log <> fst reference.(i) then Some "serial recording is not repeatable"
           else Option.bind native (fun native -> same_steps ~native r.outcome.steps));
        let acc = if spans then traced_s else plain_s in
        acc := !acc +. dt
      in
      go (not plain_first);
      go plain_first
    done
  in
  let pool = Engine.Pool.create ~size:(min 2 (Domain.recommended_domain_count ())) () in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let tp = tail_pct n in
  let batch_s = ref [] and p50s = ref [] and tails = ref [] and batches = ref [] in
  let peak_mb = ref 0.0 in
  let t_start = now () in
  let k = ref 0 in
  while !k = 0 || now () -. t_start < !seconds do
    setup_due setups ~elapsed:(now () -. t_start);
    Gc.compact ();
    let h = host_sample () in
    let t0 = now () in
    let results, stats = span "service.run" (fun () -> Service.run ~pool sessions) in
    batch_s := (now () -. t0, h) :: !batch_s;
    Array.iteri
      (fun i (r : Service.result_) ->
        incr attempted;
        check r.sr_label
          (match r.sr_status with
          | Service.Done when r.sr_digest = fst reference.(i) -> None
          | Done -> Some "log differs from the serial recording"
          | Rejected -> Some "rejected"
          | Failed e -> Some ("failed: " ^ e)))
      results;
    (* submit -> finish over all the batch's Done sessions *)
    let ls = Service.latencies results in
    p50s := (Service.percentile 50.0 ls, h) :: !p50s;
    tails := (Service.percentile tp ls, h) :: !tails;
    if !traced then begin
      let p50 f = Service.percentile 50.0 (Array.map f results) in
      batches :=
        {
          b_queue_p50_s = p50 (fun r -> r.Service.sr_queue_s);
          b_exec_p50_s = p50 (fun r -> r.sr_run_s);
          b_host = h;
          b_stats = stats;
        }
        :: !batches;
      reference_pair !k
    end;
    if !k = 0 then peak_mb := peak_rss_mb ();
    incr k
  done;
  finish_setups setups;
  Printf.eprintf "%d sessions x %d batches on %d workers; latency tail = p%g over n=%d sessions, median batch\n%!" n !k
    (Engine.Pool.size pool) tp n;
  let scaled_median l = median (List.map scaled l) in
  let batch_s = scaled_median !batch_s in
  {
    setup_s = setup_s setups;
    corpus;
    counts = Array.to_list (Array.map snd reference);
    record_s = batch_s;
    pipeline_s = batch_s;
    latency_p50_s = scaled_median !p50s;
    latency_tail_s = scaled_median !tails;
    peak_mb = !peak_mb;
    plain_s = !plain_s;
    traced_s = !traced_s;
    batches = !batches;
  }

(* ------------------------------------------------------------------ *)
(* Metric tables                                                       *)
(* ------------------------------------------------------------------ *)

let csum f cs = float (List.fold_left (fun a c -> a + f c) 0 cs)

let end_to_end (s : summary) =
  [
    ("setup_s", s.setup_s, "s");
    ("record_msteps_per_s", ratio (csum (fun c -> c.c_steps) s.counts) s.record_s /. 1e6, "Msteps/s");
    ("log_bytes_per_kstep", ratio (csum (fun c -> c.c_bytes) s.counts) (csum (fun c -> c.c_steps) s.counts) *. 1000.0, "B");
    ("items_per_s", ratio (float (List.length s.counts)) s.pipeline_s, "1/s");
    ("latency_p50_ms", s.latency_p50_s *. 1000.0, "ms");
    ("latency_tail_ms", s.latency_tail_s *. 1000.0, "ms");
    ("peak_rss_mb", s.peak_mb, "MB");
    ("passed_frac", ratio (float (!attempted - !failed)) (float !attempted), "ratio");
  ]

let layers (s : summary) =
  let tr = Option.get tr in
  let self = Trace.self ~scale:(Hostref.scale host) tr in
  let get name = Option.value ~default:{ Trace.self_s = 0.0; self_words = 0.0; calls = 0 } (Hashtbl.find_opt self name) in
  (* layer times and allocations are per traced item (suite) or per
     reference session (service); setup layers are per setup round *)
  let items = float (get "item").calls in
  let per_item name = ratio (get name).self_s items in
  let words name = ratio (get name).self_words items in
  let per_step name = ratio (get name).self_words (float !traced_steps) in
  let cs = s.counts in
  let n = float (List.length cs) in
  let mean f = ratio (csum f cs) n in
  let steps = csum (fun c -> c.c_steps) cs in
  let bytes_per_item = mean (fun c -> c.c_bytes) in
  let native = (get "runtime.native").self_s in
  let inst, guard = site_counts s.corpus in
  let batches = float (List.length s.batches) in
  let svc f = ratio (float (List.fold_left (fun a b -> a + f b.b_stats) 0 s.batches)) batches in
  [
    ("lang.parse_s", ratio (get "lang.parse").self_s (float setup_rounds), "s");
    ("prepare.s", ratio (get "prepare").self_s (float setup_rounds), "s");
    ("analysis.instrumented_sites", float inst, "count");
    ("analysis.guarded_sites", float guard, "count");
    ("runtime.native_s", per_item "runtime.native", "s");
    ("runtime.native_msteps_per_s", ratio (float !traced_steps) native /. 1e6, "Msteps/s");
    ("runtime.minor_words_per_step", per_step "runtime.native", "words");
    ("recorder.record_s", per_item "recorder.record", "s");
    ("recorder.overhead_ratio", ratio (get "recorder.record").self_s native, "ratio");
    ("recorder.cost_overhead", ratio (List.fold_left (fun a c -> a +. c.c_cost) 0.0 cs) steps, "ratio");
    ("recorder.minor_words_per_step", per_step "recorder.record", "words");
    ("recorder.records_per_kstep", ratio (csum (fun c -> c.c_records) cs) steps *. 1000.0, "count");
    ("recorder.space_longs_per_kstep", ratio (csum (fun c -> c.c_space) cs) steps *. 1000.0, "longs");
    ("log.write_s", per_item "log.write", "s");
    ("log.write_mb_per_s", ratio bytes_per_item (per_item "log.write") /. 1e6, "MB/s");
    ("log.write_minor_words", words "log.write", "words");
    ("log.parse_s", per_item "log.parse", "s");
    ("log.parse_mb_per_s", ratio bytes_per_item (per_item "log.parse") /. 1e6, "MB/s");
    ("log.parse_minor_words", words "log.parse", "words");
    ("constraints.gen_s", per_item "constraints.gen", "s");
    ("constraints.pairs", mean (fun c -> c.c_pairs), "count");
    ("constraints.pruned_frac", ratio (csum (fun c -> c.c_pruned) cs) (csum (fun c -> c.c_pairs) cs), "ratio");
    ("constraints.clauses", mean (fun c -> c.c_clauses), "count");
    ("constraints.hard", mean (fun c -> c.c_hard), "count");
    ("constraints.minor_words", words "constraints.gen", "words");
    ("solver.solve_s", per_item "solver.solve", "s");
    ("solver.decisions", mean (fun c -> c.c_decisions), "count");
    ("solver.backtracks", mean (fun c -> c.c_backtracks), "count");
    ("solver.theory_conflicts", mean (fun c -> c.c_conflicts), "count");
    ("solver.minor_words", words "solver.solve", "words");
    ("replayer.schedule_s", per_item "replayer.schedule", "s");
    ("replayer.run_s", per_item "replayer.run", "s");
    ("replayer.slowdown", ratio (get "replayer.run").self_s native, "ratio");
    ("replayer.minor_words", words "replayer.schedule" +. words "replayer.run", "words");
    ("validate.s", per_item "validate", "s");
    ("offline.glue_s", per_item "offline", "s");
    ("service.run_s", ratio (get "service.run").self_s batches, "s");
    ("service.queue_wait_p50_ms", median (List.map (fun b -> scaled (b.b_queue_p50_s, b.b_host)) s.batches) *. 1000.0, "ms");
    ("service.exec_p50_ms", median (List.map (fun b -> scaled (b.b_exec_p50_s, b.b_host)) s.batches) *. 1000.0, "ms");
    ("service.inline_runs", svc (fun st -> st.st_inline_runs), "count");
    ("service.recorders_created", svc (fun st -> st.st_recorders_created), "count");
    ("bqueue.peak", svc (fun st -> st.st_queue.bq_peak), "count");
    ("bqueue.blocked_pushes", svc (fun st -> st.st_queue.bq_blocked_pushes), "count");
    ("bqueue.blocked_pops", svc (fun st -> st.st_queue.bq_blocked_pops), "count");
    ("trace.overhead_frac", ratio s.traced_s s.plain_s -. 1.0, "ratio");
    ("hostref.kernel_ms", Hostref.kernel_s host *. 1000.0, "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let s =
    match !workload with
    | "suite-o1o2" -> suite Light.v_both ~per_program:(if !smoke then 1 else 4)
    | "suite-basic" -> suite Light.v_basic ~per_program:(if !smoke then 1 else 2)
    | "service" -> service ()
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  let m = if !traced then layers s else end_to_end s in
  (match tr with
  | Some tr when !spans_dir <> "" ->
    Trace.dump ~scale:(Hostref.scale host) tr (Filename.concat !spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed))
  | _ -> ());
  Printf.eprintf "host kernel %.3f ms (median of %d runs); times are scaled to the reference %.3f ms\n"
    (Hostref.kernel_s host *. 1000.0) host.n (Hostref.reference_s *. 1000.0);
  List.iter (fun (k, v, u) -> Printf.eprintf "  %-32s %14.6g %s\n" k v u) m;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (!failed = 0 && !attempted > 0)
    !attempted !failed
    (String.concat ", " (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num v) u) m))
