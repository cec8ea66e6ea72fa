(* Record-service tests: the determinism contract extended to long-lived
   sessions.  A session's log bytes must not depend on which worker ran it,
   the pool size, the queue capacity, the back-pressure policy, or whether
   its recorder was fresh or recycled — and a recycled recorder must not
   bleed any per-session state (site_hits, meter, arenas) into the next
   session.  Plus the supporting primitives: the bounded queue's
   close-then-drain guarantee and the Pool's exception ordering and
   shutdown-with-queued-work behavior. *)

open Runtime

let parse src = Lang.Check.validate_exn (Lang.Parser.parse_program src)

(* two programs with different shapes (and site counts), so recycling a
   recorder across them exercises the modes/site_hits re-fit *)
let prog_a = parse {|
  global x; global y;
  fn w1() { x = 1; y = x + 1; x = y * 2; }
  fn w2() { x = 5; y = x + 3; x = y * 7; }
  main { x = 0; y = 0; spawn a = w1(); spawn b = w2(); join a; join b; print x; print y; }
|}

let prog_b = parse {|
  global d; global sum; global m;
  fn worker(base) {
    i = 0;
    while (i < 6) {
      lock m; v = d[(base + i) % 8]; d[(base + i) % 8] = v + 1; unlock m;
      sum = sum + v;
      i = i + 1;
    }
  }
  main {
    d = new[8]; sum = 0; m = 0;
    spawn a = worker(0); spawn b = worker(4);
    join a; join b;
    print sum;
  }
|}

let sched ~seed () = Sched.sticky ~seed ~stickiness:4

(* a fresh recorder on the tree walker: what the service's recycled VM
   recordings must match byte for byte *)
let record_fresh ~seed pp = Tree_oracle.record ~sched:(sched ~seed ()) ~seed pp

let log_str (r : Light_core.Light.recording) =
  Light_core.Log.to_string r.Light_core.Light.log

(* ------------------------------------------------------------------ *)
(* Recorder recycling                                                   *)
(* ------------------------------------------------------------------ *)

let pp_a = Light_core.Light.prepare ~variant:Light_core.Light.v_both prog_a
let pp_b = Light_core.Light.prepare ~variant:Light_core.Light.v_both prog_b

let test_recycled_byte_identity () =
  (* a recorder that already served session A must produce byte-identical
     logs for session B — cleared-but-grown tables are indistinguishable
     from fresh ones *)
  let fresh_a = record_fresh ~seed:3 pp_a in
  let fresh_b = record_fresh ~seed:5 pp_b in
  let r =
    Light_core.Recorder.create ~variant:Light_core.Light.v_both
      (Light_core.Light.prepared_modes pp_a)
  in
  let rec_a =
    Light_core.Light.record_prepared ~sched:(sched ~seed:3 ()) ~seed:3
      ~recorder:r pp_a
  in
  let rec_b =
    Light_core.Light.record_prepared ~sched:(sched ~seed:5 ()) ~seed:5
      ~recorder:r pp_b
  in
  Alcotest.(check string) "A: recycled = fresh" (log_str fresh_a) (log_str rec_a);
  Alcotest.(check string) "B: recycled = fresh" (log_str fresh_b) (log_str rec_b)

let test_site_hits_no_bleed () =
  (* regression: site_hits must reset per session — hits from session A
     must not leak into session B's counts, and B's reuse must not clobber
     A's already-returned snapshot *)
  let fresh_a = record_fresh ~seed:3 pp_a in
  let fresh_b = record_fresh ~seed:5 pp_b in
  let r =
    Light_core.Recorder.create ~variant:Light_core.Light.v_both
      (Light_core.Light.prepared_modes pp_a)
  in
  let rec_a =
    Light_core.Light.record_prepared ~sched:(sched ~seed:3 ()) ~seed:3
      ~recorder:r pp_a
  in
  let a_hits_before = Array.copy rec_a.Light_core.Light.site_hits in
  let rec_b =
    Light_core.Light.record_prepared ~sched:(sched ~seed:5 ()) ~seed:5
      ~recorder:r pp_b
  in
  let prefix n a = Array.sub a 0 n in
  let nb = Array.length fresh_b.Light_core.Light.site_hits in
  Alcotest.(check bool) "B hits = fresh B hits (no bleed from A)" true
    (prefix nb rec_b.Light_core.Light.site_hits
    = fresh_b.Light_core.Light.site_hits);
  Alcotest.(check bool) "A's snapshot survives B's run" true
    (rec_a.Light_core.Light.site_hits = a_hits_before);
  Alcotest.(check int) "A's meter snapshot = fresh A's"
    fresh_a.Light_core.Light.space_longs rec_a.Light_core.Light.space_longs

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                        *)
(* ------------------------------------------------------------------ *)

let test_bqueue_capacity_and_drain () =
  let q = Engine.Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Engine.Bqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Engine.Bqueue.try_push q 2 = `Ok);
  Alcotest.(check bool) "push 3 full" true (Engine.Bqueue.try_push q 3 = `Full);
  Alcotest.(check int) "length" 2 (Engine.Bqueue.length q);
  Engine.Bqueue.close q;
  Alcotest.(check bool) "push after close" true (Engine.Bqueue.try_push q 4 = `Closed);
  (* close-then-drain: everything accepted is still delivered, FIFO *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Engine.Bqueue.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Engine.Bqueue.pop q);
  Alcotest.(check (option int)) "drained" None (Engine.Bqueue.pop q);
  let st = Engine.Bqueue.stats q in
  Alcotest.(check int) "accepted pushes" 2 st.Engine.Bqueue.bq_pushes;
  Alcotest.(check int) "peak depth" 2 st.Engine.Bqueue.bq_peak

let test_bqueue_concurrent_fifo () =
  (* a producer domain parks on the full queue; the consumer sees every item
     exactly once, in order, and the peak never exceeds the capacity *)
  let n = 500 in
  let q = Engine.Bqueue.create ~capacity:4 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          match Engine.Bqueue.push q i with
          | `Ok -> ()
          | `Closed -> failwith "closed early"
        done;
        Engine.Bqueue.close q)
  in
  let got = ref [] in
  let rec drain () =
    match Engine.Bqueue.pop q with
    | Some x -> got := x :: !got; drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check (list int)) "FIFO, exactly once" (List.init n Fun.id)
    (List.rev !got);
  let st = Engine.Bqueue.stats q in
  Alcotest.(check bool) "peak bounded by capacity" true
    (st.Engine.Bqueue.bq_peak <= 4)

(* ------------------------------------------------------------------ *)
(* Pool edge cases                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_concurrent_failures () =
  (* every job fails, from several domains at once: the merge must still
     re-raise job 0's exception, with its own exception type *)
  Engine.Pool.with_pool ~size:4 (fun pool ->
      match
        Engine.Pool.map_array pool
          ~f:(fun i () ->
            if i = 0 then invalid_arg "job zero" else failwith (string_of_int i))
          (Array.make 16 ())
      with
      | exception Invalid_argument msg ->
        Alcotest.(check string) "job 0's exception wins" "job zero" msg
      | exception _ -> Alcotest.fail "wrong exception propagated"
      | _ -> Alcotest.fail "expected a propagated exception")

let test_pool_shutdown_with_queued_work () =
  (* rapid small maps can leave stale helper closures queued (the caller
     drains all indices before the helpers wake); shutdown must still run
     every job exactly once and join cleanly *)
  let count = Atomic.make 0 in
  let total = ref 0 in
  Engine.Pool.with_pool ~size:4 (fun pool ->
      for _ = 1 to 20 do
        let n = 8 in
        total := !total + n;
        ignore
          (Engine.Pool.map_array pool
             ~f:(fun _ () -> Atomic.incr count)
             (Array.make n ()))
      done);
  (* with_pool has shut the pool down and joined its domains here *)
  Alcotest.(check int) "every job ran exactly once" !total (Atomic.get count)

let test_pool_default_shutdown_refused () =
  Alcotest.check_raises "default pool shutdown raises"
    (Invalid_argument "Pool.shutdown: cannot shut down the default pool")
    (fun () -> Engine.Pool.shutdown (Engine.Pool.get_default ()))

(* ------------------------------------------------------------------ *)
(* Service                                                              *)
(* ------------------------------------------------------------------ *)

let mk_sessions n =
  Array.init n (fun i ->
      Service.session ~label:(string_of_int i) ~seed:i
        ~sched:(sched ~seed:(100 + i))
        (if i mod 2 = 0 then pp_a else pp_b))

let digests results = Array.map (fun r -> r.Service.sr_digest) results

(* each session recorded alone, on the tree walker *)
let tree_digests (sessions : Service.session array) =
  Array.map
    (fun (s : Service.session) ->
      Digest.string
        (log_str
           (Tree_oracle.record ~max_steps:s.ss_max_steps ~sched:(s.ss_sched ())
              ~seed:s.ss_seed s.ss_prepared)))
    sessions

let test_service_pool_size_identity () =
  let sessions = mk_sessions 24 in
  let run ~size ~recycle =
    Engine.Pool.with_pool ~size (fun pool ->
        Service.run ~pool ~queue_capacity:4 ~recycle sessions)
  in
  let serial, st1 = run ~size:1 ~recycle:true in
  let wide, st4 = run ~size:4 ~recycle:true in
  let fresh, stf = run ~size:4 ~recycle:false in
  Alcotest.(check int) "serial all done" 24 st1.Service.st_done;
  Alcotest.(check int) "wide all done" 24 st4.Service.st_done;
  Alcotest.(check bool) "digests: 1 worker = tree walker" true
    (digests serial = tree_digests sessions);
  Alcotest.(check bool) "digests: 1 worker = 4 workers" true
    (digests serial = digests wide);
  Alcotest.(check bool) "digests: recycled = fresh recorders" true
    (digests serial = digests fresh);
  Alcotest.(check bool) "recycling: at most one recorder per worker" true
    (st4.Service.st_recorders_created <= st4.Service.st_workers);
  Alcotest.(check int) "no recycling: one recorder per session" 24
    stf.Service.st_recorders_created

let test_service_reject_backpressure () =
  (* a size-1 pool never drains concurrently, so Reject mode is fully
     deterministic: exactly [capacity] sessions are accepted (drained at
     close), every later submission is rejected *)
  let sessions = mk_sessions 12 in
  let results, stats =
    Engine.Pool.with_pool ~size:1 (fun pool ->
        Service.run ~pool ~queue_capacity:4 ~on_full:`Reject sessions)
  in
  Alcotest.(check int) "accepted = capacity" 4 stats.Service.st_done;
  Alcotest.(check int) "rest rejected" 8 stats.Service.st_rejected;
  Array.iteri
    (fun i (r : Service.result_) ->
      if i < 4 then
        Alcotest.(check bool) (string_of_int i ^ " done") true
          (r.Service.sr_status = Service.Done && r.Service.sr_digest <> "")
      else
        Alcotest.(check bool) (string_of_int i ^ " rejected") true
          (r.Service.sr_status = Service.Rejected && r.Service.sr_digest = ""))
    results

let test_service_park_drains () =
  (* Park mode on a size-1 pool: the submitter steals queued work when the
     queue fills, so every session completes — the drain-on-shutdown
     guarantee with zero consumers *)
  let sessions = mk_sessions 12 in
  let results, stats =
    Engine.Pool.with_pool ~size:1 (fun pool ->
        Service.run ~pool ~queue_capacity:2 ~on_full:`Park ~keep_logs:true
          sessions)
  in
  Alcotest.(check int) "all done" 12 stats.Service.st_done;
  Alcotest.(check int) "none rejected" 0 stats.Service.st_rejected;
  Array.iter
    (fun (r : Service.result_) ->
      match r.Service.sr_log with
      | Some l ->
        Alcotest.(check string) "digest matches kept log" (Digest.string l)
          r.Service.sr_digest
      | None -> Alcotest.fail "keep_logs retained no log")
    results

let test_service_empty () =
  let results, stats =
    Engine.Pool.with_pool ~size:2 (fun pool -> Service.run ~pool [||])
  in
  Alcotest.(check int) "no results" 0 (Array.length results);
  Alcotest.(check int) "no sessions" 0 stats.Service.st_sessions

(* ------------------------------------------------------------------ *)
(* Intern stats                                                         *)
(* ------------------------------------------------------------------ *)

let test_intern_stats () =
  Lang.Intern.reset_stats ();
  let before = Lang.Intern.stats () in
  Alcotest.(check int) "reset zeroes lookups" 0 before.Lang.Intern.st_lookups;
  let names = List.init 20 (fun i -> Printf.sprintf "svc_stat_probe_%d" i) in
  let ids = List.map Lang.Intern.id names in
  let again = List.map Lang.Intern.id names in
  Alcotest.(check bool) "interning is stable" true (ids = again);
  List.iter2
    (fun n i -> Alcotest.(check string) "name roundtrip" n (Lang.Intern.name i))
    names ids;
  let st = Lang.Intern.stats () in
  Alcotest.(check int) "one insert per fresh string" 20 st.Lang.Intern.st_inserts;
  Alcotest.(check int) "one lookup per id call" 40 st.Lang.Intern.st_lookups;
  Alcotest.(check int) "shard count reported" Lang.Intern.shard_count
    st.Lang.Intern.st_shards;
  Alcotest.(check bool) "mem sees interned strings" true
    (List.for_all Lang.Intern.mem names)

let () =
  Alcotest.run "service"
    [
      ( "recorder-recycling",
        [
          Alcotest.test_case "recycled log byte-identity" `Quick
            test_recycled_byte_identity;
          Alcotest.test_case "site_hits no bleed" `Quick test_site_hits_no_bleed;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "capacity + close-then-drain" `Quick
            test_bqueue_capacity_and_drain;
          Alcotest.test_case "concurrent FIFO" `Quick test_bqueue_concurrent_fifo;
        ] );
      ( "pool-edges",
        [
          Alcotest.test_case "concurrent failures: job 0 wins" `Quick
            test_pool_concurrent_failures;
          Alcotest.test_case "shutdown with queued work" `Quick
            test_pool_shutdown_with_queued_work;
          Alcotest.test_case "default pool shutdown refused" `Quick
            test_pool_default_shutdown_refused;
        ] );
      ( "service",
        [
          Alcotest.test_case "pool-size + recycle identity" `Quick
            test_service_pool_size_identity;
          Alcotest.test_case "reject back-pressure" `Quick
            test_service_reject_backpressure;
          Alcotest.test_case "park drains on shutdown" `Quick
            test_service_park_drains;
          Alcotest.test_case "empty corpus" `Quick test_service_empty;
        ] );
      ( "intern",
        [ Alcotest.test_case "stats + roundtrip" `Quick test_intern_stats ] );
    ]
