(* Report-layer tests (chart rendering, experiment plumbing) and
   whole-corpus properties: every bug model and every workload program
   pretty-prints, reparses and revalidates. *)

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Chart                                                               *)
(* ------------------------------------------------------------------ *)

let test_grouped () =
  let out =
    render
      (Report.Chart.grouped ~title:"T" ~series:[ "A"; "B" ]
         [ ("row1", [ 1.0; 2.0 ]); ("row2", [ 4.0; 1.0 ]) ])
  in
  Alcotest.(check bool) "title" true (contains out "T");
  Alcotest.(check bool) "series label" true (contains out "A");
  Alcotest.(check bool) "value printed" true (contains out "4.00");
  (* the per-row maximum fills the bar *)
  Alcotest.(check bool) "full bar for max" true (contains out (String.make 44 '#'))

let test_stacked () =
  let out =
    render
      (Report.Chart.stacked ~title:"S" ~segments:[ "x"; "y"; "z" ]
         [ ("r", [ 0.5; 0.25; 0.25 ]) ])
  in
  Alcotest.(check bool) "percentages" true (contains out "50%");
  Alcotest.(check bool) "legend" true (contains out "legend")

let test_stacked_zero_row () =
  (* all-zero rows must not divide by zero *)
  let out =
    render (Report.Chart.stacked ~title:"Z" ~segments:[ "x" ] [ ("r", [ 0.0 ]) ])
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table () =
  let out =
    render
      (Report.Chart.table ~title:"Tbl" ~header:[ "a"; "b" ]
         [ [ "1"; "22" ]; [ "333" ] ])
  in
  Alcotest.(check bool) "pads ragged rows" true (contains out "333")

(* ------------------------------------------------------------------ *)
(* Corpus roundtrips                                                    *)
(* ------------------------------------------------------------------ *)

let reparses (name : string) (p : Lang.Ast.program) =
  let printed = Lang.Pp.to_string p in
  match Lang.Parser.parse_program printed with
  | p2 ->
    (match Lang.Check.validate p2 with
    | [] -> ()
    | errs ->
      Alcotest.failf "%s: reprint fails validation: %s" name
        (Lang.Check.error_to_string (List.hd errs)))
  | exception Lang.Parser.Parse_error (m, l) ->
    Alcotest.failf "%s: reprint fails to parse (%s at line %d)" name m l

let test_bug_sources_roundtrip () =
  List.iter
    (fun (b : Bugs.Defs.bug) ->
      reparses b.name (Bugs.Defs.program_of b ());
      reparses (b.name ^ "+bg") (Bugs.Defs.program_of b ~background:true ()))
    Bugs.Defs.all

let test_workload_sources_roundtrip () =
  List.iter
    (fun (bm : Workloads.benchmark) -> reparses bm.name (Workloads.program bm))
    Workloads.all

let test_patched_sources_roundtrip () =
  List.iter
    (fun (b : Bugs.Defs.bug) ->
      let pi = Baselines.Chimera.patch (Bugs.Defs.program_of b ()) in
      reparses (b.name ^ "-patched") pi.patched)
    Bugs.Defs.all

(* ------------------------------------------------------------------ *)
(* Experiment plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let test_measurements_deterministic () =
  let bm = Option.get (Workloads.by_name "jgf-sparse") in
  let m1 = Report.Experiments.measure_benchmark bm in
  let m2 = Report.Experiments.measure_benchmark bm in
  Alcotest.(check bool) "same overheads" true
    (m1.leap.overhead = m2.leap.overhead
    && m1.light_both.overhead = m2.light_both.overhead);
  Alcotest.(check int) "same space" m1.light_both.space_longs m2.light_both.space_longs

let test_fig_rendering () =
  let ms =
    List.filter_map Workloads.by_name [ "jgf-series"; "dacapo-h2" ]
    |> List.map Report.Experiments.measure_benchmark
  in
  let f4 = render (Report.Experiments.fig4 ms) in
  Alcotest.(check bool) "fig4 mentions Leap" true (contains f4 "Leap");
  let f7 = render (Report.Experiments.fig7 ms) in
  Alcotest.(check bool) "fig7 mentions O1" true (contains f7 "O1")

(* ------------------------------------------------------------------ *)
(* The perf gate, on synthetic bench files (no timing)                 *)
(* ------------------------------------------------------------------ *)

module J = Analysis.Json
module E = Report.Experiments

let bench_file ?(bench = "interp") ?(rows = []) summary =
  let path = Filename.temp_file "bench" ".json" in
  at_exit (fun () -> Sys.remove path);
  let j =
    J.Obj
      [
        ("schema", J.Str "light-bench/v2"); ("bench", J.Str bench); ("params", J.Obj []);
        ("rows", J.List (List.map (fun r -> J.Obj r) rows)); ("summary", J.Obj summary);
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string j));
  path

let raw_file contents =
  let path = Filename.temp_file "bench" ".json" in
  at_exit (fun () -> Sys.remove path);
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  path

let gate bench ~fresh ~baseline =
  E.check ~bench ~rules:(snd (List.assoc bench E.gates)) ~fresh ~baseline
    (Format.formatter_of_buffer (Buffer.create 256))

let interp ?(basic = 1.2) ?epoch ?(vm = 1.0) () =
  let epoch = Option.value epoch ~default:basic in
  bench_file
    [ ("ratio_basic", J.Float basic); ("ratio_epoch", J.Float epoch); ("vm_speedup", J.Float vm) ]

let test_gate_interp () =
  let baseline = interp ~basic:1.0 () in
  let pass name fresh = Alcotest.(check bool) name true (gate "interp" ~fresh ~baseline) in
  let fail name fresh = Alcotest.(check bool) name false (gate "interp" ~fresh ~baseline) in
  (* baseline-relative: ratio_basic <= baseline x 1.20 *)
  pass "ratio_basic at baseline x 1.2" (interp ~basic:1.2 ());
  fail "ratio_basic past baseline x 1.2" (interp ~basic:(Float.succ 1.2) ~epoch:1.0 ());
  (* key-relative: ratio_epoch <= ratio_basic x 1.10 *)
  pass "ratio_epoch at ratio_basic x 1.1" (interp ~basic:1.1 ~epoch:(1.1 *. 1.1) ());
  fail "ratio_epoch past ratio_basic x 1.1" (interp ~basic:1.1 ~epoch:(Float.succ (1.1 *. 1.1)) ());
  (* constant: vm_speedup >= 1.0 *)
  pass "vm_speedup at 1.0" (interp ~vm:1.0 ());
  fail "vm_speedup below 1.0" (interp ~vm:(Float.pred 1.0) ())

let test_gate_sitecheck () =
  let row w i g = [ ("workload", J.Str w); ("instrumented", J.Int i); ("guarded", J.Int g) ] in
  let file rows = bench_file ~bench:"sitecheck" ~rows [] in
  let baseline = file [ row "a" 10 5; row "b" 3 0 ] in
  let check rows = gate "sitecheck" ~fresh:(file rows) ~baseline in
  Alcotest.(check bool) "equal counts" true (check [ row "a" 10 5; row "b" 3 0 ]);
  Alcotest.(check bool) "improvements and extra workloads" true
    (check [ row "b" 2 1; row "a" 9 5; row "c" 50 0 ]);
  Alcotest.(check bool) "one more instrumented" false (check [ row "a" 11 5; row "b" 3 0 ]);
  Alcotest.(check bool) "one fewer guarded" false (check [ row "a" 10 4; row "b" 3 0 ]);
  Alcotest.(check bool) "baseline workload not measured" false (check [ row "a" 10 5 ]);
  Alcotest.(check bool) "empty baseline" false
    (gate "sitecheck" ~fresh:(file [ row "a" 10 5 ]) ~baseline:(file []))

let test_gate_service () =
  let file ?(ident = true) ?(failed = 0) ?(rejected = 0) speedup =
    bench_file ~bench:"service"
      [
        ("identity_serial_vs_service", J.Bool ident); ("identity_naive_vs_service", J.Bool true);
        ("failed", J.Int failed); ("rejected", J.Int rejected);
        ("speedup_vs_naive", J.Float speedup);
      ]
  in
  let check ?(base = 2.0) fresh = gate "service" ~fresh ~baseline:(file base) in
  Alcotest.(check bool) "floor 2.0 met" true (check (file 2.0));
  Alcotest.(check bool) "below floor 2.0" false (check (file (Float.pred 2.0)));
  Alcotest.(check bool) "baseline x 0.5 met" true (check ~base:6.0 (file 3.0));
  Alcotest.(check bool) "below baseline x 0.5" false (check ~base:6.0 (file (Float.pred 3.0)));
  Alcotest.(check bool) "identity broken" false (check (file ~ident:false 3.0));
  Alcotest.(check bool) "a failed session" false (check (file ~failed:1 3.0));
  Alcotest.(check bool) "a rejected session" false (check (file ~rejected:1 3.0))

(* every way a comparison could be skipped fails the gate instead *)
let test_gate_fails_closed () =
  let fresh = interp () in
  let fails name baseline =
    Alcotest.(check bool) name false (gate "interp" ~fresh ~baseline)
  in
  fails "missing baseline file" (Filename.concat (Filename.get_temp_dir_name ()) "no-such-baseline.json");
  fails "unparsable baseline" (raw_file {|{"schema": "light-bench/v2", "rows": [|});
  fails "baseline in the old layout" (raw_file {|{"iters": 9, "rows": [], "geomean": {"ratio_basic": 1.33}}|});
  fails "baseline of another bench" (bench_file ~bench:"service" [ ("ratio_basic", J.Float 1.0) ]);
  fails "baseline key missing" (bench_file [ ("vm_speedup", J.Float 2.0) ]);
  let baseline = interp ~basic:1.0 () in
  Alcotest.(check bool) "fresh key missing" false
    (gate "interp" ~baseline
       ~fresh:(bench_file [ ("ratio_epoch", J.Float 1.0); ("vm_speedup", J.Float 2.0) ]));
  Alcotest.(check bool) "fresh key null" false
    (gate "interp" ~baseline
       ~fresh:
         (bench_file
            [ ("ratio_basic", J.Null); ("ratio_epoch", J.Float 1.0); ("vm_speedup", J.Float 2.0) ]));
  Alcotest.(check bool) "fresh key a string" false
    (gate "interp" ~baseline
       ~fresh:
         (bench_file
            [ ("ratio_basic", J.Float 1.0); ("ratio_epoch", J.Float 1.0); ("vm_speedup", J.Str "2") ]))

let () =
  Alcotest.run "report"
    [
      ( "chart",
        [
          Alcotest.test_case "grouped bars" `Quick test_grouped;
          Alcotest.test_case "stacked bars" `Quick test_stacked;
          Alcotest.test_case "zero rows safe" `Quick test_stacked_zero_row;
          Alcotest.test_case "tables" `Quick test_table;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "bug sources roundtrip" `Quick test_bug_sources_roundtrip;
          Alcotest.test_case "workload sources roundtrip" `Quick test_workload_sources_roundtrip;
          Alcotest.test_case "patched sources roundtrip" `Quick test_patched_sources_roundtrip;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "measurement determinism" `Slow test_measurements_deterministic;
          Alcotest.test_case "figure rendering" `Slow test_fig_rendering;
        ] );
      ( "gate",
        [
          Alcotest.test_case "interp rules at and past their bounds" `Quick test_gate_interp;
          Alcotest.test_case "sitecheck rules at and past their bounds" `Quick
            test_gate_sitecheck;
          Alcotest.test_case "service rules at and past their bounds" `Quick test_gate_service;
          Alcotest.test_case "fails closed" `Quick test_gate_fails_closed;
        ] );
    ]
