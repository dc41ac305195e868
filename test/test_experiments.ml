(* Tests for the experiments library: Table I exactness, report, plot and
   figure rendering, and a smoke run of the shared experiment driver. *)

let test_table1_exact () =
  (* The paper's Table I, row by row. *)
  let rows = Experiments.Table1.rows () in
  let expect =
    [
      ("T1", 1, 1, 0, 0);
      ("T2", 2, 1, 2, 2);
      ("T3", 3, 1, 3, 2);
      ("T4", 4, 1, 3, 4);
      ("T5", 5, 1, 5, 5);
      ("T6", 6, 6, 5, 5);
    ]
  in
  List.iter2
    (fun row (txn, vs, va, vb, vc) ->
      Alcotest.(check string) "txn" txn row.Experiments.Table1.txn;
      Alcotest.(check int) (txn ^ " V_system") vs row.Experiments.Table1.v_system;
      Alcotest.(check int) (txn ^ " V_A") va row.Experiments.Table1.v_a;
      Alcotest.(check int) (txn ^ " V_B") vb row.Experiments.Table1.v_b;
      Alcotest.(check int) (txn ^ " V_C") vc row.Experiments.Table1.v_c)
    rows expect

let test_table1_start_versions () =
  Alcotest.(check int) "fine-grained start for {A} after T5" 1
    (Experiments.Table1.fine_start_for_a ());
  Alcotest.(check int) "coarse-grained start after T5" 5
    (Experiments.Table1.coarse_start_after_t5 ())

let test_report_table () =
  let s =
    Experiments.Report.table ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yyy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "has header + rule + rows" true (List.length lines >= 4);
  (* All non-empty lines are equally wide. *)
  let widths =
    List.filter_map
      (fun l -> if String.length l = 0 then None else Some (String.length l))
      lines
  in
  Alcotest.(check bool) "aligned columns" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_report_fmt () =
  Alcotest.(check string) "large" "123" (Experiments.Report.fmt_f 123.4);
  Alcotest.(check string) "medium" "12.3" (Experiments.Report.fmt_f 12.34);
  Alcotest.(check string) "small" "1.23" (Experiments.Report.fmt_f 1.234)

let test_plot_renders () =
  let s =
    Experiments.Plot.chart ~width:20 ~height:6
      ~series:[ ("up", [ (0.0, 0.0); (1.0, 1.0); (2.0, 2.0) ]) ]
      ()
  in
  Alcotest.(check bool) "chart non-empty" true (String.length s > 100);
  Alcotest.(check bool) "marker present" true (String.contains s '*');
  Alcotest.(check bool) "legend present" true
    (String.length s >= 4
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "  *=up") lines)

let test_plot_empty () =
  Alcotest.(check string) "no data placeholder" "(no data)\n"
    (Experiments.Plot.chart ~series:[ ("e", []) ] ())

let test_runner_smoke () =
  (* A miniature end-to-end experiment through the shared driver. *)
  let params = { Workload.Microbench.tables = 4; rows = 200; update_types = 1 } in
  let config =
    {
      Core.Config.default with
      replicas = 2;
      seed = 1;
      gc_interval_ms = 0.0;
      record_log = true;
    }
  in
  let cluster =
    Experiments.Runner.run
      (Experiments.Runner.micro ~config ~mode:Core.Consistency.Coarse ~params
         (200.0, 1_000.0)
         (Experiments.Runner.closed 8 (Workload.Microbench.workload params)))
  in
  let s = Experiments.Runner.summarize cluster in
  Alcotest.(check bool) "throughput positive" true (s.Experiments.Runner.tps > 100.0);
  Alcotest.(check bool) "response positive" true (s.Experiments.Runner.response_ms > 0.0);
  let sessions =
    List.sort_uniq compare
      (List.map (fun r -> r.Check.Runlog.session) (Core.Cluster.records cluster))
  in
  Alcotest.(check int) "every client committed" 8 (List.length sessions);
  Alcotest.(check int) "replicas configured" 2
    (Core.Cluster.config cluster).Core.Config.replicas

(* --- Figure rendering, without simulating ----------------------------

   Fixed synthetic summaries through each preset's renderer, compared
   with golden text: the tables and charts the figure commands print
   are pinned byte for byte. *)

let synth i =
  let f = float_of_int i in
  {
    Experiments.Runner.tps = 1000.0 +. (137.5 *. f);
    response_ms = 3.0 +. (0.37 *. f);
    p99_ms = (3.0 +. (0.37 *. f)) *. 3.1;
    stage_ms = Array.init 6 (fun j -> 0.1 *. float_of_int (i + j));
    stage_update_ms = Array.init 6 (fun j -> (0.2 *. float_of_int (i + (2 * j))) +. 0.05);
    sync_delay_ms = 0.5 +. (0.11 *. f);
    abort_rate = 0.01 *. float_of_int (i mod 7);
  }

(* Keys in sweep order, each paired with the next synthetic summary. *)
let synthetic keys = List.mapi (fun i k -> (k, synth (i + 1))) keys

let grid xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let golden name =
  In_channel.with_open_bin (Filename.concat "golden" ("render_" ^ name ^ ".expected"))
    In_channel.input_all

let check_golden name rendered = Alcotest.(check string) name (golden name) rendered

let modes = Core.Consistency.all

let test_render_fig3 () =
  check_golden "fig3"
    (Experiments.Presets.render_fig3 (synthetic (grid [ 0; 10; 20; 40 ] modes)))

let test_render_fig4 () =
  check_golden "fig4" (Experiments.Presets.render_fig4 (synthetic (grid [ 25; 100 ] modes)))

let test_render_tpcw () =
  let tpcw mixes = synthetic (grid mixes (grid [ 1; 4 ] modes)) in
  check_golden "fig5"
    (Experiments.Presets.render_fig56
       (tpcw Workload.Tpcw.[ Browsing; Shopping; Ordering ]));
  check_golden "fig7"
    (Experiments.Presets.render_fig7 (tpcw Workload.Tpcw.[ Shopping; Ordering ]))

let test_render_batch () =
  check_golden "batch"
    (Experiments.Presets.render_batch
       (synthetic
          (grid [ 0; 10; 20 ]
             (grid Core.Consistency.[ Coarse; Fine; Session; Eager ] [ false; true ]))))

let test_ablation_render () =
  let counter = ref 0 in
  let rows labels =
    List.map
      (fun l ->
        incr counter;
        (l, synth !counter))
      labels
  in
  let table which labels = Experiments.Presets.render_ablation which (rows labels) in
  (* Bound in order: the synthetic counter runs left to right. *)
  let apply =
    table Experiments.Presets.Apply [ "writeset shipping (paper)"; "re-execute at replicas" ]
  in
  let span =
    table Experiments.Presets.Span
      (List.map
         (fun (span, mode) -> Printf.sprintf "span=%d %s" span (Core.Consistency.to_string mode))
         (grid [ 1; 2; 4; 8; 16 ] Core.Consistency.[ Fine; Coarse ]))
  in
  let early =
    table Experiments.Presets.Early_cert [ "early certification on"; "early certification off" ]
  in
  let routing =
    table Experiments.Presets.Routing
      [ "least-active (paper)"; "round-robin"; "random"; "session-affinity" ]
  in
  let s = apply ^ span ^ early ^ routing in
  check_golden "ablation" s

let test_render_tiers () =
  let points =
    List.mapi
      (fun i bound ->
        let rows =
          List.filter_map
            (fun (j, slug) ->
              if i = 0 && slug = "causal" then None
              else
                let f = float_of_int ((10 * i) + j) in
                Some
                  {
                    Experiments.Tiers.slug;
                    committed = 100 + (10 * i) + j;
                    mean_ms = 1.5 +. (0.73 *. f);
                    p99_ms = 9.0 +. (4.1 *. f);
                    mean_staleness = 0.25 *. f;
                    max_staleness = f;
                  })
            (List.mapi (fun j s -> (j, s)) Core.Consistency.all_tier_slugs)
        in
        {
          Experiments.Tiers.bound;
          tps = 2000.0 +. (321.0 *. float_of_int i);
          rows;
          violations = [ ("strong_consistency", i mod 2); ("tier_causal_ryw", 0) ];
          ordered = i = 2;
          digest = "d";
        })
      [ 0; 8; 32 ]
  in
  check_golden "tiers" (Experiments.Tiers.render points)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* --- Report sparklines --- *)

let test_sparkline () =
  Alcotest.(check string) "empty series" "" (Experiments.Report.sparkline []);
  let s = Experiments.Report.sparkline [ 0.0; 4.0; 8.0 ] in
  Alcotest.(check int) "one char per value" 3 (String.length s);
  Alcotest.(check char) "zero renders blank" ' ' s.[0];
  Alcotest.(check char) "max renders the top level" '@' s.[2];
  (* A tiny nonzero value must stay visible. *)
  let t = Experiments.Report.sparkline [ 0.001; 8.0 ] in
  Alcotest.(check bool) "nonzero never blank" true (t.[0] <> ' ')

(* --- Bench baseline + regression gate --- *)

let bench_point mode tps =
  {
    Experiments.Bench.mode;
    committed = int_of_float (tps *. 3.0);
    aborted = 10;
    tps;
    p50_ms = 2.0;
    p99_ms = 8.0;
    cert_decisions_per_sec = tps /. 4.0;
  }

let bench_run () =
  {
    Experiments.Bench.schema_version = Experiments.Bench.schema_version;
    seed = 42;
    replicas = 4;
    clients = 40;
    warmup_ms = 500.0;
    measure_ms = 3_000.0;
    quick = false;
    points =
      List.map
        (fun (m, tps) -> bench_point m tps)
        (List.combine Core.Consistency.all [ 9_000.0; 12_000.0; 11_500.0; 12_200.0 ]);
    sim_events = 2_000_000;
    wall_s = 2.5;
    sim_events_per_sec = 800_000.0;
  }

let test_bench_gate_passes_identical () =
  let r = bench_run () in
  Alcotest.(check (list string)) "identical runs pass the gate" []
    (Experiments.Bench.compare_runs ~baseline:r ~current:r ~threshold:0.15)

let test_bench_gate_flags_injected_regression () =
  (* The acceptance scenario: inflate the baseline TPS by 25% so the
     current run reads as a 20% throughput regression in every mode —
     the 15% gate must flag all four. *)
  let current = bench_run () in
  let baseline =
    {
      current with
      Experiments.Bench.points =
        List.map
          (fun (p : Experiments.Bench.point) ->
            { p with Experiments.Bench.tps = p.tps *. 1.25 })
          current.Experiments.Bench.points;
    }
  in
  let problems =
    Experiments.Bench.compare_runs ~baseline ~current ~threshold:0.15
  in
  Alcotest.(check int) "one finding per mode" 4 (List.length problems);
  List.iter
    (fun msg ->
      Alcotest.(check bool)
        (Printf.sprintf "finding names the metric: %s" msg)
        true
        (contains_substring msg "TPS regressed 20.0%"))
    problems

let test_bench_gate_flags_p99_and_shape () =
  let base = bench_run () in
  (* p99 is a higher-is-worse metric. *)
  let slow =
    {
      base with
      Experiments.Bench.points =
        List.map
          (fun (p : Experiments.Bench.point) ->
            { p with Experiments.Bench.p99_ms = p.p99_ms *. 1.5 })
          base.Experiments.Bench.points;
    }
  in
  Alcotest.(check int) "p99 regressions flagged" 4
    (List.length (Experiments.Bench.compare_runs ~baseline:base ~current:slow ~threshold:0.15));
  (* Parameter drift is a gate failure even with identical numbers. *)
  let drifted = { base with Experiments.Bench.seed = 43 } in
  Alcotest.(check bool) "seed drift flagged" true
    (Experiments.Bench.compare_runs ~baseline:base ~current:drifted ~threshold:0.15 <> []);
  let missing =
    { base with Experiments.Bench.points = List.tl base.Experiments.Bench.points }
  in
  Alcotest.(check bool) "missing mode flagged" true
    (List.exists
       (fun m -> contains_substring m "missing")
       (Experiments.Bench.compare_runs ~baseline:base ~current:missing ~threshold:0.15))

let test_bench_json_roundtrip () =
  let r = bench_run () in
  match Experiments.Bench.of_json (Experiments.Bench.to_json r) with
  | Ok r' -> Alcotest.(check bool) "print/parse round-trips" true (r' = r)
  | Error e -> Alcotest.failf "bench json did not parse back: %s" e

let test_bench_quick_sweep () =
  (* One real (quick) sweep end to end: all four modes produce traffic,
     the certifier is exercised, and the run passes its own gate. *)
  let r = Experiments.Bench.run ~quick:true () in
  Alcotest.(check int) "four configurations" 4 (List.length r.Experiments.Bench.points);
  List.iter
    (fun (p : Experiments.Bench.point) ->
      let name = Core.Consistency.to_string p.Experiments.Bench.mode in
      Alcotest.(check bool) (name ^ " commits flowed") true (p.Experiments.Bench.tps > 100.0);
      Alcotest.(check bool)
        (name ^ " certifier decided")
        true
        (p.Experiments.Bench.cert_decisions_per_sec > 0.0);
      Alcotest.(check bool) (name ^ " p99 >= p50") true
        (p.Experiments.Bench.p99_ms >= p.Experiments.Bench.p50_ms))
    r.Experiments.Bench.points;
  Alcotest.(check (list string)) "self-comparison passes" []
    (Experiments.Bench.compare_runs ~baseline:r ~current:r ~threshold:0.15);
  Alcotest.(check bool) "render mentions the sweep" true
    (contains_substring (Experiments.Bench.render r) "bench sweep")

(* --- Chaos health-timeline artifact --- *)

let test_chaos_health_json_shape () =
  let r =
    Experiments.Chaos.soak ~mode:Core.Consistency.Eager ~plan:Experiments.Chaos.Clean
      ~seed:1 ~duration_ms:1_000.0 ()
  in
  let doc =
    match
      Obs.Json.parse (Obs.Json.to_string (Experiments.Chaos.health_json [ r ]))
    with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "health artifact is not valid JSON: %s" e
  in
  Alcotest.(check (option (float 1e-9))) "versioned envelope" (Some 1.0)
    (Option.bind (Obs.Json.member "schema_version" doc) Obs.Json.to_float);
  match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list with
  | Some [ run ] ->
    let str name = Option.bind (Obs.Json.member name run) Obs.Json.to_str in
    let num name = Option.bind (Obs.Json.member name run) Obs.Json.to_float in
    Alcotest.(check (option string)) "mode" (Some "eager") (str "mode");
    Alcotest.(check (option string)) "plan" (Some "clean") (str "plan");
    Alcotest.(check bool) "verdict serialized" true
      (Obs.Json.member "ok" run = Some (Obs.Json.Bool true));
    Alcotest.(check bool) "digest present" true (str "digest" <> None);
    Alcotest.(check bool) "drain time present" true
      (match num "wedge_drain_ms" with Some d -> d >= 0.0 | None -> false);
    Alcotest.(check bool) "fault counters nested" true
      (match Obs.Json.member "faults" run with
      | Some f -> Obs.Json.member "drops" f <> None
      | None -> false)
  | Some rs -> Alcotest.failf "expected 1 run object, got %d" (List.length rs)
  | None -> Alcotest.fail "no runs array"

(* --- Domain-pool run driver ------------------------------------------- *)

let test_map_jobs_order_and_results () =
  let items = List.init 23 Fun.id in
  let serial = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        serial
        (Experiments.Runner.map_jobs ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 8 ]

let test_parallel_chaos_matrix_identical () =
  (* The tentpole's contract: every soak is one self-contained
     simulation, so the domain pool may only change wall-clock — the
     per-run runlog digests and the matrix result ordering must be
     bit-identical between [--jobs 1] and [--jobs 4]. *)
  let seeds = [ 3; 4 ] in
  let modes = [ Core.Consistency.Coarse; Core.Consistency.Session ] in
  let run jobs =
    Experiments.Chaos.soak_matrix ~modes ~plans:[ Experiments.Chaos.Mixed ] ~jobs ~seeds
      ~duration_ms:1_500.0 ()
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "same matrix size" (List.length serial) (List.length parallel);
  List.iter2
    (fun (a : Experiments.Chaos.result) (b : Experiments.Chaos.result) ->
      Alcotest.(check string) "seed matrix order preserved"
        (Printf.sprintf "%s/%d" (Core.Consistency.to_string a.mode) a.seed)
        (Printf.sprintf "%s/%d" (Core.Consistency.to_string b.mode) b.seed);
      Alcotest.(check string)
        (Printf.sprintf "digest identical for %s/%d" (Core.Consistency.to_string a.mode)
           a.seed)
        a.digest b.digest;
      Alcotest.(check int) "commit counts identical" a.committed b.committed)
    serial parallel

(* --- Chaos verdicts --- *)

(* A clean synthetic soak result: every requirement met. *)
let passing_soak plan =
  {
    Experiments.Chaos.mode = Core.Consistency.Fine;
    plan;
    seed = 49;
    tiers = false;
    committed = 500;
    aborted = 3;
    aborts_by_reason = [];
    violations = [ ("first_committer_wins", 0); ("epoch_fencing", 0) ];
    duplicate_commit_versions = 0;
    wedged = false;
    wedge_drain_ms = 40.0;
    digest = "d";
    drops = 0;
    duplicates = 0;
    delays = 0;
    retransmits = 0;
    suspects = 0;
    failovers = 0;
    reprovisions = 0;
    evictions = 0;
    promotions = 1;
    fenced = 0;
    epoch = 1;
    elections = 1;
    vote_denials = 0;
    lease_expiries = 0;
    lb_takeovers = 1;
    lb_fenced = 0;
    lb_epoch = 1;
    divergent_log_entries = 0;
    outage_max_ms = 0.0;
    shed = 1;
    deadline_expired = 0;
    retry_budget_exhausted = 0;
    max_queue_depth = 0;
    zombie_commits = 0;
  }

let test_chaos_failures_named () =
  let open Experiments.Chaos in
  let check name want r =
    Alcotest.(check (list string)) name want (failures r);
    Alcotest.(check bool) (name ^ ": ok iff no failures") (want = []) (ok r)
  in
  List.iter
    (fun plan -> check ("passing " ^ plan_name plan) [] (passing_soak plan))
    all_plans;
  (* The livelock signature: zero violations, yet no standby promoted. *)
  check "liveness only" [ "no promotion under cert-failover" ]
    { (passing_soak CertFailover) with promotions = 0; elections = 68 };
  check "control plane" [ "no promotion under control-plane"; "no LB takeover" ]
    { (passing_soak ControlPlane) with promotions = 0; lb_takeovers = 0 };
  check "promotions only required where the plan fails over" []
    { (passing_soak Mixed) with promotions = 0; lb_takeovers = 0; shed = 0 };
  check "overload" [ "nothing shed under overload" ] { (passing_soak Overload) with shed = 0 };
  check "safety and wedge, in order"
    [
      "wedged";
      "first_committer_wins violated (2)";
      "duplicate commit versions (1)";
      "divergent certifier log (3 entries)";
      "zombie commits (4)";
    ]
    {
      (passing_soak Mixed) with
      wedged = true;
      violations = [ ("first_committer_wins", 2); ("epoch_fencing", 0) ];
      duplicate_commit_versions = 1;
      divergent_log_entries = 3;
      zombie_commits = 4;
    }

let suites =
  [
    ( "experiments",
      [
        Alcotest.test_case "Table I rows exact" `Quick test_table1_exact;
        Alcotest.test_case "Table I start versions" `Quick test_table1_start_versions;
        Alcotest.test_case "report table" `Quick test_report_table;
        Alcotest.test_case "report fmt" `Quick test_report_fmt;
        Alcotest.test_case "plot renders" `Quick test_plot_renders;
        Alcotest.test_case "plot empty" `Quick test_plot_empty;
        Alcotest.test_case "runner smoke" `Quick test_runner_smoke;
        Alcotest.test_case "ablation render" `Quick test_ablation_render;
        Alcotest.test_case "fig3 render" `Quick test_render_fig3;
        Alcotest.test_case "fig4 render" `Quick test_render_fig4;
        Alcotest.test_case "fig5-7 render" `Quick test_render_tpcw;
        Alcotest.test_case "batch render" `Quick test_render_batch;
        Alcotest.test_case "tiers render" `Quick test_render_tiers;
        Alcotest.test_case "sparkline" `Quick test_sparkline;
        Alcotest.test_case "map_jobs order across pool sizes" `Quick
          test_map_jobs_order_and_results;
        Alcotest.test_case "chaos matrix digests identical at -j 4" `Quick
          test_parallel_chaos_matrix_identical;
        Alcotest.test_case "chaos failures name the requirement" `Quick
          test_chaos_failures_named;
      ] );
    ( "experiments.bench",
      [
        Alcotest.test_case "gate passes identical runs" `Quick
          test_bench_gate_passes_identical;
        Alcotest.test_case "gate flags 20% TPS regression" `Quick
          test_bench_gate_flags_injected_regression;
        Alcotest.test_case "gate flags p99 and shape drift" `Quick
          test_bench_gate_flags_p99_and_shape;
        Alcotest.test_case "baseline json round-trips" `Quick test_bench_json_roundtrip;
        Alcotest.test_case "quick sweep end to end" `Quick test_bench_quick_sweep;
        Alcotest.test_case "chaos health artifact shape" `Quick
          test_chaos_health_json_shape;
      ] );
  ]
