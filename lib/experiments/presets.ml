(* Every sweep command as a preset over the one driver ({!Runner}): a
   key list, a spec per key, and the columns/series to print. *)

open Runner

let name = Core.Consistency.to_string
let modes = Core.Consistency.all
let grid xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* First-appearance order. *)
let distinct xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let micro_windows quick = if quick then (1_000.0, 4_000.0) else (2_000.0, 8_000.0)
let tpcw_windows quick = if quick then (3_000.0, 10_000.0) else (5_000.0, 25_000.0)

let micro_params quick =
  if quick then { Workload.Microbench.default with rows = 2_000 }
  else Workload.Microbench.default

(* 80 closed-loop clients sharing one workload value, built per run. *)
let micro ?(clients = 80) ?workload ~config ~mode ~params window =
  let workload =
    match workload with Some w -> w | None -> Workload.Microbench.workload params
  in
  Runner.micro ~config ~mode ~params window (closed clients workload)

(* --- Figure 3: throughput vs update ratio ---------------------------- *)

let render_fig3 results =
  let at u mode = List.assoc_opt (u, mode) results in
  Runner.render ~title:"Figure 3: micro-benchmark throughput vs update ratio (8 replicas)"
    ~chart:
      {
        y_label = "TPS";
        x_label = "update transaction types (of 40)";
        series =
          List.map
            (fun mode ->
              (name mode, fun u -> Option.map (fun s -> (float_of_int u, s.tps)) (at u mode)))
            modes;
      }
    (("upd types", string_of_int)
    :: List.concat_map
         (fun mode ->
           [
             (name mode ^ " TPS", fun u -> cell (fun s -> s.tps) (at u mode));
             (name mode ^ " ms", fun u -> cell (fun s -> s.response_ms) (at u mode));
           ])
         modes)
    (distinct (List.map (fun ((u, _), _) -> u) results))

let fig3 ~quick ~seed =
  let params = micro_params quick in
  let update_points =
    if quick then [ 0; 10; 20; 40 ] else [ 0; 5; 10; 15; 20; 25; 30; 35; 40 ]
  in
  let config = { Core.Config.default with seed } in
  render_fig3
    (sweep
       (fun (update_types, mode) ->
         micro ~config ~mode ~params:{ params with update_types } (micro_windows quick))
       (grid update_points modes))

(* --- Figure 4: latency breakdown ------------------------------------- *)

(* The global stage exists only for update transactions: its bar is the
   update-transaction mean, the other stages the overall mean. *)
let fig4_bars s =
  List.map
    (fun st ->
      if st = Core.Metrics.Global then
        s.stage_update_ms.(Core.Metrics.stage_index Core.Metrics.Global)
      else stage s st)
    Core.Metrics.stages

let render_fig4 results =
  String.concat "\n"
    (List.map
       (fun pct ->
         let rows =
           List.filter_map
             (fun ((p, mode), s) -> if p = pct then Some (mode, fig4_bars s) else None)
             results
         in
         Runner.render
           ~title:(Printf.sprintf "Figure 4: latency breakdown, %d%% update mix (ms)" pct)
           ((("config", fun (mode, _) -> name mode)
            :: List.mapi
                 (fun i st ->
                   ( Core.Metrics.stage_name st,
                     fun (_, bars) -> Report.fmt_f (List.nth bars i) ))
                 Core.Metrics.stages)
           @ [ ("total", fun (_, bars) -> Report.fmt_f (List.fold_left ( +. ) 0.0 bars)) ])
           rows)
       (distinct (List.map (fun ((p, _), _) -> p) results)))

let fig4 ~quick ~seed =
  let params = micro_params quick in
  let config = { Core.Config.default with seed } in
  render_fig4
    (sweep
       (fun (pct, mode) ->
         let update_types = pct * params.Workload.Microbench.tables / 100 in
         micro ~config ~mode ~params:{ params with update_types } (micro_windows quick))
       (grid [ 25; 100 ] modes))

(* --- Figures 5-7: TPC-W over replica counts -------------------------- *)

(* Scaled load: clients = k x replicas; fixed load: clients = k. *)
let clients_per_replica = function
  | Workload.Tpcw.Browsing -> 100
  | Workload.Tpcw.Shopping -> 80
  | Workload.Tpcw.Ordering -> 50

let tpcw_sweep ~scaled ~quick ~seed mixes =
  let warmup_ms, measure_ms = tpcw_windows quick in
  let replica_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let params = Workload.Tpcw.default in
  sweep
    (fun (mix, (replicas, mode)) ->
      let k = clients_per_replica mix in
      {
        config = { Core.Config.tpcw with seed; replicas };
        mode;
        schemas = Workload.Tpcw.schemas;
        load = Workload.Tpcw.load params;
        clients =
          Closed
            ( (if scaled then k * replicas else k),
              fun sid -> Workload.Tpcw.workload params mix ~sid );
        warmup_ms;
        measure_ms;
      })
    (grid mixes (grid replica_counts modes))

let present results mixes =
  List.filter (fun mix -> List.exists (fun ((m, _), _) -> m = mix) results) mixes

(* One mix's replicas x mode table, optionally charted. *)
let tpcw_panel results ~title ?y_label metric mix =
  let at n mode = List.assoc_opt (mix, (n, mode)) results in
  let chart =
    Option.map
      (fun y_label ->
        {
          y_label;
          x_label = "replicas";
          series =
            List.map
              (fun mode ->
                ( name mode,
                  fun n -> Option.map (fun s -> (float_of_int n, metric s)) (at n mode) ))
              modes;
        })
      y_label
  in
  Runner.render ~title ?chart
    (("replicas", string_of_int)
    :: List.map (fun mode -> (name mode, fun n -> cell metric (at n mode))) modes)
    (List.sort_uniq compare (List.map (fun ((_, (n, _)), _) -> n) results))

let lazy_mixes = [ Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ]
let all_mixes = Workload.Tpcw.Browsing :: lazy_mixes

let render_fig56 results =
  let fig5 mix =
    List.map
      (fun (label, metric) ->
        tpcw_panel results ~y_label:label metric mix
          ~title:
            (Printf.sprintf "Figure 5: TPC-W %s — %s (scaled load)"
               (Workload.Tpcw.mix_name mix) label))
      [ ("throughput (TPS)", fun s -> s.tps); ("response time (ms)", fun s -> s.response_ms) ]
  in
  let fig6 mix =
    tpcw_panel results (fun s -> s.sync_delay_ms) mix
      ~title:
        (Printf.sprintf "Figure 6: TPC-W %s — synchronization delay (ms, scaled load)"
           (Workload.Tpcw.mix_name mix))
  in
  String.concat "\n" (List.concat_map fig5 (present results all_mixes))
  ^ String.concat "\n" (List.map fig6 (present results lazy_mixes))

let render_fig7 results =
  String.concat "\n"
    (List.map
       (fun mix ->
         tpcw_panel results (fun s -> s.response_ms) mix
           ~title:
             (Printf.sprintf "Figure 7: TPC-W %s — response time (ms, fixed load)"
                (Workload.Tpcw.mix_name mix)))
       (present results lazy_mixes))

let fig5 ~quick ~seed = render_fig56 (tpcw_sweep ~scaled:true ~quick ~seed all_mixes)
let fig7 ~quick ~seed = render_fig7 (tpcw_sweep ~scaled:false ~quick ~seed lazy_mixes)

(* --- batching sweep --------------------------------------------------- *)

type costs = Micro | Tpcw | Reexec

(* Refresh application priced like re-running the update statements. *)
let reexec c =
  {
    c with
    Core.Config.ws_apply_base_ms = c.Core.Config.stmt_base_ms +. c.Core.Config.commit_ms;
    ws_apply_row_ms = c.Core.Config.row_write_ms;
  }

let speedup_pct ~baseline ~batched =
  if baseline.tps <= 0.0 then 0.0 else ((batched.tps /. baseline.tps) -. 1.0) *. 100.0

let render_batch results =
  let pair u mode =
    match
      (List.assoc_opt (u, (mode, false)) results, List.assoc_opt (u, (mode, true)) results)
    with
    | Some baseline, Some batched -> Some (baseline, batched)
    | _ -> None
  in
  let gain (baseline, batched) = speedup_pct ~baseline ~batched in
  let modes = distinct (List.map (fun ((_, (mode, _)), _) -> mode) results) in
  Runner.render
    ~title:
      "Batching sweep: group certification + parallel refresh apply vs the unbatched \
       pipeline (8 replicas)"
    ~chart:
      {
        y_label = "throughput gain %";
        x_label = "update transaction types (of 40)";
        series =
          List.map
            (fun mode ->
              ( name mode,
                fun u -> Option.map (fun p -> (float_of_int u, gain p)) (pair u mode) ))
            modes;
      }
    (("upd types", string_of_int)
    :: List.concat_map
         (fun mode ->
           [
             (name mode ^ " TPS", fun u -> cell (fun (b, _) -> b.tps) (pair u mode));
             ("+batch TPS", fun u -> cell (fun (_, b) -> b.tps) (pair u mode));
             ( "gain %",
               fun u ->
                 match pair u mode with
                 | Some p -> Printf.sprintf "%+.1f" (gain p)
                 | None -> "-" );
           ])
         modes)
    (distinct (List.map (fun ((u, _), _) -> u) results))

let batch ~quick ~seed ~cert_batch ~apply_parallelism ~clients ~costs =
  let params = micro_params quick in
  let update_points = if quick then [ 0; 10; 20 ] else [ 0; 5; 10; 15; 20 ] in
  let config =
    match costs with
    | Micro -> Core.Config.default
    | Tpcw -> Core.Config.tpcw
    | Reexec -> reexec Core.Config.default
  in
  let config = { config with Core.Config.seed } in
  let batched =
    let b = Core.Config.batched config in
    {
      b with
      Core.Config.cert_batch;
      apply_parallelism =
        Option.value apply_parallelism ~default:b.Core.Config.apply_parallelism;
    }
  in
  render_batch
    (sweep
       (fun (update_types, (mode, is_batched)) ->
         micro ~clients
           ~config:(if is_batched then batched else config)
           ~mode ~params:{ params with update_types } (micro_windows quick))
       (grid update_points
          (grid
             [
               Core.Consistency.Coarse;
               Core.Consistency.Fine;
               Core.Consistency.Session;
               Core.Consistency.Eager;
             ]
             [ false; true ])))

(* --- ablations ---------------------------------------------------------- *)

type ablation = Apply | Span | Early_cert | Routing

let ablations =
  [ ("apply", Apply); ("span", Span); ("early-cert", Early_cert); ("routing", Routing) ]

let metric_tps = ("TPS", fun s -> s.tps)
let metric_resp = ("resp_ms", fun s -> s.response_ms)
let metric_version = ("version_ms", fun s -> stage s Core.Metrics.Version)

let ablation_table = function
  | Apply ->
    ( "Ablation: writeset shipping vs re-execution",
      [
        metric_tps; metric_resp; metric_version;
        ("sync_ms", fun s -> stage s Core.Metrics.Sync);
      ] )
  | Span -> ("Ablation: table-set granularity", [ metric_tps; metric_resp; metric_version ])
  | Early_cert ->
    ( "Ablation: early certification",
      [
        metric_tps; metric_resp;
        ("abort_pct", fun s -> 100.0 *. s.abort_rate);
        ("certify_ms", fun s -> stage s Core.Metrics.Certify);
      ] )
  | Routing ->
    ( "Ablation: load-balancer routing",
      [ metric_tps; metric_resp; ("p99_ms", fun s -> s.p99_ms) ] )

let render_ablation which rows =
  let title, metrics = ablation_table which in
  Runner.render ~title
    (("variant", fst)
    :: List.map (fun (h, f) -> (h, fun (_, s) -> Report.fmt_f (f s))) metrics)
    rows

(* Labelled variants, each one coarse-grained micro-benchmark run at 80
   clients on 2,000-row tables unless it says otherwise. *)
let ablation_variants ~quick which =
  let base = Core.Config.default in
  let window = (1_500.0, if quick then 3_000.0 else 6_000.0) in
  let run ?workload ?(mode = Core.Consistency.Coarse) ?(config = base) update_types =
    micro ?workload ~config ~mode window
      ~params:{ Workload.Microbench.default with rows = 2_000; update_types }
  in
  match which with
  | Apply ->
    [
      ("writeset shipping (paper)", run 20);
      ("re-execute at replicas", run ~config:(reexec base) 20);
    ]
  | Span ->
    let p = { Workload.Microbench.default with rows = 2_000; update_types = 10 } in
    List.map
      (fun (span, mode) ->
        ( Printf.sprintf "span=%d %s" span (name mode),
          run ~mode ~workload:(Workload.Microbench.span_workload p ~span) 10 ))
      (grid [ 1; 2; 4; 8; 16 ] [ Core.Consistency.Fine; Core.Consistency.Coarse ])
  | Early_cert ->
    let p = { Workload.Microbench.default with rows = 2_000; update_types = 40 } in
    List.map
      (fun (label, early) ->
        ( label,
          run
            ~config:{ base with Core.Config.early_certification = early }
            ~workload:(Workload.Microbench.hot_workload p ~hot_rows:40)
            40 ))
      [ ("early certification on", true); ("early certification off", false) ]
  | Routing ->
    List.map
      (fun (label, routing) -> (label, run ~config:{ base with Core.Config.routing } 10))
      [
        ("least-active (paper)", Core.Config.Least_active);
        ("round-robin", Core.Config.Round_robin);
        ("random", Core.Config.Random_replica);
        ("session-affinity", Core.Config.Session_affinity);
      ]

let ablation ~quick which =
  render_ablation which
    (List.map (fun ((label, _), s) -> (label, s)) (sweep snd (ablation_variants ~quick which)))

(* --- extension workloads ---------------------------------------------- *)

let ycsb ~seed =
  let params = Workload.Ycsb.default in
  let mixes = Workload.Ycsb.[ A; B; C; D; E; F ] in
  let results =
    sweep
      (fun (mix, mode) ->
        {
          config = { Core.Config.default with seed; replicas = 4 };
          mode;
          schemas = Workload.Ycsb.schemas params;
          load = Workload.Ycsb.load params;
          clients = closed 40 (Workload.Ycsb.workload params mix);
          warmup_ms = 1_000.0;
          measure_ms = 4_000.0;
        })
      (grid mixes modes)
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "YCSB on 4 replicas, 40 closed-loop clients, 10k records (zipf 0.99)\n\n";
  Printf.bprintf b "%-7s %-8s %9s %9s %8s\n" "mix" "mode" "TPS" "resp(ms)" "abort%";
  List.iter
    (fun mix ->
      List.iter
        (fun mode ->
          let s = List.assoc (mix, mode) results in
          Printf.bprintf b "%-7s %-8s %9.0f %9.2f %8.2f\n" (Workload.Ycsb.mix_name mix)
            (name mode) s.tps s.response_ms (100.0 *. s.abort_rate))
        modes;
      Buffer.add_char b '\n')
    mixes;
  Buffer.contents b

let tpcc ~seed =
  (* 5 terminals per warehouse: optimistic certification turns the spec's
     hot rows (w_ytd, d_next_o_id) into write-write aborts, so contention
     is kept at the moderate end; the abort column shows what remains. *)
  let params = { Workload.Tpcc.default with Workload.Tpcc.warehouses = 8 } in
  let results =
    sweep
      (fun mode ->
        {
          config = { Core.Config.default with seed; replicas = 4 };
          mode;
          schemas = Workload.Tpcc.schemas;
          load = Workload.Tpcc.load params;
          clients =
            closed 40
              {
                (Workload.Tpcc.workload params) with
                Core.Client.think_ms = Core.Client.exp_think ~mean_ms:100.0;
              };
          warmup_ms = 1_000.0;
          measure_ms = 6_000.0;
        })
      modes
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "TPC-C on 4 replicas, 40 paced terminals, %d warehouses x %d districts\n\n"
    params.Workload.Tpcc.warehouses params.Workload.Tpcc.districts_per_warehouse;
  Printf.bprintf b "%-8s %9s %9s %8s %9s\n" "mode" "TPS" "resp(ms)" "abort%" "sync(ms)";
  List.iter
    (fun (mode, s) ->
      Printf.bprintf b "%-8s %9.0f %9.2f %8.2f %9.2f\n" (name mode) s.tps s.response_ms
        (100.0 *. s.abort_rate) s.sync_delay_ms)
    results;
  Printf.bprintf b "\nStatic SI analysis: %s\n"
    (if Check.Si_analysis.serializable_under_si Workload.Tpcc.profiles then
       "no dangerous structures — TPC-C runs serializably under GSI (as the paper notes)"
     else "dangerous structures found");
  Buffer.contents b

(* --- consistency validation of live runs ------------------------------ *)

let check ~seed =
  let params = { Workload.Microbench.tables = 8; rows = 500; update_types = 4 } in
  let config =
    { Core.Config.default with seed; replicas = 4; record_log = true; gc_interval_ms = 0.0 }
  in
  let rows =
    map_jobs
      (fun mode ->
        let log =
          Core.Cluster.records
            (run (micro ~clients:24 ~config ~mode ~params (300.0, 5_000.0)))
        in
        let count check = List.length (check log) in
        Printf.sprintf "%-8s %9d %8d %8d %8d %8d\n" (name mode) (List.length log)
          (count Check.Runlog.strong_consistency)
          (count Check.Runlog.fine_strong_consistency)
          (count Check.Runlog.session_consistency)
          (count Check.Runlog.first_committer_wins))
      modes
  in
  "Running each configuration for 5s of virtual time with logging on...\n\n"
  ^ Printf.sprintf "%-8s %9s %8s %8s %8s %8s\n" "mode" "txns" "strong" "tableset" "session"
      "wwconf"
  ^ String.concat "" rows
  ^ "\nExpected: eager/coarse have 0 everywhere; fine has 0 in tableset/wwconf;\n\
     session has 0 in session/wwconf but may be non-zero in strong (it is weaker).\n"

(* --- every table and figure -------------------------------------------- *)

let all ~quick ~seed =
  [
    Table1.render;
    (fun () -> fig3 ~quick ~seed);
    (fun () -> fig4 ~quick ~seed);
    (fun () -> fig5 ~quick ~seed);
    (fun () -> fig7 ~quick ~seed);
  ]
  @ List.map (fun (_, a) () -> ablation ~quick a) ablations

(* --- the instrumented demo cluster ------------------------------------- *)

let demo_mix = Workload.Tpcw.Shopping

let demo ~quick ~seed ~cert_batch ~apply_parallelism =
  (* Shorter think time than the benchmark default so the demo trace is
     dense enough to be interesting. *)
  let params = { Workload.Tpcw.default with Workload.Tpcw.think_mean_ms = 300.0 } in
  let warmup_ms, measure_ms = if quick then (500.0, 2_000.0) else (1_000.0, 5_000.0) in
  {
    config =
      { Core.Config.tpcw with seed; replicas = 4; cert_batch; apply_parallelism };
    mode = Core.Consistency.Fine;
    schemas = Workload.Tpcw.schemas;
    load = Workload.Tpcw.load params;
    clients = Closed (40, fun sid -> Workload.Tpcw.workload params demo_mix ~sid);
    warmup_ms;
    measure_ms;
  }
