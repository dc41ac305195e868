let log_src = Logs.Src.create "repro.tiers" ~doc:"Read-tier latency/staleness frontier"

module Log = (val Logs.src_log log_src)

type tier_row = {
  slug : string;
  committed : int;
  mean_ms : float;
  p99_ms : float;
  mean_staleness : float;
  max_staleness : float;
}

type point = {
  bound : int;
  tps : float;
  rows : tier_row list;
  violations : (string * int) list;
  ordered : bool;
  digest : string;
}

(* The mode-level battery plus every tier contract. Mode checkers only
   constrain Strong-class records, tier checkers only their own class, so
   running all of them on a mixed-tier log is exactly the right split. *)
let checkers =
  [
    ("first_committer_wins", Check.Runlog.first_committer_wins);
    ("strong_consistency", Check.Runlog.strong_consistency);
    ("tier_bounded_staleness", Check.Runlog.tier_bounded_staleness);
    ("tier_causal_ryw", Check.Runlog.tier_causal_ryw);
    ("tier_monotone_reads", Check.Runlog.tier_monotone_reads);
  ]

let default_params = { Workload.Microbench.tables = 8; rows = 200; update_types = 4 }

let mean_of t slug = Core.Metrics.tier_mean_response_ms t slug

let ordered_rows metrics =
  (* The headline claim: weaker tier, faster read. Compared on mean
     read response at equal load within one run. *)
  let m = mean_of metrics in
  m "eventual" < m "bounded"
  && m "bounded" < m "causal"
  && m "causal" < m "strong"

let run_point ~config ~params ~clients ~warmup_ms ~measure_ms ~bound =
  let tier = Core.Consistency.Bounded_staleness { versions = Some bound; ms = None } in
  let cluster =
    Runner.run
      (Runner.micro ~config ~mode:Core.Consistency.Coarse ~params (warmup_ms, measure_ms)
         (Runner.closed clients
            (Workload.Microbench.tiered_workload ~bounded_tier:tier params)))
  in
  let metrics = Core.Cluster.metrics cluster in
  let rows =
    List.filter_map
      (fun slug ->
        let committed = Core.Metrics.tier_committed metrics slug in
        if committed = 0 then None
        else
          Some
            {
              slug;
              committed;
              mean_ms = Core.Metrics.tier_mean_response_ms metrics slug;
              p99_ms = Core.Metrics.tier_percentile_response_ms metrics slug 99.0;
              mean_staleness = Core.Metrics.tier_mean_staleness metrics slug;
              max_staleness = Core.Metrics.tier_max_staleness metrics slug;
            })
      Core.Consistency.all_tier_slugs
  in
  let records = Core.Cluster.records cluster in
  let violations =
    List.map
      (fun (name, check) ->
        let vs = check records in
        List.iteri
          (fun i v ->
            if i < 3 then
              Format.eprintf "[tiers k=%d] %s: %a@." bound name Check.Runlog.pp_violation
                v)
          vs;
        (name, List.length vs))
      checkers
  in
  {
    bound;
    tps = Core.Metrics.throughput_tps metrics;
    rows;
    violations;
    ordered = ordered_rows metrics;
    digest = Check.Runlog.digest records;
  }

let default_bounds = [ 0; 1; 2; 4; 8; 16; 32 ]

let run ?config ?(params = default_params) ?(clients = 24) ?(bounds = default_bounds)
    ?(seed = 42) ?(warmup_ms = 1_000.0) ?(measure_ms = 4_000.0) ?(jobs = 1) () =
  let config =
    match config with
    | Some c -> { c with Core.Config.seed; read_tiers = true; record_log = true }
    | None ->
      {
        Core.Config.default with
        Core.Config.seed;
        replicas = 4;
        read_tiers = true;
        record_log = true;
        (* Uniform replicas (no hiccup windows): with one replica
           periodically slowed, bounded reads filter it out by its lag
           and dodge its slow statements too, beating even eventual
           reads — a real effect, but it hides the pure cost of the
           floor wait the frontier is meant to show. Instead, apply is
           priced high enough that every replica runs a few versions
           behind the certifier, so each tier pays exactly its floor. *)
        hiccup_interval_ms = 0.0;
        ws_apply_base_ms = 0.1;
        ws_apply_row_ms = 0.04;
      }
  in
  (* Each frontier point is an independent cluster run; log after
     collection so the output order matches the bounds list whatever
     [jobs] is. *)
  let points =
    Runner.map_jobs ~jobs
      (fun bound -> run_point ~config ~params ~clients ~warmup_ms ~measure_ms ~bound)
      bounds
  in
  List.iter
    (fun p ->
      Log.info (fun m ->
          m "k=%-3d tps=%.0f ordered=%b violations=%d" p.bound p.tps p.ordered
            (List.fold_left (fun acc (_, n) -> acc + n) 0 p.violations)))
    points;
  points

let total_violations p = List.fold_left (fun acc (_, n) -> acc + n) 0 p.violations

let ok points =
  List.for_all (fun p -> total_violations p = 0) points
  (* The ordering claim needs a bound loose enough that bounded reads
     actually skip the version wait; tight bounds (k=0,1) legitimately
     price like strong reads. *)
  && List.exists (fun p -> p.bound >= 8 && p.ordered) points

let render points =
  let row p slug = List.find_opt (fun r -> r.slug = slug) p.rows in
  let slugs = Core.Consistency.all_tier_slugs in
  Runner.render
    ~title:"Read-tier frontier: read latency and served staleness vs declared max_lag"
    ~chart:
      {
        Runner.y_label = "read ms";
        x_label = "bounded-staleness max_lag (versions)";
        series =
          List.map
            (fun slug ->
              ( slug,
                fun p -> Option.map (fun r -> (float_of_int p.bound, r.mean_ms)) (row p slug) ))
            slugs;
      }
    ((("max_lag k", fun p -> string_of_int p.bound)
     :: List.concat_map
          (fun slug ->
            [
              (slug ^ " ms", fun p -> Runner.cell (fun r -> r.mean_ms) (row p slug));
              (slug ^ " p99", fun p -> Runner.cell (fun r -> r.p99_ms) (row p slug));
            ])
          slugs)
    @ [
        ("bounded lag", fun p -> Runner.cell (fun r -> r.mean_staleness) (row p "bounded"));
        ("eventual lag", fun p -> Runner.cell (fun r -> r.mean_staleness) (row p "eventual"));
        ("TPS", fun p -> Report.fmt_f p.tps);
        ("ordered", fun p -> if p.ordered then "yes" else "no");
        ("viol", fun p -> string_of_int (total_violations p));
      ])
    points
