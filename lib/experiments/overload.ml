(* Open-loop offered-rate sweep (docs/PROTOCOL.md, "Overload &
   admission control"): drive the cluster with a rate-paced arrival
   process at each offered rate and report goodput, shedding, latency
   and queue depth — the classic goodput-vs-offered-load curve that
   shows where an unprotected system collapses and a protected one
   plateaus. *)

type point = {
  offered_tps : float;
  goodput_tps : float;  (** committed transactions per second *)
  committed : int;
  aborted : int;
  shed : int;
  deadline_expired : int;
  retry_budget_exhausted : int;
  max_queue_depth : int;
  p50_ms : float;
  p99_ms : float;  (** response latency of committed transactions *)
  abort_rate : float;
}

let run_point ?(config = Core.Config.default) ?(params = Workload.Microbench.default)
    ?(clients = 16) ~mode ~offered_tps ~warmup_ms ~measure_ms () =
  let cluster =
    Runner.run
      (Runner.micro ~config ~mode ~params (warmup_ms, measure_ms)
         (Runner.Open (clients, offered_tps, Workload.Microbench.workload params)))
  in
  let m = Core.Cluster.metrics cluster in
  {
    offered_tps;
    goodput_tps = Core.Metrics.throughput_tps m;
    committed = Core.Metrics.committed m;
    aborted = Core.Metrics.aborted m;
    shed = Core.Metrics.shed m;
    deadline_expired = Core.Metrics.deadline_expired m;
    retry_budget_exhausted = Core.Metrics.retry_budget_exhausted m;
    max_queue_depth = Core.Metrics.max_queue_depth m;
    p50_ms = Core.Metrics.percentile_response_ms m 50.0;
    p99_ms = Core.Metrics.percentile_response_ms m 99.0;
    abort_rate = Core.Metrics.abort_rate m;
  }

let sweep ?config ?params ?clients ?(jobs = 1) ~mode ~rates ~warmup_ms ~measure_ms ()
    =
  Runner.map_jobs ~jobs
    (fun offered_tps ->
      run_point ?config ?params ?clients ~mode ~offered_tps ~warmup_ms ~measure_ms ())
    rates

let pp_point ppf p =
  Format.fprintf ppf
    "offered %8.0f tps  goodput %8.1f tps  p50 %7.2fms  p99 %7.2fms  committed=%-6d \
     aborted=%-5d shed=%-5d expired=%-4d budget_out=%-4d max_queue=%d"
    p.offered_tps p.goodput_tps p.p50_ms p.p99_ms p.committed p.aborted p.shed
    p.deadline_expired p.retry_budget_exhausted p.max_queue_depth

let point_json p =
  Obs.Json.Obj
    [
      ("offered_tps", Obs.Json.Num p.offered_tps);
      ("goodput_tps", Obs.Json.Num p.goodput_tps);
      ("committed", Obs.Json.Num (float_of_int p.committed));
      ("aborted", Obs.Json.Num (float_of_int p.aborted));
      ("shed", Obs.Json.Num (float_of_int p.shed));
      ("deadline_expired", Obs.Json.Num (float_of_int p.deadline_expired));
      ("retry_budget_exhausted", Obs.Json.Num (float_of_int p.retry_budget_exhausted));
      ("max_queue_depth", Obs.Json.Num (float_of_int p.max_queue_depth));
      ("p50_ms", Obs.Json.Num p.p50_ms);
      ("p99_ms", Obs.Json.Num p.p99_ms);
      ("abort_rate", Obs.Json.Num p.abort_rate);
    ]

let sweep_json ~mode points =
  Obs.Json.Obj
    [
      ("version", Obs.Json.Num 1.0);
      ("kind", Obs.Json.Str "overload_sweep");
      ("mode", Obs.Json.Str (Core.Consistency.to_string mode));
      ("points", Obs.Json.Arr (List.map point_json points));
    ]
