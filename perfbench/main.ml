(* The repository benchmark: one workload at one seed, measured end to
   end (tracing off) or layer by layer (traced), with every simulation's
   output checked. The last line of standard output is the JSON result;
   README.md documents the workloads, the metrics and how to run it. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]"

(* Where a traced run writes its host spans, relative to the repository
   root it runs from. *)
let out_dir = "perfbench/out"

(* --- one simulation ------------------------------------------------ *)

(* Everything one simulation yields. Virtual quantities are exact per
   seed; [*_ns] fields are host time. *)
type sim = {
  seed : int;
  committed : int;
  updates : int;
  aborted : int;
  given_up : int;
  aborts_by_reason : (string * int) list;
  window_ms : float;
  responses : float array;  (** response times of the window's commits *)
  p99_ms : float;  (** the window's own 99th percentile *)
  outage_ms : float;  (** longest interval with no commit acknowledged *)
  wedged : bool;  (** failover only: the post-heal drain saw no recovery *)
  stage_sums : float array;  (** [Metrics.stage] sums over all commits *)
  stage_update_sums : float array;  (** the same over update commits *)
  events : int;
  msgs : int;
  bytes : int;
  retransmits : int;
  cert_commits : int;
  cert_aborts : int;
  cert_util : float;
  cert_batch_mean : float;
  cert_log_size : int;
  elections : int;
  promotions : int;
  promotion_outage_ms : float;
  cpu_utils : float array;  (** per replica *)
  versions_total : int;
  digest : string;  (** runlog digest: the determinism fingerprint *)
  setup_ns : int;
  load_ns : int;
  sim_ns : int;
  gen_ns : int;
  gen_calls : int;
  minor_words : float;
  major_gcs : int;
  (* traced only *)
  spans : int;
  span_self_ms : (string * float) list;  (** mean virtual self time per span name *)
  cpu_queue_p99 : float;
  refresh_pending_max : float;
  backlog_max : float;
}

(* The virtual-time outcome of a simulation, rendered exactly (hex
   floats): two simulations of one seed must agree on it byte for byte.
   The one exception is a traced simulation's CPU utilisations, which
   agree to 12 digits: reading [Sim.Resource.utilization] folds the
   busy time accumulated so far, so the telemetry probes change the
   rounding of that float sum, though not a single event. *)
let virtual_key ?(probed = false) s =
  let f = Printf.sprintf "%h" and i = string_of_int in
  let util = if probed then Printf.sprintf "%.12g" else f in
  [
    ("committed", i s.committed);
    ("updates", i s.updates);
    ("aborted", i s.aborted);
    ("given_up", i s.given_up);
    ("window_ms", f s.window_ms);
    ("p99_ms", f s.p99_ms);
    ("outage_ms", f s.outage_ms);
    ("wedged", string_of_bool s.wedged);
    ("msgs", i s.msgs);
    ("bytes", i s.bytes);
    ("retransmits", i s.retransmits);
    ("cert_commits", i s.cert_commits);
    ("cert_aborts", i s.cert_aborts);
    ("cert_util", util s.cert_util);
    ("cert_log_size", i s.cert_log_size);
    ("elections", i s.elections);
    ("promotions", i s.promotions);
    ("promotion_outage_ms", f s.promotion_outage_ms);
    ("versions_total", i s.versions_total);
    ("digest", s.digest);
  ]
  @ List.mapi (fun k x -> (Printf.sprintf "stage_sums.%d" k, f x)) (Array.to_list s.stage_sums)
  @ List.mapi (fun k x -> (Printf.sprintf "cpu_util.%d" k, util x)) (Array.to_list s.cpu_utils)

let sub_seed seed i = (seed * 1_000) + i

(* Long windows run in slices of at most this much virtual time, each
   calibrated on its own: the machine's speed drifts within seconds.
   Running to intermediate horizons executes the same events as one run
   to the end. *)
let slice_ms = 5_000.0

(* Spans the cluster emits, by name; self time is a span's duration
   minus the part of it its child spans cover. *)
let self_times trace =
  let spans = Obs.Trace.spans trace in
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.id ()) spans;
  let child_ms = Hashtbl.create (List.length spans) in
  List.iter
    (fun (s : Obs.Span.t) ->
      match s.parent with
      | Some p when Hashtbl.mem by_id p ->
        let d = Float.max 0.0 (Obs.Span.duration_ms s) in
        Hashtbl.replace child_ms p (d +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms p))
      | _ -> ())
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.t) ->
      let d = Obs.Span.duration_ms s in
      let self =
        Float.max 0.0 (d -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id))
      in
      let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (n + 1, total +. self))
    spans;
  Hashtbl.fold (fun name (n, total) l -> (name, total /. float_of_int n) :: l) acc []

let series_values sampler ~from_ms pred =
  List.concat_map
    (fun (s : Obs.Sampler.series) ->
      if pred s.name then
        Array.to_list s.points
        |> List.filter_map (fun (t, v) -> if t >= from_ms then Some v else None)
      else [])
    (Obs.Sampler.series sampler)

let percentile_of values =
  let st = Util.Stats.create () in
  List.iter (Util.Stats.add st) values;
  fun p -> if Util.Stats.count st = 0 then 0.0 else Util.Stats.percentile st p

let list_max = List.fold_left Float.max 0.0

let replicas_of cluster =
  List.init (Core.Cluster.config cluster).Core.Config.replicas (Core.Cluster.replica cluster)

let simulate (w : Workloads.t) ~probe ~traced ~seed ~rate_tps =
  (* Collect the previous simulation's cluster first, so the heap peak
     is one cluster's and not two. *)
  Gc.full_major ();
  let config = w.config ~seed in
  let load_ns = ref 0 in
  let load db =
    let (), ns = Probe.time probe "storage.load" (fun () -> w.load db) in
    load_ns := !load_ns + ns
  in
  let faults =
    if w.failover then Some (Workloads.failover_plan ~seed ~duration_ms:w.measure_ms)
    else None
  in
  let cluster, setup_ns =
    Probe.time ~calibrate:true probe "cluster.create" (fun () ->
        Core.Cluster.create ~config ~tracing:traced ~trace_capacity:(1 lsl 19) ?faults
          ~mode:w.mode ~schemas:w.schemas ~load ())
  in
  if w.failover then Workloads.failover_schedule cluster ~duration_ms:w.measure_ms;
  let gen_ns = ref 0 and gen_calls = ref 0 in
  let wrap (wl : Core.Client.workload) =
    if not traced then wl
    else
      {
        wl with
        next_request =
          (fun rng ->
            let r, ns =
              Probe.time probe "workload.next_request" (fun () -> wl.next_request rng)
            in
            gen_ns := !gen_ns + ns;
            incr gen_calls;
            r);
      }
  in
  (match w.arrivals with
  | Workloads.Closed n ->
    for sid = 0 to n - 1 do
      Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster) (wrap (w.workload ~sid))
    done
  | Workloads.Open { generators; _ } ->
    Core.Client.open_loop_many cluster ~n:generators ~first_sid:0 ~rate_tps
      (wrap (w.workload ~sid:0)));
  let sampler = if traced then Some (Core.Cluster.start_telemetry ~interval_ms:5.0 cluster) else None in
  let engine = Core.Cluster.engine cluster in
  let network = Core.Cluster.network cluster in
  let certifier = Core.Cluster.certifier cluster in
  let metrics = Core.Cluster.metrics cluster in
  let replicas = replicas_of cluster in
  (* Warm-up, then the window: [run_for] resets the metrics and the
     runlog at its end, exactly as a warm-up-plus-window [run_for]. *)
  Core.Cluster.run_for cluster ~warmup_ms:w.warmup_ms ~measure_ms:0.0;
  let window_start = Sim.Engine.now engine in
  List.iter (fun r -> Sim.Resource.reset_utilization (Core.Replica.cpu r)) replicas;
  Sim.Resource.reset_utilization (Core.Certifier.cpu certifier);
  let events0 = Sim.Engine.executed engine in
  let msgs0 = Sim.Network.messages_sent network and bytes0 = Sim.Network.bytes_sent network in
  let c0, a0 = Core.Certifier.decisions certifier in
  let gc0 = Gc.quick_stat () in
  let rec run_until ?(ns = 0) until =
    let now = Sim.Engine.now engine in
    if now >= until then ns
    else
      let (), slice_ns =
        Probe.time ~calibrate:true probe "engine.run" (fun () ->
            Sim.Engine.run engine ~until:(Float.min until (now +. slice_ms)))
      in
      run_until ~ns:(ns + slice_ns) until
  in
  let sim_ns = ref (run_until (window_start +. w.measure_ms)) in
  (* The soak's post-heal drain: the cluster must commit again and every
     live replica must reach the certifier's version from the drain's
     start, or it wedged. *)
  let wedged =
    if not w.failover then false
    else begin
      let committed_before = Core.Metrics.committed metrics in
      let version_before = Core.Certifier.version certifier in
      sim_ns := !sim_ns + run_until (Sim.Engine.now engine +. (0.5 *. w.measure_ms));
      let progressed = Core.Metrics.committed metrics > committed_before in
      let caught_up =
        List.for_all
          (fun r -> Core.Replica.is_crashed r || Core.Replica.v_local r >= version_before)
          replicas
      in
      not (progressed && caught_up)
    end
  in
  let gc1 = Gc.quick_stat () in
  let c1, a1 = Core.Certifier.decisions certifier in
  let records = fst (Probe.time probe "runlog.records" (fun () -> Core.Cluster.records cluster)) in
  let window_ms = Core.Metrics.window_ms metrics in
  let responses =
    Array.of_list (List.map (fun r -> r.Check.Runlog.ack_time -. r.begin_time) records)
  in
  let outage_ms =
    let acks = Array.of_list (List.map (fun r -> r.Check.Runlog.ack_time) records) in
    Array.sort compare acks;
    let window_end = window_start +. window_ms in
    let gap = ref 0.0 and prev = ref window_start in
    Array.iter
      (fun t ->
        gap := Float.max !gap (t -. !prev);
        prev := t)
      acks;
    Float.max !gap (window_end -. !prev)
  in
  let updates =
    List.fold_left
      (fun n r -> if Option.is_some r.Check.Runlog.commit_version then n + 1 else n)
      0 records
  in
  let stage_sums, stage_update_sums =
    let all = Array.make Core.Metrics.stage_count 0.0
    and upd = Array.make Core.Metrics.stage_count 0.0 in
    List.iter
      (fun st ->
        let i = Core.Metrics.stage_index st in
        all.(i) <- Core.Metrics.mean_stage_ms metrics st *. float_of_int (Core.Metrics.committed metrics);
        upd.(i) <- Core.Metrics.mean_stage_update_ms metrics st *. float_of_int updates)
      Core.Metrics.stages;
    (all, upd)
  in
  let trace_stats =
    match (Core.Cluster.trace cluster, sampler) with
    | Some tr, Some sp ->
      Obs.Sampler.stop sp;
      let from_ms = window_start in
      let cpu_queue =
        series_values sp ~from_ms (fun n ->
            String.starts_with ~prefix:"replica" n && String.ends_with ~suffix:".cpu.queue" n)
      in
      let refresh = series_values sp ~from_ms (String.ends_with ~suffix:".refresh_queue") in
      let backlog = series_values sp ~from_ms (String.equal "certifier.backlog") in
      ( Obs.Trace.length tr + Obs.Trace.dropped tr,
        self_times tr,
        percentile_of cpu_queue 99.0,
        list_max refresh,
        list_max backlog )
    | _ -> (0, [], 0.0, 0.0, 0.0)
  in
  let spans, span_self_ms, cpu_queue_p99, refresh_pending_max, backlog_max = trace_stats in
  ( {
    seed;
    committed = Core.Metrics.committed metrics;
    updates;
    aborted = Core.Metrics.aborted metrics;
    given_up =
      Core.Metrics.retry_exhausted metrics + Core.Metrics.retry_budget_exhausted metrics;
    aborts_by_reason = Core.Metrics.aborts_by_reason metrics;
    window_ms;
    responses;
    p99_ms = percentile_of (Array.to_list responses) 99.0;
    outage_ms;
    wedged;
    stage_sums;
    stage_update_sums;
    events = Sim.Engine.executed engine - events0;
    msgs = Sim.Network.messages_sent network - msgs0;
    bytes = Sim.Network.bytes_sent network - bytes0;
    retransmits = Core.Metrics.retransmits metrics;
    cert_commits = c1 - c0;
    cert_aborts = a1 - a0;
    cert_util = Sim.Resource.utilization (Core.Certifier.cpu certifier);
    cert_batch_mean = Core.Metrics.mean_cert_batch metrics;
    cert_log_size = Core.Certifier.log_size certifier;
    elections = Core.Metrics.elections metrics;
    promotions = Core.Metrics.promotions metrics;
    promotion_outage_ms = Core.Metrics.outage_max_ms metrics;
    cpu_utils =
      Array.of_list (List.map (fun r -> Sim.Resource.utilization (Core.Replica.cpu r)) replicas);
    versions_total =
      List.fold_left
        (fun n r -> n + Storage.Database.total_versions (Core.Replica.database r))
        0 replicas;
    digest = Check.Runlog.digest records;
    setup_ns;
    load_ns = !load_ns;
    sim_ns = !sim_ns;
    gen_ns = !gen_ns;
    gen_calls = !gen_calls;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    spans;
    span_self_ms;
    cpu_queue_p99;
    refresh_pending_max;
    backlog_max;
  },
  cluster,
  records )

(* --- output checks ------------------------------------------------- *)

type verdict = {
  failures : string list;
  verify_ns : int;  (** battery + fingerprints *)
  checker_ns : (string * int) list;
  fingerprint_ns : int;
  soak_ns : int;
}

(* Every record of the window through the mode's checker battery; every
   live replica's contents equal at their common applied version; the
   runlog complete; and, for cert-failover, the soak's own verdict on
   the same seed with an equal runlog digest. *)
let verify (w : Workloads.t) ~probe (s, cluster, records) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let checker_ns =
    List.map
      (fun (name, check) ->
        let violations, ns = Probe.time ~calibrate:true probe ("check." ^ name) (fun () -> check records) in
        (match violations with
        | [] -> ()
        | v :: _ ->
          fail "%s: %d violations, first %s" name (List.length violations)
            (Format.asprintf "%a" Check.Runlog.pp_violation v));
        (name, ns))
      (Workloads.common_checkers @ Workloads.guarantee_checkers w.mode)
  in
  if List.length records <> s.committed then
    fail "runlog holds %d records for %d commits" (List.length records) s.committed;
  let live = List.filter (fun r -> not (Core.Replica.is_crashed r)) (replicas_of cluster) in
  let at = List.fold_left (fun v r -> min v (Core.Replica.v_local r)) max_int live in
  let fingerprint_ns = ref 0 in
  let prints =
    List.map
      (fun r ->
        let fp, ns =
          Probe.time ~calibrate:true probe "storage.fingerprint" (fun () ->
              Storage.Database.fingerprint (Core.Replica.database r) ~at)
        in
        fingerprint_ns := !fingerprint_ns + ns;
        fp)
      live
  in
  (match prints with
  | fp :: rest when List.exists (fun x -> x <> fp) rest ->
    fail "replica contents differ at common version %d" at
  | _ -> ());
  let soak_ns =
    if not w.failover then 0
    else begin
      let r, ns =
        Probe.time ~calibrate:true probe "chaos.soak" (fun () ->
            Experiments.Chaos.soak ~mode:w.mode ~plan:Experiments.Chaos.CertFailover
              ~seed:s.seed ~duration_ms:w.measure_ms ())
      in
      if not (Experiments.Chaos.ok r) then
        fail "Chaos.ok is false: %s" (Format.asprintf "%a" Experiments.Chaos.pp_result r);
      if not (String.equal r.digest s.digest) then
        fail "runlog digest %s differs from Chaos.soak's %s" s.digest r.digest;
      if s.wedged then fail "wedged: no recovery in the post-heal drain";
      ns
    end
  in
  let verify_ns = List.fold_left (fun acc (_, ns) -> acc + ns) !fingerprint_ns checker_ns in
  { failures = List.rev !failures; verify_ns; checker_ns; fingerprint_ns = !fingerprint_ns; soak_ns }

(* --- pooling -------------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let commit_tps sims =
  float_of_int (isum (fun s -> s.committed) sims) /. (sum (fun s -> s.window_ms) sims /. 1000.0)

(* Response-time percentile over every commit of the given windows. *)
let pooled sims p =
  percentile_of (List.concat_map (fun s -> Array.to_list s.responses) sims) p

(* A ladder rate is sustained when p99 meets the limit and commits keep
   pace with arrivals (no growing backlog). *)
let sustained sims ~rate_tps =
  pooled sims 99.0 <= Workloads.p99_limit_ms
  && commit_tps sims >= Workloads.backlog_tolerance *. rate_tps

(* --- output --------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  note : string;  (** sample count / base, for the human table *)
}

let m ?(note = "") name unit_ value = { name; value; unit_; note }

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %-6s %s\n" x.name x.value x.unit_ x.note)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let stage_mean sims ~update st =
  let i = Core.Metrics.stage_index st in
  let total =
    sum (fun s -> if update then s.stage_update_sums.(i) else s.stage_sums.(i)) sims
  in
  let n = isum (fun s -> if update then s.updates else s.committed) sims in
  if n = 0 then 0.0 else total /. float_of_int n

let abort_slugs =
  [ "certification"; "early_certification"; "replica_failure"; "timeout"; "overloaded"; "statement_error" ]

(* Span names whose virtual self time is reported. "route" is an
   instant (zero-length) event, so it has none; it counts in obs.spans. *)
let span_names =
  [
    ("version", "version");
    ("queries", "queries");
    ("certify", "certify");
    ("refresh.apply", "refresh_apply");
    ("commit", "commit");
  ]

(* --- the run ---------------------------------------------------------- *)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let per_commit ns committed = float_of_int ns /. 1e3 /. float_of_int (max 1 committed)

(* End-to-end metrics, from the untraced simulations. [reps.(i)] holds
   every host repetition of simulation [i] (the first one included). *)
let end_to_end sims verdicts reps ~peak_heap_mb =
  let committed = isum (fun s -> s.committed) sims in
  let k = List.length sims in
  let all_reps = List.concat (Array.to_list reps) in
  let samples = Printf.sprintf "(%d samples, %d beyond p99)" committed (committed / 100) in
  (* Host time per simulation is the median over its repetitions; the
     sum over simulations is divided by their commits (the base). *)
  let sim_ns =
    Array.fold_left
      (fun acc r -> acc +. median (List.map (fun s -> float_of_int s.sim_ns) r))
      0.0 reps
  in
  [
    m "commit_tps" "1/s" (commit_tps sims)
      ~note:
        (Printf.sprintf "(%d commits in %d windows, %.1f virtual s)" committed k
           (sum (fun s -> s.window_ms) sims /. 1000.0));
    m "resp_p50_ms" "ms" (pooled sims 50.0) ~note:samples;
    m "resp_p99_ms" "ms" (pooled sims 99.0) ~note:samples;
    m "setup_s" "s"
      (median (List.map (fun s -> Probe.seconds s.setup_ns) all_reps))
      ~note:(Printf.sprintf "(median of %d set-ups)" (List.length all_reps));
    m "sim_us_per_commit" "us" (sim_ns /. 1e3 /. float_of_int (max 1 committed))
      ~note:
        (Printf.sprintf "(%.2f host s for a base of %d commits; %d repetitions)"
           (sim_ns /. 1e9) committed (List.length all_reps));
    m "verify_us_per_commit" "us"
      (per_commit (isum (fun v -> v.verify_ns) verdicts) committed)
      ~note:(Printf.sprintf "(base %d commits)" committed);
    m "peak_heap_mb" "MB" peak_heap_mb;
  ]

(* Per-layer metrics, from the traced run: virtual counters from the
   untraced twins (equal to the traced ones by the determinism guard,
   except for the sampler's own events), host spans and telemetry from
   the traced simulations. *)
let per_layer (w : Workloads.t) sims traced verdicts ~max_rate_tps =
  let committed = isum (fun s -> s.committed) sims in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let fmean f l = if l = [] then 0.0 else sum f l /. float_of_int (List.length l) in
  let count f = float_of_int (isum f sims) in
  let seconds_of f = median (List.map (fun v -> Probe.seconds (f v)) verdicts) in
  let checker name v = Option.value ~default:0 (List.assoc_opt name v.checker_ns) in
  let events = isum (fun s -> s.events) sims in
  let decisions = isum (fun s -> s.cert_commits + s.cert_aborts) sims in
  let attempts = isum (fun s -> s.committed + s.aborted) sims in
  let window_s = sum (fun s -> s.window_ms) sims /. 1000.0 in
  let self name =
    fmean (fun s -> Option.value ~default:0.0 (List.assoc_opt name s.span_self_ms)) traced
  in
  let overhead =
    let u = sum (fun s -> Probe.seconds s.sim_ns) sims
    and t = sum (fun s -> Probe.seconds s.sim_ns) traced in
    if u > 0.0 then 100.0 *. ((t /. u) -. 1.0) else 0.0
  in
  [
    m "sim.events_per_commit" "count" (ratio events committed);
    m "sim.minor_words_per_event" "words" (sum (fun s -> s.minor_words) sims /. float_of_int (max 1 events));
    m "sim.major_gcs" "count" (count (fun s -> s.major_gcs));
    m "sim.run_s" "s" (median (List.map (fun s -> Probe.seconds s.sim_ns) sims));
    m "net.msgs_per_commit" "count" (ratio (isum (fun s -> s.msgs) sims) committed);
    m "net.bytes_per_commit" "bytes" (ratio (isum (fun s -> s.bytes) sims) committed);
    m "net.retransmits" "count" (count (fun s -> s.retransmits));
    m "lb.version_ms" "ms" (stage_mean sims ~update:false Core.Metrics.Version);
    m "replica.queries_ms" "ms" (stage_mean sims ~update:false Core.Metrics.Queries);
    m "replica.sync_ms" "ms" (stage_mean sims ~update:true Core.Metrics.Sync);
    m "replica.global_ms" "ms" (stage_mean sims ~update:true Core.Metrics.Global);
    m "replica.commit_ms" "ms" (stage_mean sims ~update:false Core.Metrics.Commit);
    m "replica.cpu_util_mean" "ratio" (fmean (fun s -> fmean Fun.id (Array.to_list s.cpu_utils)) sims);
    m "replica.cpu_util_max" "ratio" (fmean (fun s -> Array.fold_left Float.max 0.0 s.cpu_utils) sims);
    m "replica.cpu_queue_p99" "count" (median (List.map (fun s -> s.cpu_queue_p99) traced));
    m "replica.refresh_pending_max" "count" (list_max (List.map (fun s -> s.refresh_pending_max) traced));
    m "cert.certify_ms" "ms" (stage_mean sims ~update:true Core.Metrics.Certify);
    m "cert.cpu_util" "ratio" (fmean (fun s -> s.cert_util) sims);
    m "cert.commit_ratio" "ratio" (ratio (isum (fun s -> s.cert_commits) sims) decisions);
    m "cert.decisions_per_s" "1/s" (float_of_int decisions /. window_s);
    m "cert.batch_mean" "count" (fmean (fun s -> s.cert_batch_mean) sims);
    m "cert.backlog_max" "count" (list_max (List.map (fun s -> s.backlog_max) traced));
    m "cert.log_size" "count" (fmean (fun s -> float_of_int s.cert_log_size) sims);
    m "cert.elections" "count" (count (fun s -> s.elections));
    m "cert.promotions" "count" (count (fun s -> s.promotions));
    m "cert.outage_max_ms" "ms" (median (List.map (fun s -> s.promotion_outage_ms) sims));
    m "client.outage_ms" "ms" (median (List.map (fun s -> s.outage_ms) sims));
    m "client.attempts_per_commit" "ratio" (ratio attempts committed);
    m "client.abort_pct" "%" (100.0 *. ratio (isum (fun s -> s.aborted) sims) attempts);
    m "client.max_rate_tps" "1/s" max_rate_tps;
  ]
  @ List.map
      (fun slug ->
        m ("client.aborts." ^ slug) "count"
          (count (fun s -> Option.value ~default:0 (List.assoc_opt slug s.aborts_by_reason))))
      abort_slugs
  @ [
      m "workload.gen_us_per_txn" "us"
        (per_commit (isum (fun s -> s.gen_ns) traced) (isum (fun s -> s.gen_calls) traced));
      m "storage.load_s" "s" (median (List.map (fun s -> Probe.seconds s.load_ns) sims));
      m "storage.versions_total" "count" (fmean (fun s -> float_of_int s.versions_total) sims);
      m "storage.fingerprint_s" "s" (seconds_of (fun v -> v.fingerprint_ns));
      m "check.records" "count" (float_of_int committed);
    ]
  @ List.map
      (fun (name, _) -> m ("check." ^ name ^ "_s") "s" (seconds_of (checker name)))
      Workloads.common_checkers
  @ [
      m "check.guarantee_s" "s"
        (seconds_of (fun v ->
             isum (fun (name, _) -> checker name v) (Workloads.guarantee_checkers w.mode)));
      m "check.chaos_soak_s" "s" (seconds_of (fun v -> v.soak_ns));
      m "obs.trace_overhead_pct" "%" overhead;
      m "obs.spans" "count" (float_of_int (isum (fun s -> s.spans) traced));
    ]
  @ List.map (fun (span, slug) -> m ("obs." ^ slug ^ "_self_ms") "ms" (self span)) span_names

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let quick = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S minimum host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--quick", Arg.Set quick, " tiny windows, for the self-test");
    ]
  in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> bad msg);
  let w =
    match Workloads.find ~quick:!quick !workload with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then bad "--seed must be given, >= 0";
  if !seconds < 0.0 then bad "--seconds must be given, >= 0";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let t_start = Unix.gettimeofday () in
  let probe = Probe.create ~recording:traced in
  let main_rate = match w.arrivals with Open { rate_tps; _ } -> rate_tps | Closed _ -> 0.0 in
  (* [attempted] counts the business transactions of the checked
     windows: each committed, or was given up by its client. [failed]
     counts those given up, plus every commit of a window that failed a
     check. In the ladder's windows, transactions given up past the
     knee are what the ladder measures, not failures. *)
  let attempted = ref 0 and failed = ref 0 and failed_windows = Hashtbl.create 4 in
  let problem s fmt =
    Printf.ksprintf
      (fun msg ->
        if not (Hashtbl.mem failed_windows s.seed) then begin
          Hashtbl.add failed_windows s.seed ();
          failed := !failed + s.committed
        end;
        log "FAIL seed %d: %s" s.seed msg)
      fmt
  in
  let run ~traced ~seed ~rate_tps = simulate w ~probe ~traced ~seed ~rate_tps in
  let checked ?(ladder = false) ((s, _, _) as r) =
    let v = verify w ~probe r in
    attempted := !attempted + s.committed + s.given_up;
    if not ladder then failed := !failed + s.given_up;
    List.iter (problem s "%s") v.failures;
    v
  in
  let same ?probed a b =
    let differ =
      List.filter_map
        (fun ((k, x), (_, y)) -> if String.equal x y then None else Some k)
        (List.combine (virtual_key ?probed a) (virtual_key ?probed b))
    in
    if differ <> [] then
      problem a "two simulations of this seed differ in virtual time: %s"
        (String.concat ", " differ)
  in
  let seeds = List.init w.runs (sub_seed !seed) in
  let metrics =
    if not traced then begin
      let main =
        List.map
          (fun seed ->
            let ((s, _, _) as r) = run ~traced:false ~seed ~rate_tps:main_rate in
            let v = checked r in
            log "[%s %d] commits=%d aborts=%d p99=%.2fms setup=%.2fs sim=%.2fs verify=%.2fs"
              w.name seed s.committed s.aborted s.p99_ms (Probe.seconds s.setup_ns)
              (Probe.seconds s.sim_ns) (Probe.seconds v.verify_ns);
            (s, v))
          seeds
      in
      let sims = List.map fst main in
      let reps = Array.of_list (List.map (fun s -> [ s ]) sims) in
      (* Determinism guard: repeat simulations of the same seed, which must
         agree byte for byte; at least one, then more while the run's
         measuring time lasts, for further host samples. *)
      let repeat i =
        let first = List.nth sims i in
        let again, _, _ = run ~traced:false ~seed:first.seed ~rate_tps:main_rate in
        same first again;
        reps.(i) <- again :: reps.(i)
      in
      repeat 0;
      let peak_heap_mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
      in
      let i = ref 1 in
      while Unix.gettimeofday () -. t_start < !seconds do
        repeat (!i mod w.runs);
        incr i
      done;
      end_to_end sims (List.map snd main) reps ~peak_heap_mb
    end
    else begin
      let main =
        List.map
          (fun seed ->
            let untraced, _, _ = run ~traced:false ~seed ~rate_tps:main_rate in
            let ((t, _, _) as r) = run ~traced:true ~seed ~rate_tps:main_rate in
            let v = checked r in
            same ~probed:true untraced t;
            log "[%s %d traced] commits=%d sim=%.2fs (untraced %.2fs) spans=%d" w.name seed
              t.committed (Probe.seconds t.sim_ns) (Probe.seconds untraced.sim_ns) t.spans;
            (untraced, t, v))
          seeds
      in
      let sims = List.map (fun (u, _, _) -> u) main in
      (* The offered-rate ladder (open loop only): rates in ascending
         order, up to the first one that is not sustained. *)
      let rec climb best rung = function
        | [] -> best
        | rate :: rest ->
          let ((s, _, _) as r) =
            run ~traced:false ~seed:(sub_seed !seed (100 * rung)) ~rate_tps:rate
          in
          ignore (checked ~ladder:true r);
          let rung_sims = [ s ] in
          let ok = sustained rung_sims ~rate_tps:rate in
          log "[%s ladder] %.0f tps: p99=%.2fms commit_tps=%.1f %s" w.name rate
            (pooled rung_sims 99.0)
            (commit_tps rung_sims)
            (if ok then "sustained" else "not sustained");
          if ok then climb rate (rung + 1) rest else best
      in
      let max_rate_tps =
        if w.ladder = [] || not (sustained sims ~rate_tps:main_rate) then 0.0
        else climb main_rate 1 w.ladder
      in
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let file =
        Filename.concat out_dir (Printf.sprintf "%s-seed%d-host-spans.json" w.name !seed)
      in
      Probe.write_chrome probe ~file;
      log "host spans written to %s" file;
      per_layer w sims
        (List.map (fun (_, t, _) -> t) main)
        (List.map (fun (_, _, v) -> v) main)
        ~max_rate_tps
    end
  in
  Printf.printf "%s seed %d (%s, %.1f host s)\n" w.name !seed
    (if traced then "traced, per layer" else "end to end")
    (Unix.gettimeofday () -. t_start);
  print_result
    ~correct:(Hashtbl.length failed_windows = 0)
    ~attempted:(max 1 !attempted) ~failed:!failed metrics
