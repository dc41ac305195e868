(* The benchmark's workloads. Each one is a cluster configuration, a
   data set, a client population and a virtual-time window; README.md
   says why each was chosen and which layers it loads or bypasses.

   A run of one workload at one seed is [runs] independent simulations
   (sub-seeds derived from the seed), pooled. Pooling independent
   windows steadies the seed-to-seed spread the way one long window
   would, while the output checks — quadratic in the records of a
   window — stay affordable: every record of every window is checked. *)

type arrivals =
  | Closed of int  (** clients, each waiting for its reply before thinking again *)
  | Open of { generators : int; rate_tps : float }  (** Poisson arrivals *)

type t = {
  name : string;
  mode : Core.Consistency.mode;
  config : seed:int -> Core.Config.t;
  schemas : Storage.Schema.t list;
  load : Storage.Database.t -> unit;
  workload : sid:int -> Core.Client.workload;
  arrivals : arrivals;
  warmup_ms : float;
  measure_ms : float;
  runs : int;
  ladder : float list;
      (** open loop only: offered rates (tps) probed above the main rate
          for [client.max_rate_tps], one window each *)
  failover : bool;  (** the cert-failover fault plan and schedule *)
}

let names = [ "micro-eager-write"; "tpcw-browsing"; "ycsb-open"; "cert-failover" ]

(* Offered-rate ladder verdict: a rate is sustained when the pooled p99
   response time meets this limit and commits keep up with arrivals. *)
let p99_limit_ms = 25.0

let backlog_tolerance = 0.95

let with_log (c : Core.Config.t) ~seed = { c with Core.Config.seed; record_log = true }

(* Paper microbench, all 40 transaction types updates, eager, 8
   replicas, 80 clients with no think time. *)
let micro_eager_write ~quick =
  let params =
    {
      Workload.Microbench.tables = 40;
      rows = (if quick then 1_000 else 10_000);
      update_types = 40;
    }
  in
  {
    name = "micro-eager-write";
    mode = Core.Consistency.Eager;
    config = with_log Core.Config.default;
    schemas = Workload.Microbench.schemas params;
    load = Workload.Microbench.load params;
    workload = (fun ~sid:_ -> Workload.Microbench.workload params);
    arrivals = Closed 80;
    warmup_ms = 500.0;
    measure_ms = (if quick then 300.0 else 2_000.0);
    runs = (if quick then 1 else 6);
    ladder = [];
    failover = false;
  }

(* TPC-W browsing mix in fine mode on 4 replicas: 150 browsers with the
   paper's 2 s exponential think time keep the replicas near 0.7
   utilisation. At 200 browsers (0.9) the p99 of a 200 s window still
   swung by a third between seeds. *)
let tpcw_browsing ~quick =
  let params = Workload.Tpcw.default in
  {
    name = "tpcw-browsing";
    mode = Core.Consistency.Fine;
    config = (fun ~seed -> with_log { Core.Config.tpcw with Core.Config.replicas = 4 } ~seed);
    schemas = Workload.Tpcw.schemas;
    load = Workload.Tpcw.load params;
    workload = (fun ~sid -> Workload.Tpcw.workload params Workload.Tpcw.Browsing ~sid);
    arrivals = Closed 150;
    warmup_ms = 5_000.0;
    measure_ms = (if quick then 2_000.0 else 50_000.0);
    runs = (if quick then 1 else 3);
    ladder = [];
    failover = false;
  }

(* YCSB-A (50% reads, 50% updates, zipf 0.99) in session mode on 4
   replicas, open-loop Poisson arrivals at 3,000 tps, with a ladder of
   higher offered rates for the sustainable maximum. Replica hiccups
   are off, as in the chaos harness: with them, whether a window caught
   a hiccup stall decided its p99 (4-28 ms between seeds), and p99
   would not measure open-loop queueing. *)
let ycsb_open ~quick =
  let params = Workload.Ycsb.default in
  {
    name = "ycsb-open";
    mode = Core.Consistency.Session;
    config =
      (fun ~seed ->
        with_log
          { Core.Config.default with Core.Config.replicas = 4; hiccup_interval_ms = 0.0 }
          ~seed);
    schemas = Workload.Ycsb.schemas params;
    load = Workload.Ycsb.load params;
    workload = (fun ~sid:_ -> Workload.Ycsb.workload params Workload.Ycsb.A);
    arrivals = Open { generators = 16; rate_tps = 3_000.0 };
    warmup_ms = 500.0;
    measure_ms = (if quick then 300.0 else 3_000.0);
    runs = (if quick then 1 else 6);
    ladder =
      (if quick then [ 4_000.0 ] else [ 4_500.0; 6_000.0; 6_500.0; 7_000.0; 7_500.0; 8_000.0 ]);
    failover = false;
  }

(* {!Experiments.Chaos.soak} under the [CertFailover] plan in coarse
   mode, restated here so the benchmark can time and count the calls it
   makes into each layer (the soak owns its cluster). Every value below
   is the soak's: its default config with two certifier standbys, its
   microbench parameters and client count, its fault plan and its
   crash/revive schedule. The runner cross-checks each simulation
   against [Chaos.soak] itself: equal runlog digests and [Chaos.ok]. *)
let failover_params = { Workload.Microbench.tables = 4; rows = 200; update_types = 2 }

let failover_clients = 12

let cert_failover ~quick =
  {
    name = "cert-failover";
    mode = Core.Consistency.Coarse;
    config =
      (fun ~seed ->
        {
          (Experiments.Chaos.default_config ~seed) with
          Core.Config.certifier_standbys = 2;
        });
    schemas = Workload.Microbench.schemas failover_params;
    load = Workload.Microbench.load failover_params;
    workload = (fun ~sid:_ -> Workload.Microbench.workload failover_params);
    arrivals = Closed failover_clients;
    warmup_ms = 0.0;
    measure_ms = (if quick then 600.0 else 2_000.0);
    runs = (if quick then 1 else 12);
    ladder = [];
    failover = true;
  }

let find ~quick = function
  | "micro-eager-write" -> Some (micro_eager_write ~quick)
  | "tpcw-browsing" -> Some (tpcw_browsing ~quick)
  | "ycsb-open" -> Some (ycsb_open ~quick)
  | "cert-failover" -> Some (cert_failover ~quick)
  | _ -> None

(* The soak's [CertFailover] fault plan: mild ambient loss, the initial
   primary cut off around its crash/revival window, the first promoted
   standby partitioned later. The plan seed is derived from the run
   seed exactly as the soak derives it. *)
let failover_plan ~seed ~duration_ms engine =
  let f = Sim.Faults.create ~seed:(seed lxor 0x2b99_17c5_1e7a_3f6d) engine in
  let frac a = a *. duration_ms in
  Sim.Faults.set_default f
    (Sim.Faults.spec ~drop:0.02 ~duplicate:0.01 ~delay:0.02 ~delay_ms:10.0 ());
  Sim.Faults.partition f
    ~a:[ Core.Config.node_cert_standby 0 ]
    ~b:[] ~from_ms:(frac 0.18) ~until_ms:(frac 0.55) ();
  Sim.Faults.partition f
    ~a:[ Core.Config.node_cert_standby 1 ]
    ~b:[] ~from_ms:(frac 0.5) ~until_ms:(frac 0.7) ();
  f

(* The soak's schedule: crash the initial primary at 0.18 d and revive
   it 0.24 d later, while its partition still holds. *)
let failover_schedule cluster ~duration_ms =
  let engine = Core.Cluster.engine cluster in
  Sim.Process.spawn engine (fun () ->
      Sim.Process.sleep engine (0.18 *. duration_ms);
      Core.Cluster.crash_certifier cluster;
      Sim.Process.sleep engine (0.24 *. duration_ms);
      Core.Cluster.revive_certifier_node cluster 0)

(* The checker battery {!Experiments.Chaos} runs for a mode: the
   mode-independent checkers, then the guarantee the mode advertises. *)
let common_checkers =
  [
    ("first_committer_wins", Check.Runlog.first_committer_wins);
    ("epoch_fencing", Check.Runlog.epoch_fencing);
    ("election_safety", Check.Runlog.election_safety);
    ("lb_floor_preservation", Check.Runlog.lb_floor_preservation);
    ("tier_bounded_staleness", Check.Runlog.tier_bounded_staleness);
    ("tier_causal_ryw", Check.Runlog.tier_causal_ryw);
    ("tier_monotone_reads", Check.Runlog.tier_monotone_reads);
  ]

let guarantee_checkers (mode : Core.Consistency.mode) =
  match mode with
  | Eager | Coarse -> [ ("strong_consistency", Check.Runlog.strong_consistency) ]
  | Fine -> [ ("fine_strong_consistency", Check.Runlog.fine_strong_consistency) ]
  | Session ->
    [
      ("session_consistency", Check.Runlog.session_consistency);
      ("monotone_session_snapshots", Check.Runlog.monotone_session_snapshots);
    ]
  | Bounded k -> [ ("bounded_staleness", Check.Runlog.bounded_staleness ~k) ]
