(** The one experiment driver: every sweep command builds a cluster per
    point, attaches clients, runs a warm-up and a measurement window, and
    tabulates a few metrics. {!run} is that run, {!map_jobs} the only
    loop over points, and {!render} the only table/chart builder; the
    commands themselves are presets over these (see {!Presets}). *)

val map_jobs : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_jobs ~jobs f items] is [List.map f items] computed by [jobs]
    domains pulling items off a shared queue; results keep their item's
    position. Each call to [f] must be self-contained (simulations are:
    engine, RNG, and cluster all live inside the run) — [f] runs off the
    main domain when [jobs > 1]. [jobs <= 1] (the default) is exactly
    [List.map f items] on the calling domain. *)

(** {2 One run} *)

type clients =
  | Closed of int * (int -> Core.Client.workload)
      (** [n] closed-loop clients; session [sid] runs [workload sid] *)
  | Open of int * float * Core.Client.workload
      (** [n] open-loop Poisson generators splitting an aggregate
          offered rate (tps) *)

type spec = {
  config : Core.Config.t;
  mode : Core.Consistency.mode;
  schemas : Storage.Schema.t list;
  load : Storage.Database.t -> unit;
  clients : clients;
  warmup_ms : float;
  measure_ms : float;
}

val closed : int -> Core.Client.workload -> clients
(** [n] closed-loop clients sharing one workload value. *)

val micro :
  config:Core.Config.t ->
  mode:Core.Consistency.mode ->
  params:Workload.Microbench.params ->
  float * float ->
  clients ->
  spec
(** A micro-benchmark spec over [(warmup_ms, measure_ms)]. *)

val start : ?tracing:bool -> spec -> Core.Cluster.t
(** Build the cluster and spawn its clients; nothing runs yet. Attach
    telemetry here, before {!measure}. *)

val measure : ?at_measure:(Core.Cluster.t -> unit) -> spec -> Core.Cluster.t -> unit
(** Run the warm-up, call [at_measure] at the window boundary, reset
    the metrics window (and the run log), then run the measurement. *)

val run : ?tracing:bool -> ?at_measure:(Core.Cluster.t -> unit) -> spec -> Core.Cluster.t
(** {!start} then {!measure}. *)

type summary = {
  tps : float;
  response_ms : float;
  p99_ms : float;
  stage_ms : float array;  (** mean per {!Core.Metrics.stage}, all txns *)
  stage_update_ms : float array;  (** mean per stage, update txns *)
  sync_delay_ms : float;  (** version (all) + global (updates) *)
  abort_rate : float;
}

val summarize : Core.Cluster.t -> summary
(** The measurement window's headline metrics. *)

val stage : summary -> Core.Metrics.stage -> float
(** [stage_ms] of one stage. *)

val sweep : ?jobs:int -> ('k -> spec) -> 'k list -> ('k * summary) list
(** One independent {!run} per key, summarized, in key order. *)

(** {2 One renderer} *)

type 'p column = string * ('p -> string)
(** Header and cell of one table column over rows of type ['p]. *)

type 'p chart = {
  y_label : string;
  x_label : string;
  series : (string * ('p -> (float * float) option)) list;
      (** one curve per entry: the row's [(x, y)], if it has one *)
}

val render : title:string -> ?chart:'p chart -> 'p column list -> 'p list -> string
(** Section title, the table, and optionally an ASCII chart below it. *)

val cell : ('a -> float) -> 'a option -> string
(** [Report.fmt_f] of a present value, ["-"] for a missing one. *)
