(** Every sweep command as a preset over {!Runner}: which points to run,
    the spec of each, and what to tabulate. Presets return the text the
    command prints; the [render_*] functions take (key, summary) results,
    so a figure's layout can be checked without simulating.

    Micro-benchmark figures run 80 closed-loop clients on 8 replicas over
    40 tables (10,000 rows; 2,000 with [~quick]). TPC-W figures sweep
    1–8 replicas ([1; 2; 4; 8] with [~quick]); scaled load runs
    k x replicas clients, fixed load k, with k = 100 / 80 / 50 for
    browsing / shopping / ordering. *)

val fig3 : quick:bool -> seed:int -> string
(** Figure 3: throughput vs update-transaction types, one curve per
    configuration. *)

val render_fig3 : ((int * Core.Consistency.mode) * Runner.summary) list -> string

val fig4 : quick:bool -> seed:int -> string
(** Figure 4: per-stage latency at 25% and 100% update mixes; the global
    stage is the update-transaction mean, the others the overall mean. *)

val render_fig4 : ((int * Core.Consistency.mode) * Runner.summary) list -> string

val fig5 : quick:bool -> seed:int -> string
(** Figures 5 and 6 from one scaled-load TPC-W sweep: throughput and
    response per mix, then the synchronization delay of the shopping
    and ordering mixes. *)

val render_fig56 :
  ((Workload.Tpcw.mix * (int * Core.Consistency.mode)) * Runner.summary) list -> string

val fig7 : quick:bool -> seed:int -> string
(** Figure 7: TPC-W response time under fixed load (shopping, ordering). *)

val render_fig7 :
  ((Workload.Tpcw.mix * (int * Core.Consistency.mode)) * Runner.summary) list -> string

type costs =
  | Micro  (** the fig-3 micro-benchmark costs *)
  | Tpcw  (** the TPC-W costs *)
  | Reexec  (** micro costs, refresh priced like statement re-execution *)

val batch :
  quick:bool ->
  seed:int ->
  cert_batch:int ->
  apply_parallelism:int option ->
  clients:int ->
  costs:costs ->
  string
(** Each micro-benchmark point run unbatched and with
    {!Core.Config.batched} (certification batch cap [cert_batch],
    [apply_parallelism] lanes, default cpus per replica), for coarse,
    fine, session and eager; reports the throughput gain. *)

val render_batch :
  ((int * (Core.Consistency.mode * bool)) * Runner.summary) list -> string
(** Keys are [(update types, (mode, batched))]. *)

type ablation =
  | Apply  (** writeset shipping vs re-executing updates at replicas *)
  | Span  (** fine vs coarse start delay as updates span more tables *)
  | Early_cert  (** hidden-deadlock avoidance on/off under hot keys *)
  | Routing  (** least-active vs round-robin vs random vs affinity *)

val ablations : (string * ablation) list
(** Command-line names, in the order [ablation all] runs them. *)

val ablation : quick:bool -> ablation -> string

val render_ablation : ablation -> (string * Runner.summary) list -> string
(** Rows are [(variant label, summary)]. *)

val ycsb : seed:int -> string
(** YCSB A–F on 4 replicas, 40 clients, every configuration. *)

val tpcc : seed:int -> string
(** TPC-C on 4 replicas, 40 paced terminals, 8 warehouses, plus the
    static SI-analysis verdict. *)

val check : seed:int -> string
(** Each configuration for 5 s with the run log on, and the violation
    count of each checker. *)

val all : quick:bool -> seed:int -> (unit -> string) list
(** Table I, Figures 3–7 and every ablation, in print order. *)

val demo_mix : Workload.Tpcw.mix

val demo :
  quick:bool -> seed:int -> cert_batch:int -> apply_parallelism:int -> Runner.spec
(** The instrumented demo cluster behind [report] and the default
    command: TPC-W {!demo_mix} mix, fine mode, 4 replicas, 40 clients
    with a 300 ms think time. *)
