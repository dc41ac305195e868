(* [map_jobs ~jobs f items] = [List.map f items], computed by [jobs]
   domains. Each simulation is single-threaded and self-contained (its
   engine, RNG chain, and cluster state are all built inside [f]), so
   runs parallelize without sharing anything but the work queue; results
   land in their item's slot, preserving order. [jobs <= 1] takes the
   exact serial path — same closure, same order — so the parallel driver
   can never perturb a serial run's behavior. *)
let map_jobs ?(jobs = 1) f items =
  if jobs <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned = min (jobs - 1) (max 0 (n - 1)) in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      (fun () -> worker ());
    Array.to_list
      (Array.map (function Some x -> x | None -> assert false) out)
  end

type clients =
  | Closed of int * (int -> Core.Client.workload)
  | Open of int * float * Core.Client.workload

type spec = {
  config : Core.Config.t;
  mode : Core.Consistency.mode;
  schemas : Storage.Schema.t list;
  load : Storage.Database.t -> unit;
  clients : clients;
  warmup_ms : float;
  measure_ms : float;
}

let closed n workload = Closed (n, fun _ -> workload)

let micro ~config ~mode ~params (warmup_ms, measure_ms) clients =
  {
    config;
    mode;
    schemas = Workload.Microbench.schemas params;
    load = Workload.Microbench.load params;
    clients;
    warmup_ms;
    measure_ms;
  }

let start ?tracing s =
  let cluster =
    Core.Cluster.create ~config:s.config ?tracing ~mode:s.mode ~schemas:s.schemas
      ~load:s.load ()
  in
  (match s.clients with
  | Closed (n, workload) ->
    for sid = 0 to n - 1 do
      Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster) (workload sid)
    done
  | Open (n, rate_tps, workload) ->
    Core.Client.open_loop_many cluster ~n ~first_sid:0 ~rate_tps workload);
  cluster

(* The warm-up is run here rather than by [Cluster.run_for] so a caller
   can read monotonic counters at the window boundary. Running the
   engine to [now + warmup] and then [run_for ~warmup_ms:0] executes the
   same events as [run_for ~warmup_ms]: the engine leaves its clock at
   the horizon with every event up to it drained. *)
let measure ?(at_measure = ignore) s cluster =
  let engine = Core.Cluster.engine cluster in
  Sim.Engine.run engine ~until:(Sim.Engine.now engine +. s.warmup_ms);
  at_measure cluster;
  Core.Cluster.run_for cluster ~warmup_ms:0.0 ~measure_ms:s.measure_ms

let run ?tracing ?at_measure s =
  let cluster = start ?tracing s in
  measure ?at_measure s cluster;
  cluster

type summary = {
  tps : float;
  response_ms : float;
  p99_ms : float;
  stage_ms : float array;
  stage_update_ms : float array;
  sync_delay_ms : float;
  abort_rate : float;
}

let summarize cluster =
  let m = Core.Cluster.metrics cluster in
  let per_stage f = Array.of_list (List.map (f m) Core.Metrics.stages) in
  (* The mean first: a percentile sorts the samples in place, which
     reorders the mean's float sum. *)
  let response_ms = Core.Metrics.mean_response_ms m in
  {
    tps = Core.Metrics.throughput_tps m;
    response_ms;
    p99_ms = Core.Metrics.percentile_response_ms m 99.0;
    stage_ms = per_stage Core.Metrics.mean_stage_ms;
    stage_update_ms = per_stage Core.Metrics.mean_stage_update_ms;
    sync_delay_ms = Core.Metrics.sync_delay_ms m;
    abort_rate = Core.Metrics.abort_rate m;
  }

let stage s st = s.stage_ms.(Core.Metrics.stage_index st)

let sweep ?jobs spec_of keys =
  map_jobs ?jobs (fun k -> (k, summarize (run (spec_of k)))) keys

(* --- rendering ------------------------------------------------------- *)

type 'p column = string * ('p -> string)

type 'p chart = {
  y_label : string;
  x_label : string;
  series : (string * ('p -> (float * float) option)) list;
}

let render ~title ?chart columns rows =
  let header = List.map fst columns in
  let body = List.map (fun r -> List.map (fun (_, cell) -> cell r) columns) rows in
  Report.section title ^ "\n" ^ Report.table ~header body
  ^
  match chart with
  | None -> ""
  | Some c ->
    let series = List.map (fun (name, point) -> (name, List.filter_map point rows)) c.series in
    "\n" ^ Plot.chart ~series ~y_label:c.y_label ~x_label:c.x_label ()

let cell f = function Some x -> Report.fmt_f (f x) | None -> "-"
