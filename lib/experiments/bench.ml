type point = {
  mode : Core.Consistency.mode;
  committed : int;
  aborted : int;
  tps : float;
  p50_ms : float;
  p99_ms : float;
  cert_decisions_per_sec : float;
}

type run = {
  schema_version : int;
  seed : int;
  replicas : int;
  clients : int;
  warmup_ms : float;
  measure_ms : float;
  quick : bool;
  points : point list;
  sim_events : int;
  wall_s : float;
  sim_events_per_sec : float;
}

let schema_version = 1

(* The pinned client/update mix: 20 tables x 2,000 rows with 5 update
   types (25% updates — Fig. 4's interesting case, where the modes
   actually separate). Part of the baseline's identity: changing it
   requires a [schema_version] bump and a regenerated baseline. *)
let bench_params = { Workload.Microbench.tables = 20; rows = 2_000; update_types = 5 }

let run_mode ~config ~params ~clients ~warmup_ms ~measure_ms mode =
  let decisions cluster =
    let c, a = Core.Certifier.decisions (Core.Cluster.certifier cluster) in
    c + a
  in
  (* The certifier decision counter is monotonic since creation, so it
     is read at the measurement start too. *)
  let decisions0 = ref 0 in
  let cluster =
    Runner.run
      ~at_measure:(fun c -> decisions0 := decisions c)
      (Runner.micro ~config ~mode ~params (warmup_ms, measure_ms)
         (Runner.closed clients (Workload.Microbench.workload params)))
  in
  let metrics = Core.Cluster.metrics cluster in
  let point =
    {
      mode;
      committed = Core.Metrics.committed metrics;
      aborted = Core.Metrics.aborted metrics;
      tps = Core.Metrics.throughput_tps metrics;
      p50_ms = Core.Metrics.percentile_response_ms metrics 50.0;
      p99_ms = Core.Metrics.percentile_response_ms metrics 99.0;
      cert_decisions_per_sec =
        float_of_int (decisions cluster - !decisions0) /. (measure_ms /. 1000.0);
    }
  in
  (point, Sim.Engine.executed (Core.Cluster.engine cluster))

let run ?(quick = false) ?(seed = Core.Config.default.Core.Config.seed) ?(jobs = 1) () =
  let warmup_ms, measure_ms = if quick then (200.0, 1_000.0) else (500.0, 3_000.0) in
  let replicas = 4 and clients = 40 in
  let config = { Core.Config.default with Core.Config.seed; replicas } in
  let params = bench_params in
  let wall0 = Unix.gettimeofday () in
  (* One self-contained simulation per mode; the deterministic ["bench"]
     object is identical whatever [jobs] is (points keep the
     [Consistency.all] order), only the ["wall"] numbers move. Committed
     baselines are generated at [jobs = 1]. *)
  let per_mode =
    Runner.map_jobs ~jobs
      (fun mode -> run_mode ~config ~params ~clients ~warmup_ms ~measure_ms mode)
      Core.Consistency.all
  in
  let points = List.map fst per_mode in
  let events = List.fold_left (fun acc (_, e) -> acc + e) 0 per_mode in
  let wall_s = Unix.gettimeofday () -. wall0 in
  {
    schema_version;
    seed;
    replicas;
    clients;
    warmup_ms;
    measure_ms;
    quick;
    points;
    sim_events = events;
    wall_s;
    sim_events_per_sec =
      (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
  }

(* --- JSON ---------------------------------------------------------- *)

let point_json p =
  Obs.Json.Obj
    [
      ("mode", Obs.Json.Str (Core.Consistency.to_string p.mode));
      ("committed", Obs.Json.Num (float_of_int p.committed));
      ("aborted", Obs.Json.Num (float_of_int p.aborted));
      ("tps", Obs.Json.Num p.tps);
      ("p50_ms", Obs.Json.Num p.p50_ms);
      ("p99_ms", Obs.Json.Num p.p99_ms);
      ("cert_decisions_per_sec", Obs.Json.Num p.cert_decisions_per_sec);
    ]

let to_json r =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Num (float_of_int r.schema_version));
      ( "bench",
        Obs.Json.Obj
          [
            ("seed", Obs.Json.Num (float_of_int r.seed));
            ("replicas", Obs.Json.Num (float_of_int r.replicas));
            ("clients", Obs.Json.Num (float_of_int r.clients));
            ("warmup_ms", Obs.Json.Num r.warmup_ms);
            ("measure_ms", Obs.Json.Num r.measure_ms);
            ("quick", Obs.Json.Bool r.quick);
            ("points", Obs.Json.Arr (List.map point_json r.points));
          ] );
      ( "wall",
        Obs.Json.Obj
          [
            ("sim_events", Obs.Json.Num (float_of_int r.sim_events));
            ("wall_s", Obs.Json.Num r.wall_s);
            ("sim_events_per_sec", Obs.Json.Num r.sim_events_per_sec);
          ] );
    ]

let ( let* ) = Result.bind

let field name json =
  match Obs.Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let num name json =
  let* v = field name json in
  match Obs.Json.to_float v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S is not a number" name)

let opt_num name json =
  match Obs.Json.member name json with
  | Some v -> Option.value (Obs.Json.to_float v) ~default:0.0
  | None -> 0.0

let point_of_json json =
  let* mode_v = field "mode" json in
  let* mode_s =
    match Obs.Json.to_str mode_v with
    | Some s -> Ok s
    | None -> Error "field \"mode\" is not a string"
  in
  let* mode = Core.Consistency.of_string mode_s in
  let* committed = num "committed" json in
  let* aborted = num "aborted" json in
  let* tps = num "tps" json in
  let* p50_ms = num "p50_ms" json in
  let* p99_ms = num "p99_ms" json in
  let* cert = num "cert_decisions_per_sec" json in
  Ok
    {
      mode;
      committed = int_of_float committed;
      aborted = int_of_float aborted;
      tps;
      p50_ms;
      p99_ms;
      cert_decisions_per_sec = cert;
    }

let of_json json =
  let* schema = num "schema_version" json in
  let* bench = field "bench" json in
  let* seed = num "seed" bench in
  let* replicas = num "replicas" bench in
  let* clients = num "clients" bench in
  let* warmup_ms = num "warmup_ms" bench in
  let* measure_ms = num "measure_ms" bench in
  let quick =
    match Obs.Json.member "quick" bench with Some (Obs.Json.Bool b) -> b | _ -> false
  in
  let* points_v = field "points" bench in
  let* points_l =
    match Obs.Json.to_list points_v with
    | Some l -> Ok l
    | None -> Error "field \"points\" is not an array"
  in
  let* points =
    List.fold_left
      (fun acc p ->
        let* acc = acc in
        let* p = point_of_json p in
        Ok (p :: acc))
      (Ok []) points_l
  in
  let wall = Option.value (Obs.Json.member "wall" json) ~default:(Obs.Json.Obj []) in
  Ok
    {
      schema_version = int_of_float schema;
      seed = int_of_float seed;
      replicas = int_of_float replicas;
      clients = int_of_float clients;
      warmup_ms;
      measure_ms;
      quick;
      points = List.rev points;
      sim_events = int_of_float (opt_num "sim_events" wall);
      wall_s = opt_num "wall_s" wall;
      sim_events_per_sec = opt_num "sim_events_per_sec" wall;
    }

let load ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
    let* json = Obs.Json.parse contents in
    of_json json

let save r ~file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string (to_json r));
      output_char oc '\n')

(* --- the regression gate ------------------------------------------- *)

let compare_runs ~baseline ~current ~threshold =
  let problems = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if baseline.schema_version <> current.schema_version then
    flag "schema version %d != baseline %d" current.schema_version
      baseline.schema_version;
  if
    baseline.seed <> current.seed
    || baseline.replicas <> current.replicas
    || baseline.clients <> current.clients
    || baseline.warmup_ms <> current.warmup_ms
    || baseline.measure_ms <> current.measure_ms
  then
    flag
      "sweep parameters differ (seed/replicas/clients/warmup/measure: \
       %d/%d/%d/%.0f/%.0f vs baseline %d/%d/%d/%.0f/%.0f)"
      current.seed current.replicas current.clients current.warmup_ms
      current.measure_ms baseline.seed baseline.replicas baseline.clients
      baseline.warmup_ms baseline.measure_ms;
  List.iter
    (fun (b : point) ->
      let name = Core.Consistency.to_string b.mode in
      match List.find_opt (fun p -> p.mode = b.mode) current.points with
      | None -> flag "mode %s missing from current run" name
      | Some c ->
        (* lower-is-regression metrics *)
        let down metric bv cv =
          if bv > 0.0 && cv < bv *. (1.0 -. threshold) then
            flag "%s %s regressed %.1f%%: %.1f -> %.1f" name metric
              (100.0 *. (1.0 -. (cv /. bv)))
              bv cv
        in
        (* higher-is-regression metrics *)
        let up metric bv cv =
          if bv > 0.0 && cv > bv *. (1.0 +. threshold) then
            flag "%s %s regressed %.1f%%: %.2f -> %.2f" name metric
              (100.0 *. ((cv /. bv) -. 1.0))
              bv cv
        in
        down "TPS" b.tps c.tps;
        down "certifier decisions/sec" b.cert_decisions_per_sec
          c.cert_decisions_per_sec;
        up "p99 response" b.p99_ms c.p99_ms)
    baseline.points;
  List.rev !problems

let render r =
  Runner.render
    ~title:
      (Printf.sprintf "bench sweep (seed %d, %d replicas, %d clients, %.0f+%.0fms)" r.seed
         r.replicas r.clients r.warmup_ms r.measure_ms)
    [
      ("mode", fun p -> Core.Consistency.to_string p.mode);
      ("committed", fun p -> string_of_int p.committed);
      ("aborted", fun p -> string_of_int p.aborted);
      ("tps", fun p -> Report.fmt_f p.tps);
      ("p50", fun p -> Report.fmt_f p.p50_ms);
      ("p99", fun p -> Report.fmt_f p.p99_ms);
      ("cert/s", fun p -> Report.fmt_f p.cert_decisions_per_sec);
    ]
    r.points
  ^ Printf.sprintf "wall: %d sim events in %.2fs (%.0f events/s)\n" r.sim_events
      r.wall_s r.sim_events_per_sec
