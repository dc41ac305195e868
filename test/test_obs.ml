(* Tests for the observability subsystem: span buffer, sampler,
   windowed time series, the cluster's signal table and the sinks
   derived from it, JSON codec, and the Chrome trace-event exporter fed
   by a real traced cluster run. *)

let mk_trace () =
  let engine = Sim.Engine.create () in
  (engine, Obs.Trace.create engine)

(* --- Trace ring buffer --- *)

let test_trace_spans_in_finish_order () =
  let engine, tr = mk_trace () in
  Sim.Process.spawn engine (fun () ->
      let id = Obs.Trace.next_trace_id tr in
      let root =
        Obs.Trace.start tr ~trace_id:id ~component:(Obs.Span.Client 0) ~name:"root" ()
      in
      Sim.Process.sleep engine 2.0;
      let child =
        Obs.Trace.start tr ~trace_id:id ~parent:root ~component:(Obs.Span.Replica 1)
          ~name:"child" ()
      in
      Sim.Process.sleep engine 3.0;
      Obs.Trace.finish tr child;
      Obs.Trace.finish tr root);
  Sim.Engine.run engine;
  match Obs.Trace.spans tr with
  | [ child; root ] ->
    Alcotest.(check string) "inner span finishes first" "child" child.Obs.Span.name;
    Alcotest.(check (option int)) "parent link" (Some root.Obs.Span.id)
      child.Obs.Span.parent;
    Alcotest.(check (float 1e-9)) "child start" 2.0 child.Obs.Span.start_ms;
    Alcotest.(check (float 1e-9)) "child duration" 3.0 (Obs.Span.duration_ms child);
    Alcotest.(check (float 1e-9)) "root spans the whole txn" 5.0
      (Obs.Span.duration_ms root)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_trace_ring_overwrites_oldest () =
  let engine = Sim.Engine.create () in
  let tr = Obs.Trace.create ~capacity:4 engine in
  for i = 0 to 9 do
    let s =
      Obs.Trace.start tr ~trace_id:i ~component:Obs.Span.Certifier
        ~name:(string_of_int i) ()
    in
    Obs.Trace.finish tr s
  done;
  Alcotest.(check int) "capacity bounds retention" 4 (Obs.Trace.length tr);
  Alcotest.(check int) "overwrites counted" 6 (Obs.Trace.dropped tr);
  Alcotest.(check (list string)) "oldest evicted first" [ "6"; "7"; "8"; "9" ]
    (List.map (fun s -> s.Obs.Span.name) (Obs.Trace.spans tr));
  Obs.Trace.clear tr;
  Alcotest.(check int) "clear empties" 0 (Obs.Trace.length tr)

let test_trace_disabled_is_free () =
  (* The option-threaded entry points must accept [None] everywhere. *)
  let span =
    Obs.Trace.start_opt None ~trace_id:0 ~component:Obs.Span.Load_balancer ~name:"x" ()
  in
  Alcotest.(check bool) "no span materializes" true (span = None);
  Obs.Trace.finish_opt None span;
  Obs.Trace.instant_opt None ~trace_id:0 ~component:Obs.Span.Load_balancer ~name:"x" ()

(* --- Sampler --- *)

let test_sampler_periodic_series () =
  let engine = Sim.Engine.create () in
  let s = Obs.Sampler.create ~interval_ms:10.0 engine in
  Obs.Sampler.add s ~name:"clock" (fun () -> Sim.Engine.now engine);
  Obs.Sampler.start s;
  Sim.Engine.schedule engine ~delay:35.0 (fun () -> Obs.Sampler.stop s);
  Sim.Engine.run engine;
  (* Samples on start and then every 10 ms; the stop at t=35 lets the
     t=40 wake-up exit the loop so a horizonless run can drain. *)
  match Obs.Sampler.series s with
  | [ { Obs.Sampler.name; points } ] ->
    Alcotest.(check string) "series name" "clock" name;
    Alcotest.(check (list (float 1e-9)))
      "one sample per interval" [ 0.0; 10.0; 20.0; 30.0 ]
      (Array.to_list (Array.map fst points));
    Alcotest.(check (list (float 1e-9)))
      "probe read at sample time" [ 0.0; 10.0; 20.0; 30.0 ]
      (Array.to_list (Array.map snd points))
  | l -> Alcotest.failf "expected 1 series, got %d" (List.length l)

let test_sampler_resource_probes () =
  let engine = Sim.Engine.create () in
  let s = Obs.Sampler.create engine in
  let r = Sim.Resource.create engine ~servers:2 in
  Obs.Sampler.add_resource s ~name:"cpu" r;
  Alcotest.(check (list string)) "busy/queue/util probes" [ "cpu.busy"; "cpu.queue"; "cpu.util" ]
    (List.map (fun (ser : Obs.Sampler.series) -> ser.Obs.Sampler.name)
       (Obs.Sampler.series s))

(* --- Timeseries (windowed run-health telemetry) --- *)

(* A scripted 3-window run: activity in windows 0 and 1, silence in the
   flushed partial window 2. *)
let scripted_timeseries () =
  let engine = Sim.Engine.create () in
  let ts = Obs.Timeseries.create ~window_ms:10.0 engine in
  let c = Obs.Timeseries.counter ts "ev" in
  let d = Obs.Timeseries.dist ts "lat" in
  Obs.Timeseries.add_probe ts ~name:"clock" (fun () -> Sim.Engine.now engine);
  (* A monotone external count: whole virtual milliseconds elapsed. *)
  Obs.Timeseries.add_total ts ~name:"elapsed" (fun () ->
      int_of_float (Sim.Engine.now engine));
  Sim.Process.spawn engine (fun () ->
      Obs.Timeseries.bump c;
      Obs.Timeseries.observe d 1.0;
      Sim.Process.sleep engine 12.0;
      Obs.Timeseries.bump ~by:2 c;
      Obs.Timeseries.observe d 100.0;
      Sim.Process.sleep engine 13.0);
  Obs.Timeseries.start ts;
  Sim.Engine.schedule engine ~delay:25.0 (fun () -> Obs.Timeseries.stop ts);
  Sim.Engine.run engine;
  Obs.Timeseries.flush ts;
  ts

let test_timeseries_windows_and_channels () =
  let ts = scripted_timeseries () in
  match Obs.Timeseries.windows ts with
  | [ w0; w1; w2 ] ->
    Alcotest.(check int) "window sequence" 0 w0.Obs.Timeseries.seq;
    Alcotest.(check (float 1e-9)) "w0 spans [0, 10)" 10.0 w0.Obs.Timeseries.end_ms;
    Alcotest.(check (list (pair string int)))
      "w0 counters (sorted; total as its growth)"
      [ ("elapsed", 10); ("ev", 1) ]
      w0.Obs.Timeseries.counters;
    Alcotest.(check (list (pair string int)))
      "counters reset at the boundary"
      [ ("elapsed", 10); ("ev", 2) ]
      w1.Obs.Timeseries.counters;
    Alcotest.(check (float 1e-9)) "windowed rate is count over span" 200.0
      (Obs.Timeseries.rate_per_sec w1 "ev");
    Alcotest.(check (float 1e-9)) "unknown counter rates 0" 0.0
      (Obs.Timeseries.rate_per_sec w1 "nope");
    Alcotest.(check (option (float 1e-9))) "probe read at each close" (Some 10.0)
      (Obs.Timeseries.gauge_value w0 "clock");
    (match Obs.Timeseries.summary_of w1 "lat" with
    | Some s ->
      Alcotest.(check int) "one observation in w1" 1 s.Obs.Timeseries.count;
      Alcotest.(check (float 0.0)) "w1 max is the sample" 100.0 s.Obs.Timeseries.max
    | None -> Alcotest.fail "no lat summary in w1");
    (* The flushed partial window: empty but for the gauges and total. *)
    Alcotest.(check (list (pair string int)))
      "flushed window saw no events"
      [ ("elapsed", 10); ("ev", 0) ]
      w2.Obs.Timeseries.counters;
    (match Obs.Timeseries.summary_of w2 "lat" with
    | Some s -> Alcotest.(check int) "empty dist summary" 0 s.Obs.Timeseries.count
    | None -> Alcotest.fail "dist channel missing from flushed window")
  | ws -> Alcotest.failf "expected 3 windows, got %d" (List.length ws)

let test_timeseries_merged_rolls_up () =
  let ts = scripted_timeseries () in
  match Obs.Timeseries.merged ts "lat" with
  | None -> Alcotest.fail "no merged histogram"
  | Some h ->
    Alcotest.(check int) "both windows' samples" 2 (Util.Histogram.Log.count h);
    Alcotest.(check (float 0.0)) "whole-run min" 1.0 (Util.Histogram.Log.min_value h);
    Alcotest.(check (float 0.0)) "whole-run max" 100.0 (Util.Histogram.Log.max_value h)

let test_timeseries_flush_needs_elapsed_time () =
  let ts = scripted_timeseries () in
  let n = List.length (Obs.Timeseries.windows ts) in
  Obs.Timeseries.flush ts;
  Alcotest.(check int) "flush with no elapsed time is a no-op" n
    (List.length (Obs.Timeseries.windows ts))

let test_timeseries_json_parses_back () =
  let ts = scripted_timeseries () in
  let doc =
    match Obs.Json.parse (Obs.Json.to_string (Obs.Export.timeseries_json ts)) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "timeseries export is not valid JSON: %s" e
  in
  Alcotest.(check (option (float 1e-9))) "window_ms" (Some 10.0)
    (Option.bind (Obs.Json.member "window_ms" doc) Obs.Json.to_float);
  match Option.bind (Obs.Json.member "windows" doc) Obs.Json.to_list with
  | Some ws ->
    Alcotest.(check int) "one object per window" 3 (List.length ws);
    let w0 = List.hd ws in
    Alcotest.(check (option (float 1e-9))) "counters serialized" (Some 1.0)
      (Option.bind
         (Option.bind (Obs.Json.member "counters" w0) (Obs.Json.member "ev"))
         Obs.Json.to_float)
  | None -> Alcotest.fail "no windows array"

(* --- JSON codec --- *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "a \"quoted\"\nline\twith \\ and unicode \x1b");
        ("n", Obs.Json.Num 1.5);
        ("i", Obs.Json.Num 3.0);
        ("neg", Obs.Json.Num (-0.25));
        ("b", Obs.Json.Bool true);
        ("null", Obs.Json.Null);
        ("arr", Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Str "x"; Obs.Json.Obj [] ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "print/parse round-trips" true (parsed = doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun input ->
      match Obs.Json.parse input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" input)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2" ]

(* --- End-to-end: traced cluster run exported as Chrome trace JSON --- *)

let tpcw_traced_trace () =
  let config =
    {
      Core.Config.tpcw with
      Core.Config.replicas = 3;
      seed = 42;
      gc_interval_ms = 0.0;
      hiccup_interval_ms = 0.0;
    }
  in
  let params =
    { Workload.Tpcw.default with Workload.Tpcw.think_mean_ms = 100.0 }
  in
  let cluster =
    Core.Cluster.create ~config ~tracing:true ~mode:Core.Consistency.Fine
      ~schemas:Workload.Tpcw.schemas ~load:(Workload.Tpcw.load params) ()
  in
  for sid = 0 to 11 do
    Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster)
      (Workload.Tpcw.workload params Workload.Tpcw.Ordering ~sid)
  done;
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_000.0;
  match Core.Cluster.trace cluster with
  | Some trace -> trace
  | None -> Alcotest.fail "tracing-enabled cluster has no trace"

let test_chrome_export_parses_back () =
  let trace = tpcw_traced_trace () in
  let doc =
    match Obs.Json.parse (Obs.Export.chrome_trace trace) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "exported trace is not valid JSON: %s" e
  in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some events -> events
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field name ev = Obs.Json.member name ev in
  let str name ev = Option.bind (field name ev) Obs.Json.to_str in
  let num name ev = Option.bind (field name ev) Obs.Json.to_float in
  let complete = List.filter (fun ev -> str "ph" ev = Some "X") events in
  Alcotest.(check bool) "has spans" true (complete <> []);
  (* The §V.A acceptance bar: spans from all three middleware
     components — load balancer, replicas, certifier. *)
  let pids =
    List.sort_uniq compare (List.filter_map (fun ev -> num "pid" ev) complete)
  in
  List.iter
    (fun component ->
      let pid = float_of_int (Obs.Span.pid component) in
      Alcotest.(check bool)
        (Printf.sprintf "spans from %s" (Obs.Span.component_name component))
        true (List.mem pid pids))
    [ Obs.Span.Load_balancer; Obs.Span.Replica 0; Obs.Span.Certifier ];
  (* Every complete event is well-formed: ts/dur present, dur >= 0. *)
  List.iter
    (fun ev ->
      match (num "ts" ev, num "dur" ev, str "name" ev) with
      | Some _, Some dur, Some _ ->
        if dur < 0.0 then Alcotest.fail "negative span duration"
      | _ -> Alcotest.fail "span event missing ts/dur/name")
    complete;
  (* Metadata names every process that emitted spans. *)
  let named_pids =
    List.filter_map
      (fun ev -> if str "ph" ev = Some "M" then num "pid" ev else None)
      events
  in
  List.iter
    (fun pid ->
      Alcotest.(check bool) "span pid has metadata" true (List.mem pid named_pids))
    pids

let test_chrome_export_timeseries_counters () =
  (* A timeseries handed to the exporter renders as Chrome counter
     tracks: one "C" event per channel per window, stamped at the window
     end, under a named telemetry process. *)
  let ts = scripted_timeseries () in
  let engine = Sim.Engine.create () in
  let trace = Obs.Trace.create engine in
  let doc = Obs.Export.chrome_json ~timeseries:ts trace in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
    | Some events -> events
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str name ev = Option.bind (Obs.Json.member name ev) Obs.Json.to_str in
  let counters = List.filter (fun ev -> str "ph" ev = Some "C") events in
  Alcotest.(check bool) "counter events present" true (counters <> []);
  Alcotest.(check bool) "windowed rates exported" true
    (List.exists (fun ev -> str "name" ev = Some "ev/s") counters);
  Alcotest.(check bool) "gauges exported" true
    (List.exists (fun ev -> str "name" ev = Some "clock") counters);
  Alcotest.(check bool) "dist p99 exported" true
    (List.exists (fun ev -> str "name" ev = Some "lat.p99") counters);
  Alcotest.(check bool) "telemetry process named" true
    (List.exists
       (fun ev ->
         str "ph" ev = Some "M"
         && Option.bind (Obs.Json.member "args" ev) (fun a ->
                Option.bind (Obs.Json.member "name" a) Obs.Json.to_str)
            = Some "telemetry")
       events)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_text_dump_mentions_components () =
  let trace = tpcw_traced_trace () in
  let text = Format.asprintf "%a" Obs.Export.pp_text trace in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "text dump mentions %s" needle)
        true
        (contains_substring text needle))
    [ "certify"; "refresh.apply"; "route" ]

(* --- Signals: one table, every sink derived from it --- *)

let sorted = List.sort_uniq String.compare

(* A short run of a faulted 2-replica cluster with the sampler and the
   observatory both attached. *)
let test_signal_name_sets () =
  let params = { Workload.Microbench.tables = 2; rows = 50; update_types = 2 } in
  let config =
    Core.Config.hardened { Core.Config.default with replicas = 2; seed = 11 }
  in
  let cluster =
    Core.Cluster.create ~config
      ~faults:(fun e ->
        let f = Sim.Faults.create ~seed:3 e in
        Sim.Faults.set_default f (Sim.Faults.spec ~drop:0.02 ());
        f)
      ~mode:Core.Consistency.Session
      ~schemas:(Workload.Microbench.schemas params)
      ~load:(Workload.Microbench.load params)
      ()
  in
  Core.Client.spawn_many cluster ~n:4 ~first_sid:0 (Workload.Microbench.workload params);
  let sampler = Core.Cluster.start_telemetry ~interval_ms:50.0 cluster in
  let ts = Core.Cluster.start_observatory ~window_ms:100.0 cluster in
  Core.Cluster.run_for cluster ~warmup_ms:100.0 ~measure_ms:300.0;
  Obs.Sampler.stop sampler;
  Core.Cluster.stop_observatory cluster ts;
  let table = Core.Cluster.signals cluster in
  let names_of l = List.map (fun (s : Core.Cluster.signal) -> s.name) l in
  let names = names_of table in
  Alcotest.(check int) "table names are unique" (List.length names)
    (List.length (sorted names));
  let table_gauges, table_totals =
    List.partition
      (fun (s : Core.Cluster.signal) ->
        match s.source with Core.Cluster.Gauge _ -> true | Core.Cluster.Total _ -> false)
      table
  in
  let series = List.map (fun (s : Obs.Sampler.series) -> s.name) (Obs.Sampler.series sampler) in
  Alcotest.(check (list string)) "sampler series = table" (sorted names) (sorted series);
  let outcome_counters = [ "txn.abort"; "txn.commit"; "txn.commit_ro" ] in
  let outcome_dists =
    "response" :: List.map (fun s -> "stage." ^ Core.Metrics.stage_name s) Core.Metrics.stages
  in
  let w = List.hd (Obs.Timeseries.windows ts) in
  let keys l = sorted (List.map fst l) in
  let gauges = keys w.Obs.Timeseries.gauges
  and counters = keys w.Obs.Timeseries.counters
  and dists = keys w.Obs.Timeseries.dists in
  Alcotest.(check (list string)) "observatory gauges = table gauges"
    (sorted (names_of table_gauges)) gauges;
  Alcotest.(check (list string)) "observatory counters = table totals + outcomes"
    (sorted (names_of table_totals @ outcome_counters))
    counters;
  Alcotest.(check (list string)) "observatory dists = outcomes" (sorted outcome_dists) dists;
  (* Every channel the observatory exported before the table existed. *)
  let earlier_counters =
    outcome_counters
    @ [
        "certifier.decisions"; "certifier.elections"; "certifier.fenced";
        "certifier.lease_expiries"; "certifier.promotions"; "certifier.vote_denials";
        "detector.dead"; "detector.suspect"; "fault.delays"; "fault.drops";
        "fault.duplicates"; "lb.takeovers"; "net.retransmits"; "txn.deadline_expired";
        "txn.retry_budget_exhausted"; "txn.shed";
      ]
  and earlier_gauges =
    [
      "certifier.backlog"; "certifier.epoch"; "certifier.log_base"; "certifier.log_size";
      "certifier.standby_lag"; "certifier.watermark.min"; "lb.admitted";
      "lb.session_floors"; "refresh_queue.total"; "replica0.lag"; "replica1.lag";
      "replicas.lag.max"; "v_system";
    ]
  in
  let subset what earlier now =
    List.iter
      (fun name ->
        if not (List.mem name now) then Alcotest.failf "%s channel %S is gone" what name)
      earlier
  in
  subset "counter" earlier_counters counters;
  subset "gauge" earlier_gauges gauges;
  (* The benchmark selects sampler series by these predicates. *)
  let matching pred = List.filter pred series |> sorted in
  Alcotest.(check (list string)) "replica CPU queue series"
    [ "replica0.cpu.queue"; "replica1.cpu.queue" ]
    (matching (fun n ->
         String.starts_with ~prefix:"replica" n && String.ends_with ~suffix:".cpu.queue" n));
  Alcotest.(check (list string)) "refresh queue series"
    [ "replica0.refresh_queue"; "replica1.refresh_queue" ]
    (matching (String.ends_with ~suffix:".refresh_queue"));
  Alcotest.(check (list string)) "certifier backlog series" [ "certifier.backlog" ]
    (matching (String.equal "certifier.backlog"))

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "spans in finish order" `Quick test_trace_spans_in_finish_order;
        Alcotest.test_case "ring overwrites oldest" `Quick test_trace_ring_overwrites_oldest;
        Alcotest.test_case "disabled path" `Quick test_trace_disabled_is_free;
      ] );
    ( "obs.signals",
      [ Alcotest.test_case "name sets agree across sinks" `Quick test_signal_name_sets ] );
    ( "obs.sampler",
      [
        Alcotest.test_case "periodic series" `Quick test_sampler_periodic_series;
        Alcotest.test_case "resource probes" `Quick test_sampler_resource_probes;
      ] );
    ( "obs.timeseries",
      [
        Alcotest.test_case "windows and channels" `Quick
          test_timeseries_windows_and_channels;
        Alcotest.test_case "merged histograms roll up" `Quick
          test_timeseries_merged_rolls_up;
        Alcotest.test_case "flush idempotent" `Quick
          test_timeseries_flush_needs_elapsed_time;
        Alcotest.test_case "json export parses back" `Quick
          test_timeseries_json_parses_back;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "chrome trace parses back" `Quick test_chrome_export_parses_back;
        Alcotest.test_case "chrome counter tracks" `Quick
          test_chrome_export_timeseries_counters;
        Alcotest.test_case "text dump" `Quick test_text_dump_mentions_components;
      ] );
  ]
