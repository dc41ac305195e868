(* Bechamel micro-benchmarks of the core building blocks (certifier
   conflict check, writeset application, MVCC reads, query execution,
   history checking), so component-level regressions are visible
   independently of the system experiments. The paper's tables and
   figures are regenerated by `repro all` (see EXPERIMENTS.md). *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

let bench_fixture () =
  (* A populated standalone database for storage-level benches. *)
  let schema =
    Storage.Schema.make ~name:"bench"
      ~columns:
        [ ("id", Storage.Value.Tint); ("val", Storage.Value.Tint);
          ("tag", Storage.Value.Ttext) ]
      ~indexes:[ "tag" ] ~key:[ "id" ] ()
  in
  let db = Storage.Database.create () in
  ignore (Storage.Database.create_table db schema);
  Storage.Database.load db "bench"
    (List.init 10_000 (fun i ->
         [|
           Storage.Value.Int i; Storage.Value.Int (i * 7);
           Storage.Value.Text (Printf.sprintf "tag%d" (i mod 100));
         |]));
  db

let writeset_of_size n =
  Storage.Writeset.of_entries
    (List.init n (fun i ->
         {
           Storage.Writeset.ws_table = "bench";
           ws_key = [| Storage.Value.Int i |];
           ws_op =
             Storage.Writeset.Put
               [| Storage.Value.Int i; Storage.Value.Int 0; Storage.Value.Text "t" |];
         }))

(* A clean runlog of [n] transactions, half of them updates spread
   over 64 keys, each acked before the next begins. *)
let checker_log n =
  List.init n (fun i ->
      {
        Check.Runlog.tid = i;
        session = i mod 10;
        begin_time = float_of_int i;
        ack_time = float_of_int i +. 0.5;
        snapshot_version = i;
        commit_version = (if i mod 2 = 0 then Some (i + 1) else None);
        epoch = 0;
        lb_epoch = 0;
        table_set = [ "t" ];
        tier = Check.Runlog.Strong;
        tables_written = (if i mod 2 = 0 then [ "t" ] else []);
        write_keys = (if i mod 2 = 0 then [ ("t", string_of_int (i mod 64)) ] else []);
        trace = None;
      })

let component_tests () =
  let open Bechamel in
  let db = bench_fixture () in
  let rng = Util.Rng.create 1 in
  let mvcc_point_read =
    Test.make ~name:"mvcc point read"
      (Staged.stage (fun () ->
           let key = [| Storage.Value.Int (Util.Rng.int rng 10_000) |] in
           ignore (Storage.Table.read (Storage.Database.table db "bench") ~key ~at:0)))
  in
  let txn_update =
    Test.make ~name:"txn update + writeset extraction"
      (Staged.stage (fun () ->
           let txn = Storage.Txn.begin_ db in
           ignore
             (Storage.Txn.update_key txn ~table:"bench"
                ~key:[| Storage.Value.Int (Util.Rng.int rng 10_000) |]
                ~set:[ ("val", Storage.Expr.i 1) ]);
           ignore (Storage.Txn.writeset txn)))
  in
  let index_select =
    Test.make ~name:"secondary-index select (~100 rows)"
      (Staged.stage (fun () ->
           let txn = Storage.Txn.begin_ db in
           let tag = Printf.sprintf "tag%d" (Util.Rng.int rng 100) in
           ignore
             (Storage.Txn.select txn ~table:"bench"
                ~where:Storage.Expr.(Col 2 = Const (Storage.Value.Text tag))
                ())))
  in
  let small = writeset_of_size 4 and big = writeset_of_size 64 in
  let ws_conflict =
    Test.make ~name:"writeset conflict check (4 vs 64)"
      (Staged.stage (fun () -> ignore (Storage.Writeset.conflicts small big)))
  in
  let checker =
    let log = checker_log 200 in
    Test.make ~name:"strong-consistency check (200 txns)"
      (Staged.stage (fun () -> ignore (Check.Runlog.strong_consistency log)))
  in
  let sim_events =
    Test.make ~name:"simulator: 1000 timer events"
      (Staged.stage (fun () ->
           let engine = Sim.Engine.create () in
           for i = 0 to 999 do
             Sim.Engine.schedule engine ~delay:(float_of_int i) (fun () -> ())
           done;
           Sim.Engine.run engine))
  in
  Test.make_grouped ~name:"components"
    [ mvcc_point_read; txn_update; index_select; ws_conflict; checker; sim_events ]

(* Output verification at the size of a benchmark window: a quadratic
   checker or a sorting fingerprint shows here, not at 200 records. *)
let verification_tests () =
  let open Bechamel in
  let log = checker_log 5_000 in
  let p = Workload.Microbench.default in
  let db = Storage.Database.create () in
  List.iter
    (fun schema -> ignore (Storage.Database.create_table db schema))
    (Workload.Microbench.schemas p);
  Workload.Microbench.load p db;
  Test.make_grouped ~name:"verification"
    [
      Test.make ~name:"strong-consistency check (5000 txns)"
        (Staged.stage (fun () -> ignore (Check.Runlog.strong_consistency log)));
      Test.make ~name:"first-committer-wins check (5000 txns)"
        (Staged.stage (fun () -> ignore (Check.Runlog.first_committer_wins log)));
      Test.make
        ~name:(Printf.sprintf "database fingerprint (%dx%d rows)" p.tables p.rows)
        (Staged.stage (fun () -> ignore (Storage.Database.fingerprint db ~at:0)));
    ]

(* Certification conflict check, Linear log scan vs Keyed index probe,
   with the requesting snapshot 1 / 100 / 10k versions behind a
   10k-entry log. Fixtures come from the certindex experiment so the
   bench and the `repro certindex` sweep measure the same thing. *)
let certification_tests () =
  let open Bechamel in
  let versions = 10_000 and ws_rows = 4 in
  let linear =
    Experiments.Cert_index.build ~index:Core.Config.Linear ~versions ~ws_rows ()
  in
  let keyed =
    Experiments.Cert_index.build ~index:Core.Config.Keyed ~versions ~ws_rows ()
  in
  let ws = Experiments.Cert_index.probe ~versions ~ws_rows in
  let check certifier ~staleness =
    let snapshot = versions - staleness in
    Staged.stage (fun () ->
        ignore (Core.Certifier.check_conflict certifier ~snapshot ~ws))
  in
  Test.make_grouped ~name:"certification"
    (List.concat_map
       (fun staleness ->
         [
           Test.make
             ~name:(Printf.sprintf "linear, %d behind" staleness)
             (check linear ~staleness);
           Test.make
             ~name:(Printf.sprintf "keyed, %d behind" staleness)
             (check keyed ~staleness);
         ])
       [ 1; 100; 10_000 ])

(* Conflict probing over interned dense ids vs boxed (table, key)
   tuples — the two representations a writeset can carry depending on
   whether it was built against the group's intern table. Disjoint key
   ranges force the full scan (worst case for both). *)
let intern_tests () =
  let open Bechamel in
  let entries n offset =
    List.init n (fun i ->
        {
          Storage.Writeset.ws_table = "bench";
          ws_key = [| Storage.Value.Int (offset + i) |];
          ws_op = Storage.Writeset.Delete;
        })
  in
  let intern = Storage.Intern.create () in
  let boxed n offset = Storage.Writeset.of_entries (entries n offset) in
  let interned n offset = Storage.Writeset.of_entries ~intern (entries n offset) in
  let pair name a b =
    Test.make ~name (Staged.stage (fun () -> ignore (Storage.Writeset.conflicts a b)))
  in
  let probe_key = [| Storage.Value.Int 2 |] in
  Test.make_grouped ~name:"interning"
    [
      pair "conflict check, boxed tuples (4 vs 4)" (boxed 4 0) (boxed 4 5_000);
      pair "conflict check, interned ids (4 vs 4)" (interned 4 0) (interned 4 5_000);
      pair "conflict check, boxed tuples (4 vs 64)" (boxed 4 0) (boxed 64 10_000);
      pair "conflict check, interned ids (4 vs 64)" (interned 4 0)
        (interned 64 10_000);
      Test.make ~name:"intern probe, existing key"
        (Staged.stage (fun () ->
             ignore (Storage.Intern.find intern ~table:"bench" ~key:probe_key)));
    ]

(* Flat Bytes-based encoding vs the boxed Buffer codec, round-tripping
   the same logical payload; plus a full runlog-record append into the
   flat sink (the chaos-soak hot path). *)
let codec_tests () =
  let open Bechamel in
  let row =
    [| Storage.Value.Int 42; Storage.Value.Int 7; Storage.Value.Text "tag42" |]
  in
  let boxed_roundtrip =
    Test.make ~name:"row round-trip, boxed Buffer codec"
      (Staged.stage (fun () ->
           let buf = Buffer.create 64 in
           Storage.Codec.encode_row buf row;
           let r = Storage.Codec.reader (Buffer.contents buf) in
           ignore (Storage.Codec.decode_row r)))
  in
  let w = Storage.Codec.Flat.writer ~capacity:256 () in
  let flat_roundtrip =
    Test.make ~name:"fields round-trip, flat Bytes codec"
      (Staged.stage (fun () ->
           Storage.Codec.Flat.clear w;
           Storage.Codec.Flat.int w 42;
           Storage.Codec.Flat.int w 7;
           Storage.Codec.Flat.str w "tag42";
           let c = Storage.Codec.Flat.cursor w in
           ignore (Storage.Codec.Flat.read_int c);
           ignore (Storage.Codec.Flat.read_int c);
           ignore (Storage.Codec.Flat.read_str c)))
  in
  let record =
    {
      Check.Runlog.tid = 42;
      session = 3;
      begin_time = 1234.5;
      ack_time = 1236.0;
      snapshot_version = 41;
      commit_version = Some 43;
      epoch = 0;
      lb_epoch = 0;
      table_set = [ "bench" ];
      tier = Check.Runlog.Strong;
      tables_written = [ "bench" ];
      write_keys = [ ("bench", "42") ];
      trace = None;
    }
  in
  let sink = Check.Runlog.Sink.create ~capacity:1024 () in
  let sink_append =
    Test.make ~name:"runlog record append, flat sink"
      (Staged.stage (fun () ->
           Check.Runlog.Sink.clear sink;
           Check.Runlog.Sink.add sink record))
  in
  Test.make_grouped ~name:"codec"
    [ boxed_roundtrip; flat_roundtrip; sink_append ]

let run_bechamel () =
  let open Bechamel in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let report title test =
    let results = analyze (benchmark test) in
    say "%s" (Experiments.Report.section title);
    let rows = ref [] in
    Hashtbl.iter
      (fun name result ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> rows := (name, Printf.sprintf "%12.0f ns/run" est) :: !rows
        | Some _ | None -> rows := (name, "(no estimate)") :: !rows)
      results;
    List.iter
      (fun (name, cell) -> say "%-48s %s" name cell)
      (List.sort compare !rows)
  in
  report "Component micro-benchmarks (Bechamel)" (component_tests ());
  report "Output verification micro-benchmarks (Bechamel)" (verification_tests ());
  report "Certification index micro-benchmarks (Bechamel)" (certification_tests ());
  report "Interned vs boxed conflict keys (Bechamel)" (intern_tests ());
  report "Flat vs boxed codec (Bechamel)" (codec_tests ())

let () =
  say "Component micro-benchmarks — 'Strongly consistent replication for a bargain'";
  let t0 = Unix.gettimeofday () in
  run_bechamel ();
  say "[bechamel took %.1fs]" (Unix.gettimeofday () -. t0)
