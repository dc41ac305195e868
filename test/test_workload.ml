(* Tests for the workload generators. *)

let test_micro_schema_and_load () =
  let p = { Workload.Microbench.tables = 3; rows = 50; update_types = 1 } in
  let db = Storage.Database.create () in
  List.iter
    (fun s -> ignore (Storage.Database.create_table db s))
    (Workload.Microbench.schemas p);
  Workload.Microbench.load p db;
  Alcotest.(check (list string)) "table names" [ "t00"; "t01"; "t02" ]
    (Storage.Database.table_names db);
  let t = Storage.Database.table db "t01" in
  Alcotest.(check int) "row count" 50 (Storage.Table.row_count t ~at:0);
  match Storage.Table.read t ~key:[| Storage.Value.Int 7 |] ~at:0 with
  | Some row ->
    Alcotest.(check int) "deterministic value" (7 * 17 mod 97) (Storage.Value.as_int row.(1))
  | None -> Alcotest.fail "row 7 missing"

let test_micro_request_shape () =
  let p = { Workload.Microbench.tables = 4; rows = 100; update_types = 2 } in
  let rng = Util.Rng.create 5 in
  let reads = ref 0 and updates = ref 0 in
  for _ = 1 to 1000 do
    let req = Workload.Microbench.request p rng in
    Alcotest.(check int) "single statement" 1 (List.length req.Core.Transaction.statements);
    Alcotest.(check int) "single-table table-set" 1
      (List.length req.Core.Transaction.table_set);
    if Core.Transaction.updates_possible req then incr updates else incr reads
  done;
  (* update_types/tables = 1/2 of requests should be updates. *)
  Alcotest.(check bool)
    (Printf.sprintf "update ratio ~50%% (got %d/1000)" !updates)
    true
    (!updates > 420 && !updates < 580)

let test_micro_request_targets_right_tables () =
  let p = { Workload.Microbench.tables = 4; rows = 10; update_types = 2 } in
  let rng = Util.Rng.create 6 in
  for _ = 1 to 200 do
    let req = Workload.Microbench.request p rng in
    let table = List.hd req.Core.Transaction.table_set in
    if Core.Transaction.updates_possible req then
      Alcotest.(check bool) "updates hit t00/t01" true (table = "t00" || table = "t01")
    else Alcotest.(check bool) "reads hit t02/t03" true (table = "t02" || table = "t03")
  done

let tpcw_params =
  { Workload.Tpcw.default with items = 200; customers = 100; authors = 20;
    initial_orders = 80 }

let tpcw_db () =
  let db = Storage.Database.create () in
  List.iter (fun s -> ignore (Storage.Database.create_table db s)) Workload.Tpcw.schemas;
  Workload.Tpcw.load tpcw_params db;
  db

let test_tpcw_population () =
  let db = tpcw_db () in
  let count name = Storage.Table.row_count (Storage.Database.table db name) ~at:0 in
  Alcotest.(check int) "items" 200 (count "item");
  Alcotest.(check int) "customers" 100 (count "customer");
  Alcotest.(check int) "addresses" 200 (count "address");
  Alcotest.(check int) "orders" 80 (count "orders");
  Alcotest.(check int) "order lines (3 per order)" 240 (count "order_line");
  Alcotest.(check int) "cc_xacts" 80 (count "cc_xacts");
  Alcotest.(check int) "carts start empty" 0 (count "shopping_cart")

let test_tpcw_mix_weights () =
  List.iter
    (fun mix ->
      let weights = Workload.Tpcw.weights mix in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
      Alcotest.(check (float 1e-6))
        (Workload.Tpcw.mix_name mix ^ " weights sum to 100")
        100.0 total;
      let updates =
        List.fold_left
          (fun acc (tx, w) -> if Workload.Tpcw.is_update_tx tx then acc +. w else acc)
          0.0 weights
      in
      Alcotest.(check (float 1e-6))
        (Workload.Tpcw.mix_name mix ^ " update fraction")
        (Workload.Tpcw.update_fraction mix *. 100.0)
        updates)
    [ Workload.Tpcw.Browsing; Workload.Tpcw.Shopping; Workload.Tpcw.Ordering ]

let test_tpcw_sampling_matches_weights () =
  let rng = Util.Rng.create 17 in
  let n = 20_000 in
  let updates = ref 0 in
  for _ = 1 to n do
    let tx = Workload.Tpcw.sample_tx Workload.Tpcw.Ordering rng in
    if Workload.Tpcw.is_update_tx tx then incr updates
  done;
  let frac = float_of_int !updates /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "ordering sampled update fraction ~0.5 (got %.3f)" frac)
    true
    (frac > 0.47 && frac < 0.53)

let test_tpcw_transactions_execute () =
  (* Every transaction type must run cleanly against a fresh database. *)
  let db = tpcw_db () in
  let rng = Util.Rng.create 23 in
  List.iter
    (fun tx ->
      let req = Workload.Tpcw.request tpcw_params ~sid:1 tx rng in
      let txn = Storage.Txn.begin_ db in
      List.iter
        (fun stmt ->
          match Storage.Query.exec txn stmt with
          | Storage.Query.Error msg, _ ->
            Alcotest.failf "%s: statement failed: %s" (Workload.Tpcw.tx_name tx) msg
          | (Storage.Query.Rows _ | Storage.Query.Affected _), _ -> ())
        req.Core.Transaction.statements;
      match Storage.Txn.commit_standalone txn with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: commit failed: %s" (Workload.Tpcw.tx_name tx) e)
    [
      Workload.Tpcw.Home; Workload.Tpcw.New_products; Workload.Tpcw.Best_sellers;
      Workload.Tpcw.Product_detail; Workload.Tpcw.Search; Workload.Tpcw.Shopping_cart;
      Workload.Tpcw.Customer_registration; Workload.Tpcw.Buy_request;
      Workload.Tpcw.Buy_confirm; Workload.Tpcw.Order_inquiry; Workload.Tpcw.Admin_confirm;
    ]

let test_tpcw_update_classification () =
  (* The statements of update transactions must actually write, and those
     of read-only transactions must not. *)
  let rng = Util.Rng.create 29 in
  List.iter
    (fun tx ->
      let req = Workload.Tpcw.request tpcw_params ~sid:2 tx rng in
      Alcotest.(check bool)
        (Workload.Tpcw.tx_name tx ^ " classification")
        (Workload.Tpcw.is_update_tx tx)
        (Core.Transaction.updates_possible req))
    [
      Workload.Tpcw.Home; Workload.Tpcw.Best_sellers; Workload.Tpcw.Search;
      Workload.Tpcw.Shopping_cart; Workload.Tpcw.Buy_confirm; Workload.Tpcw.Buy_request;
      Workload.Tpcw.Customer_registration; Workload.Tpcw.Admin_confirm;
    ]

let test_tpcw_cart_isolated_per_session () =
  let rng = Util.Rng.create 31 in
  let req17 = Workload.Tpcw.request tpcw_params ~sid:17 Workload.Tpcw.Shopping_cart rng in
  List.iter
    (fun stmt ->
      match stmt with
      | Storage.Query.Put { table = "shopping_cart"; row } ->
        Alcotest.(check int) "cart keyed by session" 17 (Storage.Value.as_int row.(0))
      | Storage.Query.Put { table = "shopping_cart_line"; row } ->
        Alcotest.(check int) "cart line keyed by session" 17 (Storage.Value.as_int row.(0))
      | _ -> ())
    req17.Core.Transaction.statements

let test_tpcw_table_sets_are_supersets () =
  (* The declared table-set must cover every statement's table — the
     correctness prerequisite of the fine-grained approach. *)
  let rng = Util.Rng.create 37 in
  List.iter
    (fun tx ->
      for _ = 1 to 20 do
        let req = Workload.Tpcw.request tpcw_params ~sid:3 tx rng in
        List.iter
          (fun stmt ->
            let table = Storage.Query.table_of stmt in
            Alcotest.(check bool)
              (Printf.sprintf "%s table-set covers %s" (Workload.Tpcw.tx_name tx) table)
              true
              (List.mem table req.Core.Transaction.table_set))
          req.Core.Transaction.statements
      done)
    [ Workload.Tpcw.Home; Workload.Tpcw.Shopping_cart; Workload.Tpcw.Buy_confirm;
      Workload.Tpcw.Order_inquiry ]

(* --- YCSB --- *)

let ycsb_params = { Workload.Ycsb.default with records = 500 }

let test_ycsb_population () =
  let db = Storage.Database.create () in
  List.iter
    (fun s -> ignore (Storage.Database.create_table db s))
    (Workload.Ycsb.schemas ycsb_params);
  Workload.Ycsb.load ycsb_params db;
  Alcotest.(check int) "records loaded" 500
    (Storage.Table.row_count (Storage.Database.table db Workload.Ycsb.table) ~at:0)

let test_ycsb_mix_fractions () =
  let rng = Util.Rng.create 41 in
  List.iter
    (fun mix ->
      let updates = ref 0 in
      let n = 5_000 in
      for _ = 1 to n do
        let req = Workload.Ycsb.request ycsb_params mix rng in
        if Core.Transaction.updates_possible req then incr updates
      done;
      let frac = float_of_int !updates /. float_of_int n in
      let expected = Workload.Ycsb.update_fraction mix in
      Alcotest.(check bool)
        (Printf.sprintf "%s update fraction ~%.2f (got %.3f)"
           (Workload.Ycsb.mix_name mix) expected frac)
        true
        (Float.abs (frac -. expected) < 0.03))
    [ Workload.Ycsb.A; Workload.Ycsb.B; Workload.Ycsb.C; Workload.Ycsb.D;
      Workload.Ycsb.E; Workload.Ycsb.F ]

let test_ycsb_requests_execute () =
  let db = Storage.Database.create () in
  List.iter
    (fun s -> ignore (Storage.Database.create_table db s))
    (Workload.Ycsb.schemas ycsb_params);
  Workload.Ycsb.load ycsb_params db;
  let rng = Util.Rng.create 43 in
  List.iter
    (fun mix ->
      for _ = 1 to 50 do
        let req = Workload.Ycsb.request ycsb_params mix rng in
        let txn = Storage.Txn.begin_ db in
        List.iter
          (fun stmt ->
            match Storage.Query.exec txn stmt with
            | Storage.Query.Error msg, _ -> Alcotest.fail msg
            | (Storage.Query.Rows _ | Storage.Query.Affected _), _ -> ())
          req.Core.Transaction.statements;
        ignore (Storage.Txn.commit_standalone txn)
      done)
    [ Workload.Ycsb.A; Workload.Ycsb.E; Workload.Ycsb.F ]

let test_ycsb_skew () =
  (* With theta=0.99 the hottest key must be much hotter than the median. *)
  let rng = Util.Rng.create 47 in
  let counts = Hashtbl.create 512 in
  for _ = 1 to 20_000 do
    let req = Workload.Ycsb.request ycsb_params Workload.Ycsb.C rng in
    match req.Core.Transaction.statements with
    | [ Storage.Query.Get { key; _ } ] ->
      let k = Storage.Value.as_int key.(0) in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0)
    | _ -> Alcotest.fail "expected a single Get"
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "zipf hot key dominates (hottest=%d)" hottest)
    true (hottest > 500)

let test_ycsb_cluster_run () =
  (* End-to-end: YCSB-A on a small cluster keeps strong consistency. *)
  let config =
    { Core.Config.default with replicas = 3; seed = 3; record_log = true;
      gc_interval_ms = 0.0 }
  in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Coarse
      ~schemas:(Workload.Ycsb.schemas ycsb_params)
      ~load:(Workload.Ycsb.load ycsb_params)
      ()
  in
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0
    (Workload.Ycsb.workload ycsb_params Workload.Ycsb.A);
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_000.0;
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "committed work" true (List.length log > 100);
  Alcotest.(check int) "strongly consistent" 0
    (List.length (Check.Runlog.strong_consistency log));
  Alcotest.(check int) "first-committer-wins" 0
    (List.length (Check.Runlog.first_committer_wins log))

(* --- TPC-C --- *)

let tpcc_params =
  { Workload.Tpcc.default with warehouses = 2; customers_per_district = 30;
    items = 100; initial_orders_per_district = 20 }

let tpcc_db () =
  let db = Storage.Database.create () in
  List.iter (fun s -> ignore (Storage.Database.create_table db s)) Workload.Tpcc.schemas;
  Workload.Tpcc.load tpcc_params db;
  db

let test_tpcc_population () =
  let db = tpcc_db () in
  let count name = Storage.Table.row_count (Storage.Database.table db name) ~at:0 in
  Alcotest.(check int) "warehouses" 2 (count "warehouse");
  Alcotest.(check int) "districts" 20 (count "district");
  Alcotest.(check int) "customers" 600 (count "tpcc_customer");
  Alcotest.(check int) "stock is warehouses x items" 200 (count "stock");
  Alcotest.(check int) "orders" 400 (count "tpcc_orders");
  Alcotest.(check int) "order lines" 2000 (count "tpcc_order_line");
  (* 30% of initial orders are undelivered. *)
  Alcotest.(check int) "new_order backlog" 120 (count "new_order")

let test_tpcc_transactions_execute () =
  let db = tpcc_db () in
  let rng = Util.Rng.create 51 in
  List.iter
    (fun tx ->
      for _ = 1 to 20 do
        let req = Workload.Tpcc.request tpcc_params tx rng in
        let txn = Storage.Txn.begin_ db in
        List.iter
          (fun stmt ->
            match Storage.Query.exec txn stmt with
            | Storage.Query.Error msg, _ ->
              Alcotest.failf "%s: %s" (Workload.Tpcc.tx_name tx) msg
            | (Storage.Query.Rows _ | Storage.Query.Affected _), _ -> ())
          req.Core.Transaction.statements;
        match Storage.Txn.commit_standalone txn with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s commit: %s" (Workload.Tpcc.tx_name tx) e
      done)
    [ Workload.Tpcc.New_order; Workload.Tpcc.Payment; Workload.Tpcc.Order_status;
      Workload.Tpcc.Delivery; Workload.Tpcc.Stock_level ]

let test_tpcc_mix () =
  let rng = Util.Rng.create 53 in
  let updates = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Workload.Tpcc.is_update_tx (Workload.Tpcc.sample_tx rng) then incr updates
  done;
  let frac = float_of_int !updates /. float_of_int n in
  (* new_order + payment + delivery = 92%. *)
  Alcotest.(check bool)
    (Printf.sprintf "update fraction ~0.92 (got %.3f)" frac)
    true
    (Float.abs (frac -. 0.92) < 0.02)

let test_tpcc_serializable_under_si () =
  (* The classic result the paper leans on: TPC-C has no dangerous
     structure, so it runs serializably under SI/GSI. *)
  Alcotest.(check bool) "no dangerous structures" true
    (Check.Si_analysis.serializable_under_si Workload.Tpcc.profiles)

let test_tpcc_cluster_run () =
  let config =
    { Core.Config.default with replicas = 3; seed = 13; record_log = true;
      gc_interval_ms = 0.0 }
  in
  (* Spec-shaped contention: ~2-3 terminals per warehouse. *)
  let params = { tpcc_params with Workload.Tpcc.warehouses = 4 } in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Fine
      ~schemas:Workload.Tpcc.schemas
      ~load:(Workload.Tpcc.load params)
      ()
  in
  (* The spec paces terminals with keying/think times; without any, ten
     closed-loop clients over two warehouses turn the w_ytd hot row into
     a conflict storm. A short think time restores the spec's shape. *)
  Core.Client.spawn_many cluster ~n:10 ~first_sid:0
    {
      (Workload.Tpcc.workload params) with
      Core.Client.think_ms = Core.Client.exp_think ~mean_ms:40.0;
    };
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:3_000.0;
  let log = Core.Cluster.records cluster in
  Alcotest.(check bool) "committed work" true (List.length log > 100);
  Alcotest.(check int) "table-set strong consistency" 0
    (List.length (Check.Runlog.fine_strong_consistency log));
  Alcotest.(check int) "first-committer-wins" 0
    (List.length (Check.Runlog.first_committer_wins log));
  (* The district hot counter makes write-write aborts expected but
     bounded. *)
  let m = Core.Cluster.metrics cluster in
  Alcotest.(check bool)
    (Printf.sprintf "abort rate sane (got %.3f)" (Core.Metrics.abort_rate m))
    true
    (Core.Metrics.abort_rate m < 0.25)

(* A short fine-mode TPC-W cluster, pinned. Secondary-index selects,
   primary-key ranges over order_line interleaved with fresh order
   inserts, and MVCC gc all run here; the rows a scan returns and the
   rows_scanned/rows_read it reports price virtual CPU time, so any
   change in what a storage scan reads or returns moves the runlog
   digest. The golden values were captured from the full-sort key
   directory and the list-based index lookup the incremental directory
   and the streaming index select replaced. *)
let tpcw_golden_run () =
  let config =
    { Core.Config.default with replicas = 2; seed = 23; record_log = true }
  in
  let params = { tpcw_params with Workload.Tpcw.think_mean_ms = 20.0 } in
  let cluster =
    Core.Cluster.create ~config ~mode:Core.Consistency.Fine
      ~schemas:Workload.Tpcw.schemas
      ~load:(Workload.Tpcw.load params)
      ()
  in
  for sid = 0 to 11 do
    Core.Client.spawn cluster ~sid ~rng:(Core.Cluster.rng cluster)
      (Workload.Tpcw.workload params Workload.Tpcw.Shopping ~sid)
  done;
  Core.Cluster.run_for cluster ~warmup_ms:200.0 ~measure_ms:2_000.0;
  let log = Core.Cluster.records cluster in
  let fingerprints =
    List.init 2 (fun i ->
        let r = Core.Cluster.replica cluster i in
        Storage.Database.fingerprint (Core.Replica.database r) ~at:(Core.Replica.v_local r))
  in
  (Check.Runlog.digest log, List.length log, fingerprints)

let golden_tpcw_digest = "2139b8a01d8eab656c63c14c4ce46ba1"
let golden_tpcw_commits = 978
let golden_tpcw_fingerprints = [ 2565643156232927746; 2565643156232927746 ]

let test_tpcw_cluster_matches_golden () =
  let digest, commits, fingerprints = tpcw_golden_run () in
  Alcotest.(check int) "golden commit count" golden_tpcw_commits commits;
  Alcotest.(check string) "golden runlog digest" golden_tpcw_digest digest;
  Alcotest.(check (list int)) "golden replica fingerprints" golden_tpcw_fingerprints
    fingerprints

let suites =
  [
    ( "workload.micro",
      [
        Alcotest.test_case "schema and load" `Quick test_micro_schema_and_load;
        Alcotest.test_case "request shape" `Quick test_micro_request_shape;
        Alcotest.test_case "request targets" `Quick test_micro_request_targets_right_tables;
      ] );
    ( "workload.tpcw",
      [
        Alcotest.test_case "population" `Quick test_tpcw_population;
        Alcotest.test_case "mix weights" `Quick test_tpcw_mix_weights;
        Alcotest.test_case "sampling matches weights" `Quick
          test_tpcw_sampling_matches_weights;
        Alcotest.test_case "transactions execute" `Quick test_tpcw_transactions_execute;
        Alcotest.test_case "update classification" `Quick test_tpcw_update_classification;
        Alcotest.test_case "cart per session" `Quick test_tpcw_cart_isolated_per_session;
        Alcotest.test_case "table-sets are supersets" `Quick
          test_tpcw_table_sets_are_supersets;
        Alcotest.test_case "fine cluster run matches golden" `Quick
          test_tpcw_cluster_matches_golden;
      ] );
    ( "workload.tpcc",
      [
        Alcotest.test_case "population" `Quick test_tpcc_population;
        Alcotest.test_case "transactions execute" `Quick test_tpcc_transactions_execute;
        Alcotest.test_case "mix fractions" `Quick test_tpcc_mix;
        Alcotest.test_case "serializable under SI" `Quick test_tpcc_serializable_under_si;
        Alcotest.test_case "cluster run is consistent" `Quick test_tpcc_cluster_run;
      ] );
    ( "workload.ycsb",
      [
        Alcotest.test_case "population" `Quick test_ycsb_population;
        Alcotest.test_case "mix fractions" `Quick test_ycsb_mix_fractions;
        Alcotest.test_case "requests execute" `Quick test_ycsb_requests_execute;
        Alcotest.test_case "zipf skew" `Quick test_ycsb_skew;
        Alcotest.test_case "cluster run is consistent" `Quick test_ycsb_cluster_run;
      ] );
  ]
