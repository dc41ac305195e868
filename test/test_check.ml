(* Tests for the consistency checkers, including the paper's §II
   example histories H1, H2, H3. *)

open Check

(* H1 = {B1, W1(X=1), C1, B2, R2(X=0), C2}: serializable (as T2,T1) but
   NOT strongly consistent. *)
let h1 : History.t =
  [
    History.Begin 1;
    History.Write (1, "X", 1);
    History.Commit 1;
    History.Begin 2;
    History.Read (2, "X", 0);
    History.Commit 2;
  ]

(* H2 = same but T2 reads the new value: strongly consistent and
   serializable as T1,T2. *)
let h2 : History.t =
  [
    History.Begin 1;
    History.Write (1, "X", 1);
    History.Commit 1;
    History.Begin 2;
    History.Read (2, "X", 1);
    History.Commit 2;
  ]

(* H3 = write-skew-shaped: strongly consistent and snapshot-legal, but
   not serializable. *)
let h3 : History.t =
  [
    History.Begin 1;
    History.Read (1, "X", 0);
    History.Read (1, "Y", 0);
    History.Begin 2;
    History.Read (2, "X", 0);
    History.Read (2, "Y", 0);
    History.Write (1, "X", 1);
    History.Write (2, "Y", 1);
    History.Commit 1;
    History.Commit 2;
  ]

let test_h1 () =
  Alcotest.(check bool) "H1 serializable" true (Checker.serializable h1);
  Alcotest.(check bool) "H1 not strongly consistent" false (Checker.strongly_consistent h1);
  (* With T1 and T2 in different sessions, session consistency holds. *)
  Alcotest.(check bool) "H1 session consistent (separate sessions)" true
    (Checker.session_consistent ~session:(fun t -> t) h1);
  (* In the same session even session consistency is violated. *)
  Alcotest.(check bool) "H1 violates same-session consistency" false
    (Checker.session_consistent ~session:(fun _ -> 0) h1)

let test_h1_gsi_legal () =
  (* H1 is exactly the GSI-legal-but-not-strong case: T2 may read an
     older snapshot under `Any, but not under `Strong. *)
  Alcotest.(check bool) "H1 legal under GSI" true
    (Checker.snapshot_consistent ~mode:`Any h1);
  Alcotest.(check bool) "H1 passes first-committer-wins" true
    (Checker.first_committer_wins h1)

let test_h2 () =
  Alcotest.(check bool) "H2 serializable" true (Checker.serializable h2);
  Alcotest.(check bool) "H2 strongly consistent" true (Checker.strongly_consistent h2)

let test_h3 () =
  Alcotest.(check bool) "H3 not serializable" false (Checker.serializable h3);
  Alcotest.(check bool) "H3 strongly consistent" true (Checker.strongly_consistent h3);
  Alcotest.(check bool) "H3 snapshot-legal" true
    (Checker.snapshot_consistent ~mode:`Any h3);
  Alcotest.(check bool) "H3 passes first-committer-wins" true
    (Checker.first_committer_wins h3)

let test_first_committer_wins_violation () =
  (* Two concurrent transactions writing the same item both commit. *)
  let h : History.t =
    [
      History.Begin 1;
      History.Begin 2;
      History.Write (1, "X", 1);
      History.Write (2, "X", 2);
      History.Commit 1;
      History.Commit 2;
    ]
  in
  Alcotest.(check bool) "concurrent conflicting commits flagged" false
    (Checker.first_committer_wins h);
  (* Sequential versions of the same writes are fine. *)
  let h' : History.t =
    [
      History.Begin 1;
      History.Write (1, "X", 1);
      History.Commit 1;
      History.Begin 2;
      History.Write (2, "X", 2);
      History.Commit 2;
    ]
  in
  Alcotest.(check bool) "sequential writers ok" true (Checker.first_committer_wins h')

let test_well_formed () =
  Alcotest.(check bool) "h1 well-formed" true (History.well_formed h1 = Ok ());
  let bad = [ History.Read (1, "X", 0) ] in
  Alcotest.(check bool) "op before begin rejected" true
    (match History.well_formed bad with Error _ -> true | Ok () -> false);
  let double = [ History.Begin 1; History.Begin 1 ] in
  Alcotest.(check bool) "double begin rejected" true
    (match History.well_formed double with Error _ -> true | Ok () -> false)

let test_commits_before_begin () =
  Alcotest.(check (list (pair int int))) "H1 precedence" [ (1, 2) ]
    (History.commits_before_begin h1);
  Alcotest.(check (list (pair int int))) "H3 has no precedence pairs" []
    (History.commits_before_begin h3)

(* --- Runlog checkers --- *)

let record ?(session = 0) ?(table_set = [ "t" ]) ?(written = []) ?(keys = []) ?(epoch = 0)
    ?(lb_epoch = 0) ?(tier = Runlog.Strong) tid ~begin_ ~ack ~snapshot ~commit =
  {
    Runlog.tid;
    session;
    begin_time = begin_;
    ack_time = ack;
    snapshot_version = snapshot;
    commit_version = commit;
    epoch;
    lb_epoch;
    table_set;
    tier;
    tables_written = written;
    write_keys = keys;
    trace = None;
  }

let test_runlog_strong_ok () =
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "t" ];
      record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:1 ~commit:None;
    ]
  in
  Alcotest.(check int) "no violations" 0 (List.length (Runlog.strong_consistency log))

let test_runlog_strong_violation () =
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "t" ];
      record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:0 ~commit:None;
    ]
  in
  Alcotest.(check int) "stale snapshot detected" 1
    (List.length (Runlog.strong_consistency log));
  (* Overlapping transactions are unconstrained. *)
  let overlapping =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "t" ];
      record 2 ~begin_:5.0 ~ack:20.0 ~snapshot:0 ~commit:None;
    ]
  in
  Alcotest.(check int) "overlap not flagged" 0
    (List.length (Runlog.strong_consistency overlapping))

let test_runlog_fine_scoping () =
  (* T1 writes table "a"; T2's table-set is {"b"}: a stale snapshot is
     fine under the table-set-scoped property but not the full one. *)
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "a" ]
        ~table_set:[ "a" ];
      record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:0 ~commit:None ~table_set:[ "b" ];
    ]
  in
  Alcotest.(check int) "full strong consistency violated" 1
    (List.length (Runlog.strong_consistency log));
  Alcotest.(check int) "table-set-scoped consistency holds" 0
    (List.length (Runlog.fine_strong_consistency log))

let test_runlog_session_scoping () =
  let log =
    [
      record ~session:1 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1)
        ~written:[ "t" ];
      record ~session:2 2 ~begin_:11.0 ~ack:20.0 ~snapshot:0 ~commit:None;
      record ~session:1 3 ~begin_:12.0 ~ack:21.0 ~snapshot:0 ~commit:None;
    ]
  in
  (* T2 is in another session: not a session violation. T3 is in T1's
     session and must see v1. *)
  let violations = Runlog.session_consistency log in
  Alcotest.(check int) "one session violation" 1 (List.length violations);
  match violations with
  | [ v ] -> Alcotest.(check int) "the same-session pair" 3 v.Runlog.second.Runlog.tid
  | _ -> Alcotest.fail "expected exactly one violation"

let test_runlog_fcw () =
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
      record 2 ~begin_:1.0 ~ack:11.0 ~snapshot:0 ~commit:(Some 2)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
    ]
  in
  Alcotest.(check int) "concurrent same-key commits flagged" 1
    (List.length (Runlog.first_committer_wins log));
  let ok =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
      record 2 ~begin_:1.0 ~ack:11.0 ~snapshot:1 ~commit:(Some 2)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
    ]
  in
  Alcotest.(check int) "serialized same-key commits ok" 0
    (List.length (Runlog.first_committer_wins ok))

let test_runlog_monotone_session () =
  let log =
    [
      record ~session:5 1 ~begin_:0.0 ~ack:10.0 ~snapshot:9 ~commit:None;
      record ~session:5 2 ~begin_:11.0 ~ack:20.0 ~snapshot:3 ~commit:None;
    ]
  in
  Alcotest.(check int) "snapshot regression flagged" 1
    (List.length (Runlog.monotone_session_snapshots log))

(* Property: the strong-consistency checker is monotone — raising a later
   transaction's snapshot version never introduces a violation. *)
let prop_strong_monotone_in_snapshot =
  QCheck.Test.make ~name:"runlog strong checker monotone in snapshot" ~count:100
    QCheck.(pair (int_range 0 5) (int_range 0 5))
    (fun (snap_lo, extra) ->
      let log snap =
        [
          record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 3) ~written:[ "t" ];
          record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:snap ~commit:None;
        ]
      in
      let v lo = List.length (Runlog.strong_consistency (log lo)) in
      v (snap_lo + extra) <= v snap_lo)

(* The counterexample to a begin-adjacent walk: one session keeps three
   transactions in flight. c began after a was acked but read an older
   snapshot; b sits between them in begin order and hides the pair. *)
let test_runlog_monotone_overlapping () =
  let log =
    [
      record ~session:1 1 ~begin_:0.0 ~ack:10.0 ~snapshot:5 ~commit:None;
      record ~session:1 2 ~begin_:5.0 ~ack:20.0 ~snapshot:3 ~commit:None;
      record ~session:1 3 ~begin_:11.0 ~ack:12.0 ~snapshot:4 ~commit:None;
    ]
  in
  match Runlog.monotone_session_snapshots log with
  | [ v ] ->
    Alcotest.(check (pair int int)) "a -> c" (1, 3) (v.Runlog.first.tid, v.Runlog.second.tid)
  | vs -> Alcotest.failf "expected exactly the pair a -> c, got %d" (List.length vs)

(* --- Differential: indexed checkers against the quadratic oracle --- *)

(* Small random logs dense in the corner cases: stale snapshots,
   duplicate commit versions, snapshot >= commit, equal begin and ack
   times (and the odd ack before its begin), every tier, several
   sessions, certifier and LB epochs, and repeated written keys. *)
let log_gen =
  let open QCheck.Gen in
  let tables = [ "a"; "b"; "c" ] in
  let subset = list_size (int_range 0 2) (oneofl tables) in
  let tier =
    frequency
      [
        (4, return Runlog.Strong);
        ( 2,
          map2
            (fun versions ms -> Runlog.Bounded { versions; ms })
            (opt (oneofl [ 0; 1; 3 ]))
            (opt (oneofl [ 0.0; 2.0; 5.0 ])) );
        (2, return Runlog.Causal);
        (1, return Runlog.Eventual);
      ]
  in
  let one tid =
    let* session = int_range 0 3 in
    let* begin_ = int_range 0 30 in
    let* dur = int_range (-1) 6 in
    let* snapshot = int_range 0 20 in
    let* commit = opt (map (fun d -> snapshot + d) (int_range (-2) 6)) in
    let* epoch = int_range 0 2 in
    let* lb_epoch = int_range 0 2 in
    let* tier = tier in
    let* table_set = subset in
    let* written = subset in
    let* keys =
      list_size (int_range 0 3) (pair (oneofl tables) (oneofl [ "k1"; "k2"; "k3" ]))
    in
    return
      (record ~session ~table_set ~written ~keys ~epoch ~lb_epoch ~tier tid
         ~begin_:(float_of_int begin_)
         ~ack:(float_of_int (begin_ + dur))
         ~snapshot ~commit)
  in
  let* n = int_range 0 40 in
  (* Mostly distinct tids, with the odd repeat. *)
  let* tids =
    list_repeat n (frequency [ (19, return None); (1, map Option.some (int_range 0 5)) ])
  in
  flatten_l (List.mapi (fun i t -> one (Option.value t ~default:(100 + i))) tids)

let differential_cases =
  [
    ("strong_consistency", Runlog.strong_consistency, Runlog_oracle.strong_consistency);
    ( "fine_strong_consistency",
      Runlog.fine_strong_consistency,
      Runlog_oracle.fine_strong_consistency );
    ("session_consistency", Runlog.session_consistency, Runlog_oracle.session_consistency);
    ("first_committer_wins", Runlog.first_committer_wins, Runlog_oracle.first_committer_wins);
    ("bounded_staleness 0", Runlog.bounded_staleness ~k:0, Runlog_oracle.bounded_staleness ~k:0);
    ("bounded_staleness 1", Runlog.bounded_staleness ~k:1, Runlog_oracle.bounded_staleness ~k:1);
    ("bounded_staleness 3", Runlog.bounded_staleness ~k:3, Runlog_oracle.bounded_staleness ~k:3);
    ( "monotone_session_snapshots",
      Runlog.monotone_session_snapshots,
      Runlog_oracle.monotone_session_snapshots );
    ("epoch_fencing", Runlog.epoch_fencing, Runlog_oracle.epoch_fencing);
    ("election_safety", Runlog.election_safety, Runlog_oracle.election_safety);
    ("lb_floor_preservation", Runlog.lb_floor_preservation, Runlog_oracle.lb_floor_preservation);
    ( "tier_bounded_staleness",
      Runlog.tier_bounded_staleness,
      Runlog_oracle.tier_bounded_staleness );
    ("tier_causal_ryw", Runlog.tier_causal_ryw, Runlog_oracle.tier_causal_ryw);
    ("tier_monotone_reads", Runlog.tier_monotone_reads, Runlog_oracle.tier_monotone_reads);
  ]

let triples =
  List.map (fun v -> (v.Runlog.first.Runlog.tid, v.Runlog.second.Runlog.tid, v.Runlog.reason))

let prop_matches_oracle (name, check, oracle) =
  QCheck.Test.make ~name:("runlog " ^ name ^ " matches the quadratic oracle") ~count:300
    (QCheck.make log_gen) (fun log -> triples (check log) = triples (oracle log))

(* The differential properties only bite if the logs they draw violate
   every checker: count violations over a fixed sample. *)
let test_generator_not_vacuous () =
  let logs = QCheck.Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:300 log_gen in
  List.iter
    (fun (name, check, _) ->
      let hits = List.fold_left (fun acc log -> acc + List.length (check log)) 0 logs in
      if hits = 0 then Alcotest.failf "%s: no violations in 300 generated logs" name)
    differential_cases

(* --- Static SI serializability analysis --- *)

let test_si_write_skew_flagged () =
  (* The H3 shape: two transactions each read {x,y} and write one of
     them — the canonical SI write-skew. *)
  let profiles =
    [
      Si_analysis.profile ~name:"T1" ~reads:[ "x"; "y" ] ~writes:[ "x" ] ();
      Si_analysis.profile ~name:"T2" ~reads:[ "x"; "y" ] ~writes:[ "y" ] ();
    ]
  in
  Alcotest.(check bool) "write skew detected" false
    (Si_analysis.serializable_under_si profiles);
  match Si_analysis.dangerous_structures profiles with
  | [] -> Alcotest.fail "expected a dangerous structure"
  | d :: _ ->
    Alcotest.(check bool) "pivot is one of the two" true
      (d.Si_analysis.pivot = "T1" || d.Si_analysis.pivot = "T2")

let test_si_single_row_updates_safe () =
  (* The micro-benchmark shape: per-table point reads and blind
     read-modify-write updates. Concurrent updates of the same row
     write-write conflict, so no vulnerable rw path exists. *)
  let profiles =
    [
      Si_analysis.profile ~name:"read_t0" ~reads:[ "t0.val" ] ();
      Si_analysis.profile ~name:"upd_t0" ~writes:[ "t0.val" ] ();
      Si_analysis.profile ~name:"read_t1" ~reads:[ "t1.val" ] ();
      Si_analysis.profile ~name:"upd_t1" ~writes:[ "t1.val" ] ();
    ]
  in
  Alcotest.(check bool) "micro-benchmark serializable under SI" true
    (Si_analysis.serializable_under_si profiles)

let test_si_read_only_anomaly () =
  (* Fekete's checking/savings example: a read-only transaction makes an
     otherwise-serializable pair non-serializable. *)
  let deposit = Si_analysis.profile ~name:"deposit" ~reads:[ "sav" ] ~writes:[ "sav" ] () in
  let withdraw =
    Si_analysis.profile ~name:"withdraw" ~reads:[ "chk"; "sav" ] ~writes:[ "chk" ] ()
  in
  let report = Si_analysis.profile ~name:"report" ~reads:[ "chk"; "sav" ] () in
  Alcotest.(check bool) "without the report: serializable" true
    (Si_analysis.serializable_under_si [ deposit; withdraw ]);
  Alcotest.(check bool) "with the read-only report: anomaly possible" false
    (Si_analysis.serializable_under_si [ deposit; withdraw; report ])

let test_si_disjoint_safe () =
  let profiles =
    [
      Si_analysis.profile ~name:"a" ~reads:[ "x" ] ~writes:[ "x" ] ();
      Si_analysis.profile ~name:"b" ~reads:[ "y" ] ~writes:[ "y" ] ();
    ]
  in
  Alcotest.(check bool) "disjoint transactions serializable" true
    (Si_analysis.serializable_under_si profiles)

let test_si_edges () =
  let a = Si_analysis.profile ~name:"a" ~reads:[ "x" ] () in
  let b = Si_analysis.profile ~name:"b" ~writes:[ "x" ] () in
  let es = Si_analysis.edges [ a; b ] in
  Alcotest.(check bool) "a -rw-> b present" true
    (List.exists
       (fun e ->
         e.Si_analysis.src = "a" && e.Si_analysis.dst = "b" && e.Si_analysis.kind = `Rw)
       es);
  Alcotest.(check bool) "b -wr-> a present" true
    (List.exists
       (fun e ->
         e.Si_analysis.src = "b" && e.Si_analysis.dst = "a" && e.Si_analysis.kind = `Wr)
       es)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "check.histories",
      [
        Alcotest.test_case "H1: serializable, not strong" `Quick test_h1;
        Alcotest.test_case "H1: GSI-legal" `Quick test_h1_gsi_legal;
        Alcotest.test_case "H2: strong" `Quick test_h2;
        Alcotest.test_case "H3: strong + SI, not serializable" `Quick test_h3;
        Alcotest.test_case "first-committer-wins" `Quick test_first_committer_wins_violation;
        Alcotest.test_case "well-formedness" `Quick test_well_formed;
        Alcotest.test_case "commit-before-begin pairs" `Quick test_commits_before_begin;
      ] );
    ( "check.runlog",
      [
        Alcotest.test_case "strong ok" `Quick test_runlog_strong_ok;
        Alcotest.test_case "strong violation" `Quick test_runlog_strong_violation;
        Alcotest.test_case "fine-grained scoping" `Quick test_runlog_fine_scoping;
        Alcotest.test_case "session scoping" `Quick test_runlog_session_scoping;
        Alcotest.test_case "first-committer-wins" `Quick test_runlog_fcw;
        Alcotest.test_case "monotone session snapshots" `Quick test_runlog_monotone_session;
        Alcotest.test_case "monotone snapshots, overlapping session" `Quick
          test_runlog_monotone_overlapping;
        Alcotest.test_case "generated logs violate every checker" `Quick
          test_generator_not_vacuous;
      ]
      @ qsuite (prop_strong_monotone_in_snapshot :: List.map prop_matches_oracle differential_cases)
    );
    ( "check.si_analysis",
      [
        Alcotest.test_case "write skew flagged" `Quick test_si_write_skew_flagged;
        Alcotest.test_case "single-row updates safe" `Quick test_si_single_row_updates_safe;
        Alcotest.test_case "read-only anomaly" `Quick test_si_read_only_anomaly;
        Alcotest.test_case "disjoint safe" `Quick test_si_disjoint_safe;
        Alcotest.test_case "edge construction" `Quick test_si_edges;
      ] );
  ]
