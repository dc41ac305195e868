(* Host wall-clock sweep of the certification conflict check: Linear log
   scan vs Keyed index probe as the requesting snapshot falls behind.

   Unlike the rest of this library, this experiment measures *host* CPU,
   not simulated time: the conflict check consumes no virtual time (the
   cost model charges certify_row_ms per writeset row regardless of the
   data structure behind the decision), so the two index choices are
   event-identical in the simulator and differ only in how much real CPU
   each certification burns. That real cost is what bounds how fast the
   simulator itself — and a native implementation of the certifier —
   can decide. *)

let ws_of ~first_key ~rows =
  Storage.Writeset.of_entries
    (List.init rows (fun i ->
         {
           Storage.Writeset.ws_table = "bench";
           ws_key = [| Storage.Value.Int (first_key + i) |];
           ws_op = Storage.Writeset.Put [| Storage.Value.Int 0 |];
         }))

let build ?(config = Core.Config.default) ~index ~versions ~ws_rows () =
  let cfg = { config with Core.Config.cert_index = index; replicas = 1 } in
  let engine = Sim.Engine.create () in
  let rng = Util.Rng.create cfg.Core.Config.seed in
  let network =
    Sim.Network.create engine ~rng:(Util.Rng.split rng) ~base_ms:cfg.Core.Config.net_base_ms
      ~jitter_ms:cfg.Core.Config.net_jitter_ms
      ~bandwidth_mbps:cfg.Core.Config.net_bandwidth_mbps
  in
  let certifier =
    Core.Certifier.create engine cfg ~rng:(Util.Rng.split rng) ~network
      ~mode:Core.Consistency.Coarse
  in
  (* Commit [versions] disjoint writesets through the real protocol
     entry point; disjoint keys with an up-to-date snapshot never
     conflict, so every request lands and the log covers (0, versions]. *)
  Sim.Process.spawn engine (fun () ->
      for i = 0 to versions - 1 do
        let ws = ws_of ~first_key:(i * ws_rows) ~rows:ws_rows in
        match Core.Certifier.certify certifier ~origin:0 ~snapshot:i ~ws with
        | Core.Certifier.Commit _ -> ()
        | Core.Certifier.Abort | Core.Certifier.Overloaded
        | Core.Certifier.Expired ->
          assert false
      done);
  Sim.Engine.run engine;
  assert (Core.Certifier.version certifier = versions);
  certifier

let probe ~versions ~ws_rows =
  (* Keys no committed writeset ever touched: the worst case for the
     linear scan (no early exit — every log entry in the window is
     inspected) and for the index probe (every key misses). *)
  ws_of ~first_key:(versions * ws_rows) ~rows:ws_rows

type point = { staleness : int; linear_ns : float; keyed_ns : float }

let speedup p = if p.keyed_ns <= 0.0 then 0.0 else p.linear_ns /. p.keyed_ns

(* Self-calibrating timer: grow the batch until the sample is long
   enough to trust the clock, then report per-call nanoseconds. *)
let time_ns f =
  let rec go n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.05 && n < 4_000_000 then go (n * 4) else dt *. 1e9 /. float_of_int n
  in
  go 1

let default_stalenesses = [ 1; 10; 100; 1_000; 10_000 ]

let run ?(versions = 10_000) ?(ws_rows = 4) ?(stalenesses = default_stalenesses)
    ?(jobs = 1) () =
  (* The two fixtures (a 10k-version commit history each) build on
     separate domains under [jobs >= 2]; the timing loops below stay
     serial — concurrent timing would contend for cores and corrupt the
     per-call nanosecond numbers. *)
  let linear, keyed =
    match
      Runner.map_jobs ~jobs
        (fun index -> build ~index ~versions ~ws_rows ())
        [ Core.Config.Linear; Core.Config.Keyed ]
    with
    | [ l; k ] -> (l, k)
    | _ -> assert false
  in
  let clean = probe ~versions ~ws_rows in
  (* Differential sanity before timing: both certifiers must agree on a
     conflicting and a non-conflicting probe at every staleness. *)
  List.iter
    (fun s ->
      let snapshot = versions - s in
      let dirty = ws_of ~first_key:((versions - 1) * ws_rows) ~rows:ws_rows in
      assert (
        Core.Certifier.check_conflict linear ~snapshot ~ws:clean
        = Core.Certifier.check_conflict keyed ~snapshot ~ws:clean);
      assert (
        Core.Certifier.check_conflict linear ~snapshot ~ws:dirty
        = Core.Certifier.check_conflict keyed ~snapshot ~ws:dirty))
    stalenesses;
  List.map
    (fun s ->
      let snapshot = versions - s in
      {
        staleness = s;
        linear_ns =
          time_ns (fun () -> Core.Certifier.check_conflict linear ~snapshot ~ws:clean);
        keyed_ns =
          time_ns (fun () -> Core.Certifier.check_conflict keyed ~snapshot ~ws:clean);
      })
    stalenesses

let render points =
  let ns get p = Printf.sprintf "%.0f" (get p) in
  Runner.render
    ~title:
      "Certification index: conflict-check host cost vs snapshot staleness (4-row \
       writesets, 10k-version log)"
    ~chart:
      {
        Runner.y_label = "ns per check";
        x_label = "versions behind";
        series =
          [
            ("linear", fun p -> Some (float_of_int p.staleness, p.linear_ns));
            ("keyed", fun p -> Some (float_of_int p.staleness, p.keyed_ns));
          ];
      }
    [
      ("staleness", fun p -> string_of_int p.staleness);
      ("linear ns", ns (fun p -> p.linear_ns));
      ("keyed ns", ns (fun p -> p.keyed_ns));
      ("speedup", fun p -> Printf.sprintf "%.1fx" (speedup p));
    ]
    points
