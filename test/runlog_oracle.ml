(* Test-only oracle: the straightforward quadratic form of every
   Check.Runlog checker. Each walks every pair of records, so its
   output is correct by inspection; the library's indexed checkers must
   return exactly the same violations, in the same order
   (test_check.ml's differential properties). [monotone_session_snapshots]
   is the all-pairs definition, not a begin-adjacent walk. *)

open Check.Runlog

let precedence_pairs records ~relevant ~check =
  let by_begin = List.sort (fun a b -> compare a.begin_time b.begin_time) records in
  let arr = Array.of_list by_begin in
  let violations = ref [] in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let ti = arr.(i) in
    match ti.commit_version with
    | None -> ()
    | Some vi ->
      for j = 0 to n - 1 do
        let tj = arr.(j) in
        if ti.tid <> tj.tid && ti.ack_time < tj.begin_time && relevant ti tj then
          match check vi ti tj with
          | None -> ()
          | Some reason -> violations := { first = ti; second = tj; reason } :: !violations
      done
  done;
  List.rev !violations

let strong_consistency records =
  precedence_pairs records
    ~relevant:(fun _ tj -> tj.tier = Strong)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "T%d (commit v%d, acked %.3f) invisible to T%d (begin %.3f, snapshot v%d)"
             ti.tid vi ti.ack_time tj.tid tj.begin_time tj.snapshot_version))

let fine_strong_consistency records =
  let intersects a b = List.exists (fun x -> List.mem x b) a in
  precedence_pairs records
    ~relevant:(fun ti tj -> tj.tier = Strong && intersects ti.tables_written tj.table_set)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "T%d wrote tables in T%d's table-set at v%d but T%d read snapshot v%d" ti.tid
             tj.tid vi tj.tid tj.snapshot_version))

let session_consistency records =
  precedence_pairs records
    ~relevant:(fun ti tj -> tj.tier = Strong && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "session %d: T%d committed v%d before T%d began, but T%d read snapshot v%d"
             ti.session ti.tid vi tj.tid tj.tid tj.snapshot_version))

let first_committer_wins records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  let conflict a b = List.exists (fun k -> List.mem k b.write_keys) a.write_keys in
  let rec pairs acc = function
    | [] -> List.rev acc
    | (ri, vi) :: rest ->
      let acc =
        List.fold_left
          (fun acc (rj, vj) ->
            let overlap = vi > rj.snapshot_version && vj > ri.snapshot_version in
            if overlap && conflict ri rj then
              {
                first = ri;
                second = rj;
                reason =
                  Printf.sprintf
                    "write-write conflict between concurrent T%d (v%d..%d] and T%d (v%d..%d]"
                    ri.tid ri.snapshot_version vi rj.tid rj.snapshot_version vj;
              }
              :: acc
            else acc)
          acc rest
      in
      pairs acc rest
  in
  pairs [] updates

let bounded_staleness ~k records =
  precedence_pairs records
    ~relevant:(fun _ tj -> tj.tier = Strong)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi - k then None
      else
        Some
          (Printf.sprintf
             "T%d read snapshot v%d, more than %d versions behind T%d's commit v%d"
             tj.tid tj.snapshot_version k ti.tid vi))

(* Every same-session pair (a, b), a before b in begin order, with a
   acked before b began and [flag a b]; sessions in [Hashtbl] order. *)
let session_pairs records ~flag =
  let by_session = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let l = Option.value (Hashtbl.find_opt by_session r.session) ~default:[] in
      Hashtbl.replace by_session r.session (r :: l))
    records;
  let violations = ref [] in
  Hashtbl.iter
    (fun _ rs ->
      let ordered = List.sort (fun a b -> compare a.begin_time b.begin_time) rs in
      let rec walk = function
        | a :: (_ :: _ as rest) ->
          List.iter
            (fun b ->
              if a.ack_time < b.begin_time then
                match flag a b with
                | None -> ()
                | Some reason ->
                  violations := { first = a; second = b; reason } :: !violations)
            rest;
          walk rest
        | [ _ ] | [] -> ()
      in
      walk ordered)
    by_session;
  List.rev !violations

let monotone_session_snapshots =
  session_pairs ~flag:(fun a b ->
      if b.tier = Strong && b.snapshot_version < a.snapshot_version then
        Some
          (Printf.sprintf "session snapshot went back in time: v%d then v%d"
             a.snapshot_version b.snapshot_version)
      else None)

let tier_monotone_reads =
  session_pairs ~flag:(fun a b ->
      if b.tier = Causal && b.snapshot_version < a.snapshot_version then
        Some
          (Printf.sprintf
             "causal read T%d went back in time: session %d had observed v%d (T%d), then \
              read snapshot v%d"
             b.tid b.session a.snapshot_version a.tid b.snapshot_version)
      else None)

let epoch_fencing records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  let by_epoch = Hashtbl.create 8 in
  List.iter
    (fun (r, v) ->
      match Hashtbl.find_opt by_epoch r.epoch with
      | None -> Hashtbl.add by_epoch r.epoch ((r, v), (r, v))
      | Some ((_, lo_v) as lo, ((_, hi_v) as hi)) ->
        let lo = if v < lo_v then (r, v) else lo in
        let hi = if v > hi_v then (r, v) else hi in
        Hashtbl.replace by_epoch r.epoch (lo, hi))
    updates;
  let epochs = Hashtbl.fold (fun e _ acc -> e :: acc) by_epoch [] |> List.sort compare in
  let rec walk acc = function
    | e :: (e' :: _ as rest) ->
      let _, (hi_r, hi_v) = Hashtbl.find by_epoch e in
      let (lo_r, lo_v), _ = Hashtbl.find by_epoch e' in
      let acc =
        if hi_v >= lo_v then
          {
            first = hi_r;
            second = lo_r;
            reason =
              Printf.sprintf
                "epoch fence breached: T%d committed v%d under epoch %d, but T%d \
                 committed v%d under later epoch %d"
                hi_r.tid hi_v e lo_r.tid lo_v e';
          }
          :: acc
        else acc
      in
      walk acc rest
    | [ _ ] | [] -> List.rev acc
  in
  walk [] epochs

let election_safety records =
  let by_version = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun r ->
      match r.commit_version with
      | None -> ()
      | Some v -> (
        match Hashtbl.find_opt by_version v with
        | None -> Hashtbl.add by_version v r
        | Some prev ->
          violations :=
            {
              first = prev;
              second = r;
              reason =
                Printf.sprintf
                  "divergent log entry: T%d (epoch %d) and T%d (epoch %d) both \
                   committed v%d"
                  prev.tid prev.epoch r.tid r.epoch v;
            }
            :: !violations))
    records;
  List.rev !violations

let lb_floor_preservation records =
  precedence_pairs records
    ~relevant:(fun ti tj ->
      tj.lb_epoch > ti.lb_epoch && ti.session = tj.session && tj.tier = Causal)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "LB takeover dropped a floor: session %d had v%d acked (T%d, LB epoch \
              %d) but T%d read snapshot v%d after takeover (LB epoch %d)"
             ti.session vi ti.tid ti.lb_epoch tj.tid tj.snapshot_version tj.lb_epoch))

let tier_bounded_staleness records =
  precedence_pairs records
    ~relevant:(fun _ tj -> match tj.tier with Bounded _ -> true | _ -> false)
    ~check:(fun vi ti tj ->
      match tj.tier with
      | Bounded { versions; ms } ->
        let stale_v =
          match versions with Some k -> tj.snapshot_version < vi - k | None -> false
        in
        let stale_ms =
          match ms with
          | Some m -> ti.ack_time <= tj.begin_time -. m && tj.snapshot_version < vi
          | None -> false
        in
        if stale_v || stale_ms then
          Some
            (Printf.sprintf
               "bounded read T%d (%s) saw snapshot v%d, violating its bound against \
                T%d's commit v%d (acked %.3f, read began %.3f)"
               tj.tid (tier_string tj.tier) tj.snapshot_version ti.tid vi ti.ack_time
               tj.begin_time)
        else None
      | _ -> None)

let tier_causal_ryw records =
  precedence_pairs records
    ~relevant:(fun ti tj -> tj.tier = Causal && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "causal read T%d missed its own session's write: session %d committed \
              v%d (T%d) before the read began, but it saw snapshot v%d"
             tj.tid tj.session vi ti.tid tj.snapshot_version))
