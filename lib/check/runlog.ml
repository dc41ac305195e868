(* Mirror of Core.Consistency.read_tier, restated here so the checker
   library stays decoupled from the protocol implementation it judges. *)
type tier =
  | Strong
  | Bounded of {
      versions : int option;
      ms : float option;
    }
  | Causal
  | Eventual

let tier_string = function
  | Strong -> "strong"
  | Bounded { versions; ms } ->
    let v = match versions with Some k -> Printf.sprintf "v%d" k | None -> "" in
    let m = match ms with Some x -> Printf.sprintf "m%h" x | None -> "" in
    "bounded:" ^ v ^ m
  | Causal -> "causal"
  | Eventual -> "eventual"

type record = {
  tid : int;
  session : int;
  begin_time : float;
  ack_time : float;
  snapshot_version : int;
  commit_version : int option;
  epoch : int;  (* certifier epoch that released the decision *)
  lb_epoch : int;  (* LB routing epoch that served the request; 0 until a takeover *)
  tier : tier;  (* read class served; Strong for updates *)
  table_set : string list;
  tables_written : string list;
  write_keys : (string * string) list;
  trace : int option;
}

type violation = {
  first : record;
  second : record;
  reason : string;
}

(* Violations cite trace ids when the run was traced, so a checker hit
   can be looked up directly among the exported spans. *)
let pp_tid ppf r =
  match r.trace with
  | None -> Format.fprintf ppf "T%d" r.tid
  | Some trace -> Format.fprintf ppf "T%d(trace %d)" r.tid trace

let pp_violation ppf v =
  Format.fprintf ppf "%a[%.3f..%.3f e%d L%d] -> %a[%.3f..%.3f e%d L%d]: %s" pp_tid
    v.first v.first.begin_time v.first.ack_time v.first.epoch v.first.lb_epoch pp_tid
    v.second v.second.begin_time v.second.ack_time v.second.epoch v.second.lb_epoch
    v.reason

(* --- Ack-time index -------------------------------------------------- *)

(* Candidates for the earlier side of a precedence pair, sorted by ack
   time, under a max segment tree of their values. [acked_above]
   reports every candidate acked strictly before a time whose value
   exceeds a threshold, in ack order, in O((hits + 1) log n): a query
   that no earlier candidate can violate costs one binary search and
   one comparison at the root. Scratch is flat int and float arrays, so
   indexing a window's log allocates no per-record heap objects. *)
module Ack_index = struct
  type t = {
    acks : float array;  (* ascending *)
    ids : int array;  (* candidate at each ack position *)
    size : int;  (* leaf count, a power of two *)
    tree : int array;  (* node [k] holds the max of its leaves; root 1 *)
  }

  (* [ids] are caller-side handles; [create] sorts the array in place. *)
  let create ids ~ack ~value =
    Array.stable_sort (fun a b -> Float.compare (ack a) (ack b)) ids;
    let n = Array.length ids in
    let size = ref 1 in
    while !size < n do
      size := 2 * !size
    done;
    let size = !size in
    let tree = Array.make (2 * size) min_int in
    Array.iteri (fun p i -> tree.(size + p) <- value i) ids;
    for k = size - 1 downto 1 do
      tree.(k) <- max tree.(2 * k) tree.((2 * k) + 1)
    done;
    { acks = Array.map ack ids; ids; size; tree }

  let acked_above t ~before ~above f =
    (* Number of candidates acked strictly before [before]. *)
    let rec count lo hi =
      if lo >= hi then lo
      else
        let m = (lo + hi) / 2 in
        if t.acks.(m) < before then count (m + 1) hi else count lo m
    in
    let k = count 0 (Array.length t.acks) in
    let rec go node lo hi =
      if lo < k && t.tree.(node) > above then
        if hi - lo = 1 then f t.ids.(lo)
        else begin
          let mid = (lo + hi) / 2 in
          go (2 * node) lo mid;
          go ((2 * node) + 1) mid hi
        end
    in
    go 1 0 t.size
end

let by_begin records =
  Array.of_list (List.sort (fun a b -> compare a.begin_time b.begin_time) records)

(* All violating pairs (ti, tj) such that ti committed and its ack
   precedes tj's begin, [target tj] and [relevant ti tj] (default: any)
   hold, and [check vi ti tj] names a reason; in begin order of ti, then
   of tj.

   Contract: [check] returns [Some _] only when [tj.snapshot_version <
   vi]. Every caller's check has that form (a bound [k] is >= 0), so
   the index only has to visit, for each tj, the commits acked before
   it began with a version above its snapshot — none at all on a clean
   log. *)
let precedence_pairs ?(relevant = fun _ _ -> true) records ~target ~check =
  (* Most logs carry no tiered reads, so the tier checkers stop here. *)
  if not (List.exists target records) then []
  else
    let arr = by_begin records in
    let committed = ref [] in
    Array.iteri
      (fun i r -> if r.commit_version <> None then committed := i :: !committed)
      arr;
    let index =
      Ack_index.create (Array.of_list !committed)
        ~ack:(fun i -> arr.(i).ack_time)
        ~value:(fun i -> Option.get arr.(i).commit_version)
    in
    let found = ref [] in
    Array.iter
      (fun tj ->
        if target tj then
          Ack_index.acked_above index ~before:tj.begin_time ~above:tj.snapshot_version
            (fun i ->
              let ti = arr.(i) in
              if ti.tid <> tj.tid && relevant ti tj then
                match check (Option.get ti.commit_version) ti tj with
                | None -> ()
                | Some reason -> found := (i, { first = ti; second = tj; reason }) :: !found))
      arr;
    (* Reversed, [found] is in tj order; a stable sort on ti makes it (ti,
       tj) order. *)
    List.rev !found |> List.stable_sort (fun (i, _) (i', _) -> compare i i') |> List.map snd

(* The mode guarantees below constrain transactions that asked for the
   mode's class: a record served under a weaker read tier is judged by
   its own tier checker instead, so [tj] is restricted to Strong. (Tier
   records never act as [ti]: they are read-only, hence uncommitted.) *)

let strong_consistency records =
  precedence_pairs records
    ~target:(fun tj -> tj.tier = Strong)
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
    ~target:(fun tj -> tj.tier = Strong)
    ~relevant:(fun ti tj -> intersects ti.tables_written tj.table_set)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "T%d wrote tables in T%d's table-set at v%d but T%d read snapshot v%d" ti.tid
             tj.tid vi tj.tid tj.snapshot_version))

let session_consistency records =
  precedence_pairs records
    ~target:(fun tj -> tj.tier = Strong)
    ~relevant:(fun ti tj -> ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "session %d: T%d committed v%d before T%d began, but T%d read snapshot v%d"
             ti.session ti.tid vi tj.tid tj.tid tj.snapshot_version))

(* Only writers of a common (table, key) can conflict, so the pairs come
   from a per-key index. Among one key's writers sorted by commit
   version, [a] can overlap [b] only if [va > sb]; scanning back from
   [b] stops at the first writer at or below [b]'s snapshot, so on a
   clean log each writer costs one comparison. Pairs conflicting on
   several keys are found once per key and deduplicated; the result is
   in log order of the first, then of the second. *)
let first_committer_wins records =
  let updates =
    Array.of_list
      (List.filter_map
         (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
         records)
  in
  let n = Array.length updates in
  let version = Array.map snd updates in
  let snapshot = Array.map (fun (r, _) -> r.snapshot_version) updates in
  let writers = Hashtbl.create 1024 in
  Array.iteri
    (fun i (r, _) ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt writers key with
          | None -> Hashtbl.add writers key (ref [ i ])
          | Some l -> l := i :: !l)
        r.write_keys)
    updates;
  let pairs = ref [] in
  Hashtbl.iter
    (fun _ l ->
      let w = Array.of_list !l in
      Array.stable_sort (fun a b -> compare version.(a) version.(b)) w;
      Array.iteri
        (fun q b ->
          let p = ref (q - 1) in
          while !p >= 0 && version.(w.(!p)) > snapshot.(b) do
            (* Windows (snapshot, commit] overlap iff each commit falls
               after the other's snapshot. *)
            let a = w.(!p) in
            if a <> b && version.(b) > snapshot.(a) then
              pairs := (min a b * n) + max a b :: !pairs;
            decr p
          done)
        w)
    writers;
  List.sort_uniq compare !pairs
  |> List.map (fun pair ->
         let ri, vi = updates.(pair / n) and rj, vj = updates.(pair mod n) in
         {
           first = ri;
           second = rj;
           reason =
             Printf.sprintf
               "write-write conflict between concurrent T%d (v%d..%d] and T%d (v%d..%d]"
               ri.tid ri.snapshot_version vi rj.tid rj.snapshot_version vj;
         })

let bounded_staleness ~k records =
  if k < 0 then invalid_arg "Runlog.bounded_staleness: negative k";
  precedence_pairs records
    ~target:(fun tj -> tj.tier = Strong)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi - k then None
      else
        Some
          (Printf.sprintf
             "T%d read snapshot v%d, more than %d versions behind T%d's commit v%d"
             tj.tid tj.snapshot_version k ti.tid vi))

(* Every same-session pair (a, b) with a before b in begin order, a
   acked before b began, [target b], and b's snapshot older than a's;
   sessions in [Hashtbl] order, then in begin order of a, then of b.
   Per session, an ack index over snapshots finds the pairs in
   O((pairs + 1) log n) per record. *)
let session_regressions records ~target ~reason =
  if not (List.exists target records) then []
  else
    let by_session = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let l = Option.value (Hashtbl.find_opt by_session r.session) ~default:[] in
        Hashtbl.replace by_session r.session (r :: l))
      records;
    let violations = ref [] in
    Hashtbl.iter
      (fun _ rs ->
        let arr = by_begin rs in
        let index =
          Ack_index.create
            (Array.init (Array.length arr) Fun.id)
            ~ack:(fun i -> arr.(i).ack_time)
            ~value:(fun i -> arr.(i).snapshot_version)
        in
        let found = ref [] in
        Array.iteri
          (fun q b ->
            if target b then
              Ack_index.acked_above index ~before:b.begin_time ~above:b.snapshot_version
                (fun p ->
                  (* [p > q] only for a record acked before it began. *)
                  if p < q then
                    let a = arr.(p) in
                    found := (p, { first = a; second = b; reason = reason a b }) :: !found))
          arr;
        List.rev !found
        |> List.stable_sort (fun (p, _) (p', _) -> compare p p')
        |> List.iter (fun (_, v) -> violations := v :: !violations))
      by_session;
    List.rev !violations

(* A weaker-tier [b] is exempt here: eventual reads may go back in time,
   and causal ones are judged by [tier_monotone_reads]. *)
let monotone_session_snapshots =
  session_regressions
    ~target:(fun b -> b.tier = Strong)
    ~reason:(fun a b ->
      Printf.sprintf "session snapshot went back in time: v%d then v%d" a.snapshot_version
        b.snapshot_version)

(* Epoch fencing: commit versions must be partitioned by epoch — for any
   two epochs e < e', every version committed under e lies strictly below
   every version committed under e'. A violation means a deposed
   primary's decision leaked past the fence (split brain): it released a
   version at or above the promotion point of an epoch that superseded
   it. *)
let epoch_fencing records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  (* Representative extremes per epoch: highest committed version of the
     older epoch vs lowest of the newer. *)
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

(* Election safety: the certification log is a single history — no two
   committed transactions may occupy the same commit version. Two
   records sharing a version means two primaries each released their
   own decision for that slot (a divergent log entry), which is exactly
   what a non-quorum-intersecting election permits: a stale standby
   promotes without having acked the releases it now re-assigns. *)
let election_safety records =
  let updates =
    List.filter_map
      (fun r -> match r.commit_version with Some v -> Some (r, v) | None -> None)
      records
  in
  let by_version = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun (r, v) ->
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
          :: !violations)
    updates;
  List.rev !violations

(* LB floor preservation: a takeover must not lose the guarantees the
   deposed balancer had already handed out. If Ti's commit was acked to
   its session and a later Causal read Tj of the same session was served
   by a newer LB epoch, Tj still sees Ti's commit — the successor
   reconstructed a conservative floor covering every previously
   acknowledged version. Causal is the one tier whose read-your-writes
   contract holds in every mode; Strong reads across a takeover are
   already constrained by the per-mode checkers above, whose precedence
   pairs do not exempt cross-epoch pairs. *)
let lb_floor_preservation records =
  precedence_pairs records
    ~target:(fun tj -> tj.tier = Causal)
    ~relevant:(fun ti tj -> tj.lb_epoch > ti.lb_epoch && ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "LB takeover dropped a floor: session %d had v%d acked (T%d, LB epoch \
              %d) but T%d read snapshot v%d after takeover (LB epoch %d)"
             ti.session vi ti.tid ti.lb_epoch tj.tid tj.snapshot_version tj.lb_epoch))

(* --- Read-tier contracts (docs/CONSISTENCY.md) ----------------------- *)

(* Bounded staleness, per record: a read declaring [versions = Some k]
   must see every commit acked before it began except the k freshest;
   one declaring [ms = Some m] must see every commit acked at least m
   virtual ms before it began. Unlike the mode-level [bounded_staleness],
   the bound comes from the record itself. *)
let tier_bounded_staleness records =
  precedence_pairs records
    ~target:(fun tj -> match tj.tier with Bounded _ -> true | _ -> false)
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

(* Causal = read-your-writes: a causal read sees every commit its own
   session was already acknowledged for. *)
let tier_causal_ryw records =
  precedence_pairs records
    ~target:(fun tj -> tj.tier = Causal)
    ~relevant:(fun ti tj -> ti.session = tj.session)
    ~check:(fun vi ti tj ->
      if tj.snapshot_version >= vi then None
      else
        Some
          (Printf.sprintf
             "causal read T%d missed its own session's write: session %d committed \
              v%d (T%d) before the read began, but it saw snapshot v%d"
             tj.tid tj.session vi ti.tid tj.snapshot_version))

(* Causal = monotonic reads: within a session, a causal read never
   observes an older snapshot than any earlier acknowledged transaction
   of the same session (whatever tier that one ran under). *)
let tier_monotone_reads =
  session_regressions
    ~target:(fun b -> b.tier = Causal)
    ~reason:(fun a b ->
      Printf.sprintf
        "causal read T%d went back in time: session %d had observed v%d (T%d), then read \
         snapshot v%d"
        b.tid b.session a.snapshot_version a.tid b.snapshot_version)

(* --- Flat record sink ------------------------------------------------ *)

(* A chaos soak commits hundreds of thousands of transactions per run;
   keeping each as a boxed [record] (two floats, four lists, two
   options) holds the whole window's worth of small heap objects live
   until the checker battery runs, and the GC walks them on every major
   slice. The sink flattens records into one growing [Bytes] buffer as
   they are recorded and materializes [record] values only when a
   checker asks. *)
module Sink = struct
  module Flat = Storage.Codec.Flat

  type t = {
    w : Flat.writer;
    mutable count : int;
  }

  let create ?(capacity = 1 lsl 16) () = { w = Flat.writer ~capacity (); count = 0 }

  let length t = t.count

  let clear t =
    Flat.clear t.w;
    t.count <- 0

  (* Option and tier tags. *)
  let tag_none = 0
  let tag_some = 1
  let tier_strong = 0
  let tier_bounded = 1
  let tier_causal = 2
  let tier_eventual = 3

  let put_int_opt w = function
    | None -> Flat.u8 w tag_none
    | Some x ->
      Flat.u8 w tag_some;
      Flat.int w x

  let put_float_opt w = function
    | None -> Flat.u8 w tag_none
    | Some x ->
      Flat.u8 w tag_some;
      Flat.float w x

  let put_strs w l =
    Flat.int w (List.length l);
    List.iter (Flat.str w) l

  let add t r =
    let w = t.w in
    Flat.int w r.tid;
    Flat.int w r.session;
    Flat.float w r.begin_time;
    Flat.float w r.ack_time;
    Flat.int w r.snapshot_version;
    put_int_opt w r.commit_version;
    Flat.int w r.epoch;
    Flat.int w r.lb_epoch;
    (match r.tier with
    | Strong -> Flat.u8 w tier_strong
    | Bounded { versions; ms } ->
      Flat.u8 w tier_bounded;
      put_int_opt w versions;
      put_float_opt w ms
    | Causal -> Flat.u8 w tier_causal
    | Eventual -> Flat.u8 w tier_eventual);
    put_strs w r.table_set;
    put_strs w r.tables_written;
    Flat.int w (List.length r.write_keys);
    List.iter
      (fun (table, key) ->
        Flat.str w table;
        Flat.str w key)
      r.write_keys;
    put_int_opt w r.trace;
    t.count <- t.count + 1

  let read_int_opt c =
    match Flat.read_u8 c with
    | 0 -> None
    | _ -> Some (Flat.read_int c)

  let read_float_opt c =
    match Flat.read_u8 c with
    | 0 -> None
    | _ -> Some (Flat.read_float c)

  let read_strs c = List.init (Flat.read_int c) (fun _ -> Flat.read_str c)

  let read_record c =
    let tid = Flat.read_int c in
    let session = Flat.read_int c in
    let begin_time = Flat.read_float c in
    let ack_time = Flat.read_float c in
    let snapshot_version = Flat.read_int c in
    let commit_version = read_int_opt c in
    let epoch = Flat.read_int c in
    let lb_epoch = Flat.read_int c in
    let tier =
      match Flat.read_u8 c with
      | 0 -> Strong
      | 1 ->
        let versions = read_int_opt c in
        let ms = read_float_opt c in
        Bounded { versions; ms }
      | 2 -> Causal
      | _ -> Eventual
    in
    let table_set = read_strs c in
    let tables_written = read_strs c in
    let write_keys =
      List.init (Flat.read_int c) (fun _ ->
          let table = Flat.read_str c in
          let key = Flat.read_str c in
          (table, key))
    in
    let trace = read_int_opt c in
    {
      tid;
      session;
      begin_time;
      ack_time;
      snapshot_version;
      commit_version;
      epoch;
      lb_epoch;
      tier;
      table_set;
      tables_written;
      write_keys;
      trace;
    }

  let records t =
    let c = Flat.cursor t.w in
    List.init t.count (fun _ -> read_record c)
end

let digest records =
  (* Canonical rendering of everything semantically meaningful in a
     record. [trace] is excluded: trace ids depend on whether tracing
     was enabled, not on what the cluster did. Floats are printed with
     full precision ([%h]) so two runs only digest equal when their
     virtual-time streams are bit-identical. *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%d|%h|%h|%d|%s|e%d%s|%s|%s|%s%s\n" r.tid r.session
           r.begin_time r.ack_time r.snapshot_version
           (match r.commit_version with None -> "ro" | Some v -> string_of_int v)
           r.epoch
           (* LB epoch rendered only after a takeover, so single-LB logs
              digest identically to logs predating LB failover. *)
           (if r.lb_epoch > 0 then Printf.sprintf "|L%d" r.lb_epoch else "")
           (String.concat "," r.table_set)
           (String.concat "," r.tables_written)
           (String.concat ","
              (List.map (fun (t, k) -> t ^ ":" ^ k) r.write_keys))
           (* Tier rendered only when weaker than Strong, so all-strong
              logs digest identically to logs predating read tiers. *)
           (match r.tier with Strong -> "" | t -> "|" ^ tier_string t)))
    records;
  Digest.to_hex (Digest.string (Buffer.contents buf))
