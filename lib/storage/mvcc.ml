type key = Value.t array

module Key_order = struct
  type t = key

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i >= la && i >= lb then 0
      else if i >= la then -1
      else if i >= lb then 1
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
end

(* Chains live in a hashtable specialized to keys: [Value.hash] reads
   each constructor directly where the polymorphic hash would traverse
   the boxed representation on every probe, and equality via
   [Key_order.compare] keeps the same int/float coercions the ordered
   directory uses. *)
module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = Key_order.compare a b = 0

  let hash (k : key) =
    let h = ref (Array.length k) in
    for i = 0 to Array.length k - 1 do
      (* Ints hash as themselves: primary keys are typically dense, so
         the identity is uniform under the table's power-of-two masking
         and skips a generic-hash call per element per probe. *)
      let hv =
        match Array.unsafe_get k i with
        | Value.Int x -> x
        | Value.Text s -> Hashtbl.hash s
        | v -> Value.hash v
      in
      h := (!h * 31) + hv
    done;
    !h land max_int
end)

type version = { version : int; row : Value.t array option }

(* The key directory for ordered scans is a sorted array rebuilt lazily:
   installing a brand-new key only invalidates it, and the next ordered
   access pays one collect-and-sort over the whole table. Point
   reads/updates (the hot path) never touch it; workloads that
   interleave fresh-key inserts with range scans re-sort per scan, which
   is the deliberate trade — bulk load of n keys went from n log n map
   rebalancing allocations to zero. *)
type t = {
  chains : version list ref Key_tbl.t;
  mutable dir : key array option;  (* sorted ascending; [None] = stale *)
}

let create () = { chains = Key_tbl.create 256; dir = None }

let install t key ~version row =
  match Key_tbl.find_opt t.chains key with
  | None ->
    Key_tbl.add t.chains key (ref [ { version; row } ]);
    t.dir <- None
  | Some chain -> begin
    match !chain with
    | { version = newest; _ } :: _ when newest >= version ->
      invalid_arg
        (Printf.sprintf "Mvcc.install: version %d not above newest %d" version newest)
    | versions -> chain := { version; row } :: versions
  end

let read t key ~at =
  match Key_tbl.find_opt t.chains key with
  | None -> None
  | Some chain ->
    let rec visible = function
      | [] -> None
      | { version; row } :: rest -> if version <= at then row else visible rest
    in
    visible !chain

let latest_version t key =
  match Key_tbl.find_opt t.chains key with
  | None -> None
  | Some chain -> ( match !chain with [] -> None | { version; _ } :: _ -> Some version)

let key_count t = Key_tbl.length t.chains

let version_count t =
  Key_tbl.fold (fun _ chain acc -> acc + List.length !chain) t.chains 0

(* Rebuild (or reuse) the sorted key directory. *)
let dir t =
  match t.dir with
  | Some d -> d
  | None ->
    let d = Array.make (Key_tbl.length t.chains) [||] in
    let i = ref 0 in
    Key_tbl.iter
      (fun key _ ->
        d.(!i) <- key;
        incr i)
      t.chains;
    Array.sort Key_order.compare d;
    t.dir <- Some d;
    d

let iter_keys_ordered t f = Array.iter f (dir t)

let iter_keys_range t ?lo ?hi f =
  let d = dir t in
  let n = Array.length d in
  (* First index holding a key >= lo. *)
  let start =
    match lo with
    | None -> 0
    | Some lo ->
      let rec bs l r =
        if l >= r then l
        else
          let m = (l + r) / 2 in
          if Key_order.compare d.(m) lo < 0 then bs (m + 1) r else bs l m
      in
      bs 0 n
  in
  let rec go i =
    if i < n then begin
      let key = d.(i) in
      match hi with
      | Some hi when Key_order.compare key hi > 0 -> ()
      | Some _ | None ->
        f key;
        go (i + 1)
    end
  in
  go start

(* Walks the chains in place: no directory sort, no second lookup. *)
let fold_visible t ~at ~init ~f =
  Key_tbl.fold
    (fun key chain acc ->
      let rec visible = function
        | [] -> acc
        | { version; row } :: rest -> (
          if version > at then visible rest
          else match row with None -> acc | Some row -> f acc key row)
      in
      visible !chain)
    t.chains init

let fold_chains t ~init ~f =
  Array.fold_left
    (fun acc key ->
      match Key_tbl.find_opt t.chains key with
      | None -> acc
      | Some chain -> f acc key (List.map (fun { version; row } -> (version, row)) !chain))
    init (dir t)

let gc t ~keep_after =
  let removed = ref 0 in
  Key_tbl.iter
    (fun _ chain ->
      (* Keep every version newer than the horizon, plus the newest one at
         or below it (still visible to snapshots above the horizon). *)
      let rec trim kept = function
        | [] -> List.rev kept
        | ({ version; _ } as v) :: rest ->
          if version > keep_after then trim (v :: kept) rest
          else begin
            removed := !removed + List.length rest;
            List.rev (v :: kept)
          end
      in
      chain := trim [] !chain)
    t.chains;
  !removed

