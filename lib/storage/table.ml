(* A secondary index maps each value to its bucket: every key ever
   installed with the value, mapped to its version chain, so a lookup
   reads visibility straight off the chain instead of probing the
   store. *)
type bucket = (Mvcc.key, Mvcc.chain) Hashtbl.t

(* A bucket's bookkeeping, kept only once it differs from a loaded
   bucket's: every key joined at version 0, none has left, no lookup
   yet. A bulk load therefore allocates none. *)
type meta = {
  mutable settled_from : int;
      (* Every entry is a visible hit at every snapshot at or above this
         one (and at or above the table's gc horizon): each key joined
         the bucket at or below it and has kept the value since. [max_int]
         once some key left the value, by an update or a delete. *)
  mutable order : (Mvcc.key * Mvcc.chain) array;
      (* The entries in lookup order, rebuilt when the bucket grows. *)
}

type secondary = {
  sec_column : int;
  buckets : (Value.t, bucket) Hashtbl.t;
  metas : (Value.t, meta) Hashtbl.t;
}

type t = {
  schema : Schema.t;
  store : Mvcc.t;
  secondaries : secondary list;
  mutable gc_horizon : int;
}

let create schema =
  let secondaries =
    Array.to_list schema.Schema.indexed
    |> List.map (fun sec_column ->
           { sec_column; buckets = Hashtbl.create 256; metas = Hashtbl.create 16 })
  in
  { schema; store = Mvcc.create (); secondaries; gc_horizon = min_int }

let schema t = t.schema

let name t = t.schema.Schema.table_name

let meta sec value =
  match Hashtbl.find_opt sec.metas value with
  | Some meta -> meta
  | None ->
    let meta = { settled_from = 0; order = [||] } in
    Hashtbl.add sec.metas value meta;
    meta

let index_insert sec key chain ~version value =
  let bucket =
    match Hashtbl.find_opt sec.buckets value with
    | Some bucket -> bucket
    | None ->
      let bucket = Hashtbl.create 4 in
      Hashtbl.add sec.buckets value bucket;
      bucket
  in
  let size = Hashtbl.length bucket in
  Hashtbl.replace bucket key chain;
  if Hashtbl.length bucket > size && version > 0 then begin
    let meta = meta sec value in
    meta.settled_from <- max meta.settled_from version
  end

(* Index one install in every secondary. [before] is the key's row just
   before it: a key that leaves [before]'s value unsettles that bucket. *)
let rec index_all secondaries key chain ~version ~before row =
  match secondaries with
  | [] -> ()
  | sec :: rest ->
    let column = sec.sec_column in
    (match (before, row) with
    | Some old, Some row when compare old.(column) row.(column) = 0 -> ()
    | Some old, _ -> (meta sec old.(column)).settled_from <- max_int
    | None, _ -> ());
    (match row with Some row -> index_insert sec key chain ~version row.(column) | None -> ());
    index_all rest key chain ~version ~before row

let install t ~key ~version row =
  let chain = Mvcc.install_chain t.store key ~version row in
  match t.secondaries with
  | [] -> ()
  | secondaries ->
    index_all secondaries key chain ~version ~before:(Mvcc.visible chain ~at:(version - 1)) row

let read t ~key ~at = Mvcc.read t.store key ~at

let latest_version t ~key = Mvcc.latest_version t.store key

let has_index t ~column = List.exists (fun sec -> sec.sec_column = column) t.secondaries

(* Lookup order is the reverse of the bucket's fold order. It decides
   which rows a limit keeps, so it is part of the pinned behaviour.
   Entries are never removed, so a length change means the cached order
   is stale. *)
let lookup_order meta bucket =
  if Array.length meta.order <> Hashtbl.length bucket then
    meta.order <- Array.of_list (Hashtbl.fold (fun key chain acc -> (key, chain) :: acc) bucket []);
  meta.order

let index_select t ~column ~value ~at ~keep ~limit =
  match List.find_opt (fun sec -> sec.sec_column = column) t.secondaries with
  | None ->
    invalid_arg
      (Printf.sprintf "Table.index_select: no index on %s column %d" (name t) column)
  | Some sec -> begin
    match Hashtbl.find_opt sec.buckets value with
    | None -> ([], 0)
    | Some bucket ->
      let meta = meta sec value in
      let order = lookup_order meta bucket in
      let n = Array.length order in
      (* In a settled bucket every entry is a hit, so the walk can stop
         at the limit; otherwise it must visit every entry to count. *)
      let settled = at >= meta.settled_from && at >= t.gc_horizon in
      let cap = Option.value limit ~default:max_int in
      let rec walk i hits kept rows =
        if i >= n || (settled && kept >= cap) then (List.rev rows, if settled then n else hits)
        else
          let key, chain = order.(i) in
          match Mvcc.visible chain ~at with
          | Some row when Value.equal row.(column) value ->
            if kept < cap && keep key row then walk (i + 1) (hits + 1) (kept + 1) (row :: rows)
            else walk (i + 1) (hits + 1) kept rows
          | Some _ | None -> walk (i + 1) hits kept rows
      in
      walk 0 0 0 []
  end

let scan_with ~iter t ~at ?where ?limit () =
  let pred = match where with Some p -> p | None -> fun _ -> true in
  let examined = ref 0 in
  let hits = ref [] in
  let hit_count = ref 0 in
  let max_hits = match limit with Some l -> l | None -> max_int in
  (try
     iter t.store (fun key ->
         if !hit_count >= max_hits then raise Exit;
         match Mvcc.read t.store key ~at with
         | None -> incr examined
         | Some row ->
           incr examined;
           if pred row then begin
             hits := (key, row) :: !hits;
             incr hit_count
           end)
   with Exit -> ());
  (List.rev !hits, !examined)

let scan t ~at ?where ?limit () = scan_with ~iter:Mvcc.iter_keys_ordered t ~at ?where ?limit ()

let range_scan t ~at ?lo ?hi ?where ?limit () =
  scan_with ~iter:(fun store f -> Mvcc.iter_keys_range store ?lo ?hi f) t ~at ?where ?limit ()

let row_count t ~at = Mvcc.fold_visible t.store ~at ~init:0 ~f:(fun acc _ _ -> acc + 1)

let key_count t = Mvcc.key_count t.store

let version_count t = Mvcc.version_count t.store

let fold_chains t ~init ~f = Mvcc.fold_chains t.store ~init ~f

let fold_visible t ~at ~init ~f = Mvcc.fold_visible t.store ~at ~init ~f

let gc t ~keep_after =
  t.gc_horizon <- max t.gc_horizon keep_after;
  Mvcc.gc t.store ~keep_after
