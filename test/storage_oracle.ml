(* Test-only oracle: the storage scan paths in their straightforward
   form. The key directory is collected from every chain and sorted
   again at each ordered access after a new key; an index lookup builds
   the list of all hits through a second store probe per key; [select]
   and [range] overlay the write buffer on those lists and truncate to
   the limit last. Each step is correct by inspection. The library's
   incremental directory and streaming index select must return exactly
   the same keys and rows, in the same order, and charge the same
   [rows_scanned] (test_storage.ml's differential properties). *)

open Storage

type key = Value.t array

let compare_keys = Mvcc.Key_order.compare

module Mvcc = struct
  (* The library's chain table, hash and equality included, so a store
     fed the same installs holds the same key set. *)
  module Key_tbl = Hashtbl.Make (struct
    type t = key

    let equal a b = compare_keys a b = 0

    let hash (k : key) =
      let h = ref (Array.length k) in
      for i = 0 to Array.length k - 1 do
        let hv =
          match k.(i) with
          | Value.Int x -> x
          | Value.Float f when Float.is_integer f -> int_of_float f
          | Value.Text s -> Hashtbl.hash s
          | v -> Value.hash v
        in
        h := (!h * 31) + hv
      done;
      !h land max_int
  end)

  type version = { version : int; row : Value.t array option }

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
    | Some chain -> chain := { version; row } :: !chain

  let read t key ~at =
    match Key_tbl.find_opt t.chains key with
    | None -> None
    | Some chain ->
      let rec visible = function
        | [] -> None
        | { version; row } :: rest -> if version <= at then row else visible rest
      in
      visible !chain

  let dir t =
    match t.dir with
    | Some d -> d
    | None ->
      let d = Array.of_seq (Seq.map fst (Key_tbl.to_seq t.chains)) in
      Array.sort compare_keys d;
      t.dir <- Some d;
      d

  let ordered_keys t = Array.to_list (dir t)

  let range_keys t ?lo ?hi () =
    List.filter
      (fun key ->
        (match lo with Some lo -> compare_keys key lo >= 0 | None -> true)
        && match hi with Some hi -> compare_keys key hi <= 0 | None -> true)
      (ordered_keys t)

  let gc t ~keep_after =
    Key_tbl.iter
      (fun _ chain ->
        let rec trim kept = function
          | [] -> List.rev kept
          | ({ version; _ } as v) :: rest ->
            if version > keep_after then trim (v :: kept) rest else List.rev (v :: kept)
        in
        chain := trim [] !chain)
      t.chains
end

module Table = struct
  type t = {
    schema : Schema.t;
    store : Mvcc.t;
    indexes : (int * (Value.t, (key, unit) Hashtbl.t) Hashtbl.t) list;
  }

  let create schema =
    {
      schema;
      store = Mvcc.create ();
      indexes =
        Array.to_list schema.Schema.indexed |> List.map (fun c -> (c, Hashtbl.create 256));
    }

  let install t ~key ~version row =
    Mvcc.install t.store key ~version row;
    match row with
    | None -> ()
    | Some row ->
      List.iter
        (fun (column, entries) ->
          let value = row.(column) in
          let bucket =
            match Hashtbl.find_opt entries value with
            | Some bucket -> bucket
            | None ->
              let bucket = Hashtbl.create 4 in
              Hashtbl.add entries value bucket;
              bucket
          in
          Hashtbl.replace bucket key ())
        t.indexes

  let index_lookup t ~column ~value ~at =
    match Hashtbl.find_opt (List.assoc column t.indexes) value with
    | None -> []
    | Some bucket ->
      Hashtbl.fold
        (fun key () acc ->
          match Mvcc.read t.store key ~at with
          | Some row when Value.equal row.(column) value -> (key, row) :: acc
          | Some _ | None -> acc)
        bucket []

  (* Rows of [keys] visible at [at] that satisfy [pred], stopping at
     [limit] hits; also the number of keys examined. *)
  let scan_keys t keys ~at ~pred ~limit =
    let max_hits = Option.value limit ~default:max_int in
    let rec go hits n examined = function
      | [] -> (List.rev hits, examined)
      | _ when n >= max_hits -> (List.rev hits, examined)
      | key :: rest -> (
        match Mvcc.read t.store key ~at with
        | None -> go hits n (examined + 1) rest
        | Some row when pred row -> go ((key, row) :: hits) (n + 1) (examined + 1) rest
        | Some _ -> go hits n (examined + 1) rest)
    in
    go [] 0 0 keys
end

(* A transaction's buffered writes to one table, in first-write order:
   [Some row] for a put, [None] for a delete. *)
type writes = (key * Value.t array option) list

let truncate limit rows =
  match limit with Some l -> List.filteri (fun i _ -> i < l) rows | None -> rows

(* The write buffer seen through [pred]: a put it accepts adds its row;
   every write hides the snapshot's row under the same key. *)
let local_of ~(writes : writes) ~pred =
  List.map
    (fun (key, op) ->
      match op with Some row when pred row -> (key, Some row) | _ -> (key, None))
    writes

let unhidden local base =
  List.filter_map
    (fun (key, row) ->
      if List.exists (fun (k, _) -> compare_keys k key = 0) local then None else Some row)
    base

let pred_of where row = match where with None -> true | Some e -> Expr.eval_bool row e

let rec indexable_eq (t : Table.t) = function
  | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v) | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col c)
    ->
    if List.mem_assoc c t.indexes then Some (c, v) else None
  | Expr.And (a, b) -> (
    match indexable_eq t a with Some _ as hit -> hit | None -> indexable_eq t b)
  | _ -> None

let key_eq (t : Table.t) expr =
  let pk = t.schema.Schema.primary_key in
  if Array.length pk <> 1 then None
  else
    match expr with
    | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v) | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col c)
      when c = pk.(0) ->
      Some [| v |]
    | _ -> None

(* [Txn.select]: the rows and the [rows_scanned] it charges. *)
let select (t : Table.t) ~at ~writes ?where ?limit () =
  let pred = pred_of where in
  let full_scan () = Table.scan_keys t (Mvcc.ordered_keys t.store) ~at ~pred ~limit in
  let base, scanned =
    match where with
    | None -> full_scan ()
    | Some e -> (
      match key_eq t e with
      | Some key -> (
        match Mvcc.read t.store key ~at with
        | Some row when pred row -> ([ (key, row) ], 1)
        | Some _ | None -> ([], 1))
      | None -> (
        match indexable_eq t e with
        | Some (column, value) ->
          let hits = Table.index_lookup t ~column ~value ~at in
          (List.filter (fun (_, row) -> pred row) hits, List.length hits)
        | None -> full_scan ()))
  in
  let local = local_of ~writes ~pred in
  (truncate limit (unhidden local base @ List.filter_map snd local), scanned)

(* [Txn.range]: the rows and the [rows_scanned] it charges. *)
let range (t : Table.t) ~at ~writes ?lo ?hi ?where ?limit () =
  let pred = pred_of where in
  let base, scanned =
    Table.scan_keys t (Mvcc.range_keys t.store ?lo ?hi ()) ~at ~pred ~limit
  in
  let in_range key =
    (match lo with Some lo -> compare_keys key lo >= 0 | None -> true)
    && match hi with Some hi -> compare_keys key hi <= 0 | None -> true
  in
  let local = local_of ~writes:(List.filter (fun (key, _) -> in_range key) writes) ~pred in
  let by_key a b =
    compare_keys (Schema.key_of_row t.schema a) (Schema.key_of_row t.schema b)
  in
  let added = List.sort by_key (List.filter_map snd local) in
  (truncate limit (unhidden local base @ added), scanned)
