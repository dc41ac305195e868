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
         and skips a generic-hash call per element per probe. An
         integral float equals the int of its value, so it hashes as
         that int too. *)
      let hv =
        match Array.unsafe_get k i with
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

type chain = version list ref

(* The key directory for ordered scans. Keys never leave [chains]
   (deletes are tombstones and [gc] keeps each key's newest version), so
   the key set only grows and a sorted directory never goes stale: it
   only misses the keys installed since it was last brought up to date.
   It has two sorted levels, a [base] array and a small [run] of later
   keys, and ordered scans merge the two on the fly. An install of a
   brand-new key only pushes it onto [fresh]. The next ordered access
   sorts those k keys and merges them into [run], O(k log k + |run|),
   and folds [run] into [base], O(n), once [run] outgrows
   [base / compaction_ratio] -- at most once per n / compaction_ratio
   fresh keys, where re-sorting the whole table would cost O(n log n)
   at every scan that follows an insert. The ratio weighs the per-scan
   merge of [run] against the amortized compaction: when every insert
   is followed by a scan, each fresh key costs about |run| + ratio
   moves, and on a 20k-key table 64 ran a scan-after-insert three times
   faster than 8, with little left to gain above it.

   Until the first ordered access the directory is not kept at all
   ([sorted = false]): a bulk load records nothing per key, and that
   first access collects and sorts the table once. *)
type t = {
  chains : chain Key_tbl.t;
  mutable sorted : bool;
  mutable base : key array;  (* sorted ascending *)
  mutable run : key array;  (* sorted ascending; keys newer than [base] *)
  mutable fresh : key list;  (* new since the last ordered access, unsorted *)
}

let compaction_ratio = 64

let create () =
  { chains = Key_tbl.create 256; sorted = false; base = [||]; run = [||]; fresh = [] }

let install_chain t key ~version row =
  match Key_tbl.find_opt t.chains key with
  | None ->
    let chain = ref [ { version; row } ] in
    Key_tbl.add t.chains key chain;
    if t.sorted then t.fresh <- key :: t.fresh;
    chain
  | Some chain -> begin
    match !chain with
    | { version = newest; _ } :: _ when newest >= version ->
      invalid_arg
        (Printf.sprintf "Mvcc.install: version %d not above newest %d" version newest)
    | versions ->
      chain := { version; row } :: versions;
      chain
  end

let install t key ~version row = ignore (install_chain t key ~version row : chain)

let rec visible_at at = function
  | [] -> None
  | { version; row } :: rest -> if version <= at then row else visible_at at rest

let visible chain ~at = visible_at at !chain

let read t key ~at =
  match Key_tbl.find_opt t.chains key with None -> None | Some chain -> visible chain ~at

let latest_version t key =
  match Key_tbl.find_opt t.chains key with
  | None -> None
  | Some chain -> ( match !chain with [] -> None | { version; _ } :: _ -> Some version)

let key_count t = Key_tbl.length t.chains

let version_count t =
  Key_tbl.fold (fun _ chain acc -> acc + List.length !chain) t.chains 0

(* Merge two sorted arrays; on ties [a]'s key goes first. *)
let merge a b =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let out = Array.make (na + nb) [||] in
    let rec go i j k =
      if i < na && (j >= nb || Key_order.compare a.(i) b.(j) <= 0) then begin
        out.(k) <- a.(i);
        go (i + 1) j (k + 1)
      end
      else if j < nb then begin
        out.(k) <- b.(j);
        go i (j + 1) (k + 1)
      end
    in
    go 0 0 0;
    out
  end

(* Bring the directory up to date before an ordered access. *)
let sync t =
  if not t.sorted then begin
    let d = Array.make (Key_tbl.length t.chains) [||] in
    let i = ref 0 in
    Key_tbl.iter
      (fun key _ ->
        d.(!i) <- key;
        incr i)
      t.chains;
    Array.sort Key_order.compare d;
    t.base <- d;
    t.sorted <- true
  end
  else if t.fresh <> [] then begin
    let fresh = Array.of_list t.fresh in
    Array.sort Key_order.compare fresh;
    t.fresh <- [];
    let run = merge t.run fresh in
    if Array.length run * compaction_ratio > Array.length t.base then begin
      t.base <- merge t.base run;
      t.run <- [||]
    end
    else t.run <- run
  end

(* First index of sorted [d] holding a key >= [lo]. *)
let lower_bound d lo =
  let rec bs l r =
    if l >= r then l
    else
      let m = (l + r) / 2 in
      if Key_order.compare d.(m) lo < 0 then bs (m + 1) r else bs l m
  in
  bs 0 (Array.length d)

let iter_keys_range t ?lo ?hi f =
  sync t;
  let base = t.base and run = t.run in
  let nb = Array.length base and nr = Array.length run in
  let i, j = match lo with None -> (0, 0) | Some lo -> (lower_bound base lo, lower_bound run lo) in
  let rec go i j =
    if i < nb && (j >= nr || Key_order.compare base.(i) run.(j) <= 0) then emit base.(i) (i + 1) j
    else if j < nr then emit run.(j) i (j + 1)
  and emit key i j =
    match hi with
    | Some hi when Key_order.compare key hi > 0 -> ()
    | Some _ | None ->
      f key;
      go i j
  in
  go i j

let iter_keys_ordered t f = iter_keys_range t f

(* Walks the chains in place: no directory sort, no second lookup. *)
let fold_visible t ~at ~init ~f =
  Key_tbl.fold
    (fun key chain acc ->
      match visible chain ~at with None -> acc | Some row -> f acc key row)
    t.chains init

let fold_chains t ~init ~f =
  let acc = ref init in
  iter_keys_ordered t (fun key ->
      match Key_tbl.find_opt t.chains key with
      | None -> ()
      | Some chain ->
        acc := f !acc key (List.map (fun { version; row } -> (version, row)) !chain));
  !acc

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
