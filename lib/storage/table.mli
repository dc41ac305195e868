(** A table: schema + MVCC store + secondary indexes.

    A secondary index maps each value to the keys of every row version
    ever installed with that value, and holds each such key's version
    chain ({!Mvcc.chain}), so a lookup needs no second probe of the
    store. Entries are added on install and never removed on update or
    delete (PostgreSQL-style): a reader re-checks visibility and the
    indexed value against the row visible at its snapshot, and
    {!Mvcc.gc} keeps chains short. A value whose keys have all kept it
    since they were installed with it needs no re-check at snapshots
    above those installs and above the last gc horizon. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val name : t -> string

val install : t -> key:Mvcc.key -> version:int -> Value.t array option -> unit
(** Install a row version (or tombstone) at [version]. *)

val read : t -> key:Mvcc.key -> at:int -> Value.t array option

val latest_version : t -> key:Mvcc.key -> int option

val index_select :
  t -> column:int -> value:Value.t -> at:int -> keep:(Mvcc.key -> Value.t array -> bool) ->
  limit:int option -> Value.t array list * int
(** The secondary-index lookup [column = value] at snapshot [at]: the
    visible rows it finds that [keep] accepts, at most [limit] of them,
    in lookup order (deterministic for a given install history, not key
    order); and the number of visible hits, which the cost model
    charges whether or not [keep] takes them. When every key in the
    value's bucket is known to be a hit at [at], the count needs no
    walk and only the rows up to the limit are read. Raises
    [Invalid_argument] if the column has no index. *)

val has_index : t -> column:int -> bool

val scan :
  t -> at:int -> ?where:(Value.t array -> bool) -> ?limit:int -> unit ->
  (Mvcc.key * Value.t array) list * int
(** Full scan in key order at snapshot [at]; returns matching rows and
    the number of rows examined (for the cost model). *)

val range_scan :
  t -> at:int -> ?lo:Mvcc.key -> ?hi:Mvcc.key -> ?where:(Value.t array -> bool) ->
  ?limit:int -> unit -> (Mvcc.key * Value.t array) list * int
(** Like {!scan} but bounded to the inclusive primary-key range
    [\[lo, hi\]]; only rows inside the range are examined. *)

val row_count : t -> at:int -> int
(** Number of visible rows at a snapshot. *)

val key_count : t -> int

val version_count : t -> int

val fold_chains :
  t -> init:'a -> f:('a -> Mvcc.key -> (int * Value.t array option) list -> 'a) -> 'a
(** Fold over full version chains (newest first per key), ascending key
    order. Used by checkpointing. *)

val fold_visible :
  t -> at:int -> init:'a -> f:('a -> Mvcc.key -> Value.t array -> 'a) -> 'a
(** Fold over rows visible at snapshot [at], in unspecified order
    ({!scan} is the ordered form). *)

val gc : t -> keep_after:int -> int
