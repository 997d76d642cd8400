(** Named memo tables: the one way the pipeline reuses a product.

    [find t key compute] tries the table in memory, then (for tables
    created with [~persist:true]) the on-disk {!Store}, then runs
    [compute] and keeps its result in both.  Keys are compared by the
    digest of their marshalled bytes, so a key may be any marshallable
    value, structural content and all; that one digest is also the key
    the {!Store} names the disk entry by, so a lookup hashes the key's
    bytes once.

    Tables are safe to share across domains.  A mutex guards the table
    only; [compute] runs unlocked, so two domains racing on one key at
    worst duplicate a deterministic computation.  Memory hits are not
    counted: only {!Store}'s disk traffic is, under [cache.*]. *)

type ('k, 'v) t

val create : ?persist:bool -> string -> ('k, 'v) t
(** [create ~persist name] registers a new, empty table.  [name] also
    names the table's disk entries when [persist] is [true] (default
    [false]).  Raises [Invalid_argument] if a table of that name
    already exists, so one name always holds one value type. *)

val find : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val reset : unit -> unit
(** Empty every table in memory (the disk store is untouched). *)
