(** The on-disk layer under {!Memo}.

    The simulator is deterministic: a profile, a trace distribution or
    a subset enumeration is a pure function of the program, its input
    and the analysis code.  This store keeps such products on disk so
    warm runs skip simulation entirely.  An entry is named by a digest
    of the store format, the build fingerprint (a digest of every [.ml]
    under [lib/], generated at build time), the table name and the key,
    so it is only ever read back by the build and the table that wrote
    it.

    Entries live under one directory (default [_cache/] in the current
    working directory, overridable with [BALLARUS_CACHE_DIR]).  The
    store is enabled by default; set [BALLARUS_NO_CACHE] to any
    non-empty value, or call [set_enabled false] in code, to bypass
    it.

    Robustness: entries are written to a temporary file and renamed
    into place, so readers never observe a half-written entry; every
    entry carries a digest of its own file name and its payload.  A
    corrupt or truncated entry, or one found under a name other than
    the one it was written under, is quarantined (deleted and counted)
    so it cannot re-trip on every subsequent run, then recomputed and
    rewritten; its bytes are never unmarshalled.  A failed write is
    skipped, not retried, and its orphaned temporary file deleted — a
    cache write only costs warmth, never correctness.  Disk traffic and
    recovery are counted in {!Obs.Metrics} under [cache.*]: [hit],
    [miss], [write], [corrupt_quarantined],
    [write_failures] and [tmp_cleaned]. *)

val enabled : unit -> bool
(** Whether lookups and writes happen at all.  Starts as
    [not BALLARUS_NO_CACHE].  Test seam: tests that switch the store
    restore it afterwards. *)

val set_enabled : bool -> unit
(** Turn the store on or off for this process.  Test and benchmark
    seam: the gates and [suitebench/layers.ml] run uncached in
    process. *)

val dir : unit -> string
(** The cache directory currently in force.  Test seam: a private
    store restores the previous directory. *)

val set_dir : string -> unit
(** Redirect the store (overrides [BALLARUS_CACHE_DIR]).  Test seam:
    the suites and gates give themselves private stores. *)

val memo : table:string -> key:string -> (unit -> 'v) -> 'v
(** [memo ~table ~key compute] returns the value stored for [(table,
    key)] or runs [compute], stores its result, and returns it.  [key]
    is the caller's serialised key ({!Memo} passes the digest of the
    marshalled key value).

    The value is read back by [Marshal], so one table name must always
    hold one type.  {!Memo.create} guarantees that for the pipeline's
    tables by rejecting duplicate names. *)

val clear : unit -> unit
(** Delete every entry in {!dir}.  Missing directory is fine.  Test
    seam: tests empty a store to force a cold run. *)
