(** Enumeration and evaluation of heuristic orderings (Section 5,
    Graph 1 and Table 4).

    There are 7! = 5040 total orders of the heuristics.  The quality
    of an order on a benchmark is the dynamic miss rate of the
    combined predictor (heuristics + Default) on the benchmark's
    non-loop branches; benchmarks are averaged with equal weight, as
    in the paper. *)

val factorial : int -> int

val all_orders : unit -> Combined.order array
(** The 5040 permutations, in lexicographic order of heuristic
    indices; index 0 is [Opcode; Loop; Call; Return; Guard; Store;
    Point].  Test seam: [test_predict] checks they are distinct. *)

val order_of_index : int -> Combined.order
(** Lexicographic unranking; inverse of {!index_of_order}. *)

val index_of_order : Combined.order -> int


val miss_matrix : Database.t array -> float array array
(** [m.(b).(o)]: miss rate of order [o] on benchmark [b], for all
    5040 orders.  Shared by Graph 1 and the subset experiment.

    The combined predictor takes the first applicable heuristic, so an
    order's misses on a branch depend only on which heuristics apply
    to it.  Each database is first reduced to a first-fire table: for
    every set [u] of heuristics and heuristic [h], the summed misses,
    when [h] predicts, of the non-loop branches to which [h] applies
    and no member of [u] does (128 x 7 integers), from the per-mask
    sums by one subset-sum (zeta) transform of 7 x 7 x 128 integer
    additions at most, whatever the branch count.  A cell is then the
    Default misses of the branches no heuristic applies to plus seven
    table lookups, one per position of the order, over the total
    non-loop executions ([nan] when that total is 0).  The sums are
    integers, so a cell equals a branch-by-branch evaluation exactly.

    The matrix is built on the calling domain: the 22 suite databases
    take a few milliseconds, less than fanning them out over the pool
    costs. *)

val averages : float array array -> float array
(** [averages m]: per order [o], the mean of [m.(b).(o)] over the
    benchmarks, summed in benchmark order; [[||]] when [m] has no
    rows.  The experiments compute it once per matrix and store it:
    Graph 1, the ordering ablation, Graph 3 and Table 4 all read that
    one array. *)

val best_order : float array -> int * float
(** [best_order avg]: the first order index minimising the per-order
    averages {!averages}, with its average miss rate. *)

val pairwise_order : Database.t array -> Combined.order
(** The cheaper ordering strategy of Section 5: compare each pair of
    heuristics on the branches where both apply and order them by
    pairwise wins (Copeland score). *)
