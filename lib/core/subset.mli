(** The C(n, k) subset cross-validation experiment of Section 5
    (Graphs 2-3 and Table 4).

    For every k-subset of the benchmarks ("the known benchmarks") the
    experiment finds the heuristic order minimising the subset's
    average non-loop miss rate, then evaluates that order on {e all}
    benchmarks.  With n = 22, k = 11 that is 705,432 trials; subsets
    are enumerated lexicographically and the per-order subset sums are
    maintained incrementally, so the full experiment runs in seconds.

    The enumeration is split into fixed-size contiguous rank ranges
    ({!unrank} finds each range's starting combination).  One
    {!Par.Pool.parallel_map_list} walks them, each element a group of
    consecutive ranges (about four groups per domain); the ranges'
    integer win counts are then added in ascending range order.  The
    ranges are a function of the trial count alone, so results are
    bit-identical for any [-j]; only the grouping follows the width.

    {b Pruning.}  Only orders that can win are walked, in two passes
    that share one margin δ.  {!survivors} drops, once, the orders
    that can win no trial at all.  Then each range walks only the
    survivors that can win inside it (the chunk rule under {!run}).
    Each order's floating-point history is independent of the
    others', so dropping orders that never win leaves every argmin,
    tie-break included, as it was.

    {b The margin.}  A range is at most 8,192 trials.  Its running sum
    for an order starts from zero, adds the first combination's [k]
    rows, then takes at most [2k] additions or subtractions per trial:
    [ops = k + 2k (8192 - 1)] operations in all.  Each one rounds a sum
    of at most [2k] entries, by at most [2k * max|m| * u] with
    u = 2{^-53}.  While [ops * u <= 1] the accumulated error stays
    below [drift = 2 * ops * u * 2k * max|m|].  Two sums whose exact
    values differ by more than [2 * drift] therefore compare the right
    way round.  [δ = 3 * drift] leaves one more [drift] for rounding
    the prunes' own arithmetic: sums and differences of at most [2k]
    entries, off by at most [4k{^2} * u * max|m|], which is below
    [drift] because [ops > k].  A matrix with a non-finite entry, or
    whose δ would underflow or sums overflow, keeps every order in both
    passes.

    Ties between orders are broken toward the lower order index,
    making results deterministic. *)

type result = {
  trials : int;                  (** number of subsets examined *)
  distinct_orders : int;         (** how many orders ever won *)
  wins : (int * int) array;      (** (order index, #trials won), by
                                     descending frequency *)
}
(** An order's average over {e all} benchmarks is
    {!Ordering.averages} of the same matrix. *)

val choose : int -> int -> int
(** Binomial coefficient.  Test seam, as {!unrank}. *)

val unrank : n:int -> k:int -> int -> int array
(** [unrank ~n ~k r] is the [r]-th (0-based) k-combination of
    [0 .. n-1] in lexicographic order, as a sorted array.  Raises
    [Invalid_argument] unless [0 <= r < choose n k].  Test seam:
    [test_predict] checks the walk's combination order through it. *)

val rank : n:int -> k:int -> int array -> int
(** Lexicographic rank of a sorted k-combination of [0 .. n-1];
    inverse of {!unrank}.  Test seam, as {!unrank}. *)

val run : ?k:int -> ?max_trials:int -> float array array -> result
(** [run m] over the miss matrix from {!Ordering.miss_matrix}
    ([m.(benchmark).(order)]).  [k] defaults to half the benchmarks,
    rounded up.  [max_trials] caps the enumeration (first trials in
    lexicographic order) for quick runs; default unlimited.  The
    result is the one a walk over every order gives.

    Each 8,192-trial range walks only the {!survivors} that can win
    inside it (the chunk rule).  Take a run of consecutive trials and
    let P be the common prefix of its first and last combination:
    every combination of the run contains P, and its other
    [r = k - |P|] members lie in R = [\{first.(|P|), ..., nb - 1\}].
    Order [j] cannot win in the run when some order [i] has

    [sum over P of (m.(b).(j) - m.(b).(i))
     + the r smallest (m.(b).(j) - m.(b).(i)) over b in R >= δ].

    The left side is a lower bound on [j]'s exact lead over [i] on
    every trial of the run, so [j]'s float sum exceeds [i]'s
    throughout.  A range is cut into blocks, the runs whose
    combinations also share the member after the range's own common
    prefix; a block's prefix is longer, so its bound is tighter.  The
    range walks, in ascending order, every order that some block
    keeps.  Each order is tested against the orders its block has
    kept so far, best first; a test that fails only keeps an order,
    so the tests never change a result.  What a range walks is a pure
    function of the matrix and the range, the same at any [-j].  Each
    range adds (orders walked) x (trials) to the
    [subset.column_steps] counter of {!Obs.Metrics}.

    Raises [Invalid_argument] on an empty, zero-width or ragged
    matrix, or unless [0 < k <= nb]. *)

val survivors : float array array -> k:int -> int array
(** The orders (columns) the walk keeps, ascending.  An order is
    dropped when it is identical to a lower-index order, or when some
    order [i] is no larger on every benchmark and smaller by at least
    δ on [nb - k + 1] of them: every k-subset then contains such a
    benchmark, so the order's floating-point sum always exceeds
    [i]'s and it never wins.  δ is the margin derived above.  A matrix
    with a non-finite entry, or whose δ would underflow or sums
    overflow, keeps every order.  Raises [Invalid_argument] on a
    matrix {!run} rejects.  Test seam: [test_predict] checks the
    prune on hand-built matrices. *)

val cumulative_share : result -> float array
(** Graph 2's series: cumulative fraction of all trials accounted for
    by the most common winning orders. *)
