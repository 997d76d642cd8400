type result = {
  trials : int;
  distinct_orders : int;
  wins : (int * int) array;
}

let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let unrank ~n ~k r =
  if k < 0 || k > n then invalid_arg "Subset.unrank: bad subset size";
  if r < 0 || r >= choose n k then invalid_arg "Subset.unrank: rank out of range";
  let comb = Array.make k 0 in
  let r = ref r in
  let v = ref 0 in
  for i = 0 to k - 1 do
    (* smallest member for slot [i] whose block of combinations still
       covers the remaining rank *)
    let rec settle () =
      let block = choose (n - 1 - !v) (k - 1 - i) in
      if !r >= block then begin
        r := !r - block;
        incr v;
        settle ()
      end
    in
    settle ();
    comb.(i) <- !v;
    incr v
  done;
  comb

let rank ~n ~k comb =
  if Array.length comb <> k then invalid_arg "Subset.rank: bad subset size";
  let r = ref 0 in
  let prev = ref (-1) in
  Array.iteri
    (fun i ci ->
      if ci <= !prev || ci >= n then
        invalid_arg "Subset.rank: not a sorted combination over 0..n-1";
      for v = !prev + 1 to ci - 1 do
        r := !r + choose (n - 1 - v) (k - 1 - i)
      done;
      prev := ci)
    comb;
  !r

(* Lexicographically next k-combination of 0..n-1 in place; false at
   the last combination. *)
let next_combination comb n =
  let k = Array.length comb in
  let rec bump i =
    if i < 0 then false
    else if comb.(i) < n - k + i then begin
      comb.(i) <- comb.(i) + 1;
      for j = i + 1 to k - 1 do
        comb.(j) <- comb.(j - 1) + 1
      done;
      true
    end
    else bump (i - 1)
  in
  bump (k - 1)

(* Ranks are enumerated in fixed chunks of this many trials.  Each
   chunk unranks its starting combination, sums its rows afresh, and
   then runs the incremental-delta walk; chunks are the unit of
   parallelism.  The decomposition depends only on the trial count —
   never on the domain count — so the floating-point accumulations
   (and hence every argmin tie) are bit-identical at any [-j]. *)
let chunk_trials = 8192

(* Walk the [len] combinations of rank [lo .. lo+len-1] and return the
   per-order win counts for this range. *)
let walk_range (m : float array array) ~nb ~no ~k lo len =
  let comb = unrank ~n:nb ~k lo in
  let cur = Array.make no 0. in
  Array.iter
    (fun b ->
      let row = m.(b) in
      for o = 0 to no - 1 do
        cur.(o) <- cur.(o) +. Array.unsafe_get row o
      done)
    comb;
  let win_counts = Array.make no 0 in
  let argmin () =
    let best = ref 0 and best_v = ref (Array.unsafe_get cur 0) in
    for o = 1 to no - 1 do
      let v = Array.unsafe_get cur o in
      if v < !best_v then begin
        best_v := v;
        best := o
      end
    done;
    !best
  in
  let record () =
    let w = argmin () in
    win_counts.(w) <- win_counts.(w) + 1
  in
  (* Row deltas between consecutive combinations, in the order the
     sorted-merge below emits them.  Almost every step replaces a
     single member, leaving one subtracted and one added row; that
     pair gets a fused update-and-argmin pass.  Per element the fused
     pass performs the exact operation sequence of the separate
     full-array passes — [(cur -. s) +. a] when the subtraction is
     emitted first, [(cur +. a) -. s] otherwise — so the trailing-bit
     behaviour, and with it every argmin tie, is unchanged. *)
  let op_sub = Array.make (2 * k) false in
  let op_row = Array.make (2 * k) [||] in
  let fused_record sub0 r0 r1 =
    let v0 =
      if sub0 then (cur.(0) -. r0.(0)) +. r1.(0)
      else (cur.(0) +. r0.(0)) -. r1.(0)
    in
    cur.(0) <- v0;
    let best = ref 0 and best_v = ref v0 in
    if sub0 then
      for o = 1 to no - 1 do
        let v =
          (Array.unsafe_get cur o -. Array.unsafe_get r0 o)
          +. Array.unsafe_get r1 o
        in
        Array.unsafe_set cur o v;
        if v < !best_v then begin
          best_v := v;
          best := o
        end
      done
    else
      for o = 1 to no - 1 do
        let v =
          (Array.unsafe_get cur o +. Array.unsafe_get r0 o)
          -. Array.unsafe_get r1 o
        in
        Array.unsafe_set cur o v;
        if v < !best_v then begin
          best_v := v;
          best := o
        end
      done;
    win_counts.(!best) <- win_counts.(!best) + 1
  in
  let prev = Array.copy comb in
  record ();
  for _ = 2 to len do
    Array.blit comb 0 prev 0 k;
    if not (next_combination comb nb) then
      invalid_arg "Subset.walk_range: range past the last combination";
    (* Symmetric difference between the sorted [prev] and [comb]. *)
    let nops = ref 0 in
    let emit is_sub b =
      op_sub.(!nops) <- is_sub;
      op_row.(!nops) <- m.(b);
      incr nops
    in
    let i = ref 0 and j = ref 0 in
    while !i < k || !j < k do
      if !i < k && !j < k && prev.(!i) = comb.(!j) then begin
        incr i;
        incr j
      end
      else if !j >= k || (!i < k && prev.(!i) < comb.(!j)) then begin
        emit true prev.(!i);
        incr i
      end
      else begin
        emit false comb.(!j);
        incr j
      end
    done;
    if !nops = 2 then fused_record op_sub.(0) op_row.(0) op_row.(1)
    else begin
      for idx = 0 to !nops - 1 do
        let row = op_row.(idx) in
        if op_sub.(idx) then
          for o = 0 to no - 1 do
            Array.unsafe_set cur o
              (Array.unsafe_get cur o -. Array.unsafe_get row o)
          done
        else
          for o = 0 to no - 1 do
            Array.unsafe_set cur o
              (Array.unsafe_get cur o +. Array.unsafe_get row o)
          done
      done;
      record ()
    end
  done;
  win_counts

(* The matrix's width; raises unless it is non-empty and rectangular
   (a ragged row would otherwise fail deep inside a pool task). *)
let width (m : float array array) =
  if Array.length m = 0 then invalid_arg "Subset: empty matrix";
  let no = Array.length m.(0) in
  if no = 0 then invalid_arg "Subset: zero-width matrix";
  if Array.exists (fun row -> Array.length row <> no) m then
    invalid_arg "Subset: ragged matrix";
  no

(* The margin δ both prunes test against (derived in subset.mli), or
   [None] when the matrix has a non-finite entry, δ would underflow or
   sums could overflow: every column is then kept. *)
let margin (m : float array array) ~k =
  let maxabs =
    Array.fold_left
      (Array.fold_left (fun a v -> Float.max a (Float.abs v)))
      0. m
  in
  let ops = k + (2 * k * (chunk_trials - 1)) in
  let drift =
    2. *. float_of_int ops *. (epsilon_float /. 2.)
    *. float_of_int (2 * k) *. maxabs
  in
  let delta = 3. *. drift in
  (* [Float.max] propagates NaN, so a non-finite entry fails the
     overflow test *)
  if
    delta < Float.min_float
    || not (Float.is_finite (4. *. float_of_int k *. maxabs))
  then None
  else Some delta

(* Columns (orders) that can win some trial, ascending.  A column is
   dropped when it is identical to a lower-index column, or when some
   column [i] is no larger on every row and smaller by at least the
   [margin] on [nb - k + 1] rows: every k-subset then contains such a
   row, so the walk's float sum for the column exceeds [i]'s and it is
   never the argmin.  Each column's float history is independent of
   the others, so walking the survivors gives the same win counts. *)
let survivors (m : float array array) ~k =
  let nb = Array.length m and no = width m in
  if k <= 0 || k > nb then invalid_arg "Subset: bad subset size";
  let all = Array.init no Fun.id in
  match margin m ~k with
  | None -> all
  | Some delta ->
    let col = Array.init no (fun o -> Array.init nb (fun b -> m.(b).(o))) in
    let total = Array.map (Array.fold_left ( +. ) 0.) col in
    (* A column's dominators have no larger total (float addition is
       monotone), and dominance is transitive, so checking columns
       in order of total against the survivors alone misses none. *)
    let by_total = Array.copy all in
    Array.stable_sort (fun a b -> Float.compare total.(a) total.(b)) by_total;
    let need = nb - k + 1 in
    let pruned_by i j =
      let ci = col.(i) and cj = col.(j) in
      let rec go b strict equal =
        if b = nb then strict >= need || equal = nb
        else
          let x = ci.(b) and y = cj.(b) in
          if x > y then false
          else if y -. x >= delta then go (b + 1) (strict + 1) equal
          else go (b + 1) strict (if x = y then equal + 1 else equal)
      in
      go 0 0 0
    in
    let kept = ref [] in
    Array.iter
      (fun j ->
        if not (List.exists (fun i -> pruned_by i j) !kept) then
          kept := j :: !kept)
      by_total;
    let keep = Array.of_list !kept in
    Array.sort compare keep;
    keep

(* Length of the common prefix of two k-combinations. *)
let common_prefix a b =
  let p = ref 0 in
  while !p < Array.length a && a.(!p) = b.(!p) do
    incr p
  done;
  !p

(* Per-column working arrays of [block_columns], shared by the blocks
   of a chunk and reused by every chunk a domain walks: fresh ones per
   block left megabytes of garbage behind the walk and raised the
   process's peak RSS. *)
type scratch = {
  best : float array;
  sums : float array;  (* [samples] sums per column *)
  order : int array;
  kept : int array;
  can_win : bool array;  (* kept by some block of the chunk *)
}

let samples = 4

let scratch_slot : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* This domain's scratch for [nc] columns, with [can_win] cleared. *)
let scratch nc =
  let slot = Domain.DLS.get scratch_slot in
  match !slot with
  | Some s when Array.length s.best = nc ->
    Array.fill s.can_win 0 nc false;
    s
  | _ ->
    let s =
      {
        best = Array.make nc 0.;
        sums = Array.make (nc * samples) 0.;
        order = Array.make nc 0;
        kept = Array.make nc 0;
        can_win = Array.make nc false;
      }
    in
    slot := Some s;
    s

(* Marks in [can_win] the columns of [col] ([col.(c).(b)]; [rows.(c)]
   lists c's rows by ascending value) that can win some trial of rank
   [lo .. hi-1].  Every combination of the range holds the
   common prefix P of its first and last combination; its other
   [r = k - |P|] members lie in R = [first.(|P|) .. nb-1].  Column [j]
   is dropped when some column [i] has
     sum over P of (j - i) + the r smallest (j - i) over R >= delta,
   a lower bound on [j]'s exact lead over [i] on every trial of the
   range, so [j]'s float sum exceeds [i]'s throughout and it never
   wins there.

   Over the range a column's sum is at least [best] (P plus its r
   smallest rows of R).  A dominator has the smaller [best], and
   dominance is transitive, so the columns are checked in order of
   [best] against the kept ones alone, best first, while [j]'s [best]
   exceeds theirs by at least [delta].  A pair is settled at once when
   at one of a few combinations of the range [j] leads [i] by less
   than [delta], and while the bound is summed, visiting [j]'s best
   rows first, as soon as the r smallest differences seen so far fall
   short.  A rejection only keeps a column. *)
let block_columns { best; sums; order; kept; can_win }
    (col : float array array) (rows : int array array) ~nb ~k ~delta lo hi =
  let first = unrank ~n:nb ~k lo and last = unrank ~n:nb ~k (hi - 1) in
  let p = common_prefix first last in
  let r = k - p in
  let rlo = if p < k then first.(p) else nb in
  Array.iteri
    (fun c (cc : float array) ->
      let rc = rows.(c) in
      let s = ref 0. in
      for q = 0 to p - 1 do
        s := !s +. cc.(first.(q))
      done;
      let lo_s = ref !s and n = ref 0 and x = ref 0 in
      while !n < r do
        let b = rc.(!x) in
        if b >= rlo then begin
          lo_s := !lo_s +. cc.(b);
          incr n
        end;
        incr x
      done;
      best.(c) <- !lo_s)
    col;
  Array.iteri (fun c _ -> order.(c) <- c) order;
  Array.sort
    (fun a b ->
      let o = Float.compare best.(a) best.(b) in
      if o <> 0 then o else compare a b)
    order;
  let third = (hi - 1 - lo) / 3 in
  let combs =
    [| last; first; unrank ~n:nb ~k (lo + third);
       unrank ~n:nb ~k (hi - 1 - third) |]
  in
  Array.iteri
    (fun c (cc : float array) ->
      for t = 0 to samples - 1 do
        let comb = combs.(t) and s = ref 0. in
        for q = 0 to k - 1 do
          s := !s +. cc.(comb.(q))
        done;
        sums.((c * samples) + t) <- !s
      done)
    col;
  (* the r smallest differences seen so far, ascending *)
  let small = Array.make r 0. in
  let leads i j =
    let ci = col.(i) and cj = col.(j) and rj = rows.(j) in
    let sp = ref 0. in
    for q = 0 to p - 1 do
      let b = first.(q) in
      sp := !sp +. (cj.(b) -. ci.(b))
    done;
    let need = delta -. !sp in
    let n = ref 0 and sum = ref 0. and x = ref 0 and short = ref false in
    while (not !short) && !x < nb do
      let b = Array.unsafe_get rj !x in
      incr x;
      if b >= rlo then begin
        let v = Array.unsafe_get cj b -. Array.unsafe_get ci b in
        if !n < r || v < Array.unsafe_get small (r - 1) then begin
          let t =
            ref
              (if !n < r then begin
                 sum := !sum +. v;
                 incr n;
                 !n - 1
               end
               else begin
                 sum := !sum +. (v -. Array.unsafe_get small (r - 1));
                 r - 1
               end)
          in
          while !t > 0 && Array.unsafe_get small (!t - 1) > v do
            Array.unsafe_set small !t (Array.unsafe_get small (!t - 1));
            decr t
          done;
          Array.unsafe_set small !t v;
          short := !n = r && !sum < need
        end
      end
    done;
    (not !short)
    && begin
      (* summed afresh, so its rounding stays inside the margin *)
      let s = ref !sp in
      for t = 0 to r - 1 do
        s := !s +. small.(t)
      done;
      !s >= delta
    end
  in
  let beats i j =
    let t = ref 0 in
    while
      !t < samples
      && Array.unsafe_get sums ((j * samples) + !t)
         -. Array.unsafe_get sums ((i * samples) + !t)
         >= delta
    do
      incr t
    done;
    !t = samples && leads i j
  in
  let nk = ref 0 in
  Array.iter
    (fun j ->
      let t = ref 0 and dominated = ref false in
      while
        (not !dominated) && !t < !nk && best.(j) -. best.(kept.(!t)) >= delta
      do
        dominated := beats kept.(!t) j;
        incr t
      done;
      if not !dominated then begin
        kept.(!nk) <- j;
        incr nk;
        can_win.(j) <- true
      end)
    order

(* Columns of [col] that can win some trial of rank [lo .. hi-1],
   ascending: the union of [block_columns] over the blocks of the
   range that also agree on the member after its common prefix.  A
   block's prefix is longer than the range's, so its bound is
   tighter. *)
let chunk_columns col rows ~nb ~k ~delta lo hi =
  let first = unrank ~n:nb ~k lo and last = unrank ~n:nb ~k (hi - 1) in
  let p = common_prefix first last in
  (* block [t]: the ranks whose member [p] is [first.(p) + t] *)
  let nblocks = if p = k then 1 else last.(p) - first.(p) + 1 in
  let start t =
    if t = 0 then lo
    else if t = nblocks then hi
    else
      rank ~n:nb ~k
        (Array.init k (fun q ->
             if q < p then first.(q) else first.(p) + t + q - p))
  in
  let s = scratch (Array.length col) in
  for t = 0 to nblocks - 1 do
    block_columns s col rows ~nb ~k ~delta (start t) (start (t + 1))
  done;
  let cols = ref [] in
  for c = Array.length col - 1 downto 0 do
    if s.can_win.(c) then cols := c :: !cols
  done;
  Array.of_list !cols

let column_steps = Obs.Metrics.counter "subset.column_steps"

let run ?k ?(max_trials = max_int) (m : float array array) =
  let nb = Array.length m in
  let k = match k with Some k -> k | None -> (nb + 1) / 2 in
  let keep = survivors m ~k in
  let delta = margin m ~k in
  let total = min (choose nb k) max_trials in
  let col = Array.map (fun o -> Array.init nb (fun b -> m.(b).(o))) keep in
  let rows =
    Array.map
      (fun cc ->
        let rc = Array.init nb Fun.id in
        Array.stable_sort (fun a b -> Float.compare cc.(a) cc.(b)) rc;
        rc)
      col
  in
  (* The chunk size is part of the reproducibility contract (each chunk
     re-sums its first combination, so resizing it moves float
     accumulation boundaries); the pool's scheduling is not.  Each
     chunk walks only the columns that can win inside it, in ascending
     order, so every column it walks has the float history and every
     argmin the tie-break of a walk over all columns.  One pool task
     walks a group of consecutive chunks, about four groups per domain,
     so few handoffs are paid for.  The per-chunk win counts are
     integers, so adding them up is exact. *)
  let chunk idx =
    let lo = idx * chunk_trials in
    let hi = min total (lo + chunk_trials) in
    let cols =
      match delta with
      | None -> Array.init (Array.length col) Fun.id
      | Some delta -> chunk_columns col rows ~nb ~k ~delta lo hi
    in
    let nc = Array.length cols in
    Obs.Metrics.incr ~by:(nc * (hi - lo)) column_steps;
    let walked =
      Array.init nb (fun b -> Array.map (fun c -> col.(c).(b)) cols)
    in
    (cols, walk_range walked ~nb ~no:nc ~k lo (hi - lo))
  in
  let nchunks = (total + chunk_trials - 1) / chunk_trials in
  let group = max 1 (nchunks / (Par.Pool.default_jobs () * 4)) in
  let win_counts = Array.make (Array.length m.(0)) 0 in
  List.iter
    (List.iter (fun (cols, counts) ->
         Array.iteri
           (fun i w ->
             let o = keep.(cols.(i)) in
             win_counts.(o) <- win_counts.(o) + w)
           counts))
    (Par.Pool.parallel_map_list
       (fun g ->
         List.init (min group (nchunks - g)) (fun i -> chunk (g + i)))
       (List.init ((nchunks + group - 1) / group) (fun t -> t * group)));
  let wins =
    Array.to_list win_counts
    |> List.mapi (fun o c -> (o, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (o1, c1) (o2, c2) ->
           let c = compare c2 c1 in
           if c <> 0 then c else compare o1 o2)
    |> Array.of_list
  in
  { trials = total; distinct_orders = Array.length wins; wins }

let cumulative_share r =
  let total = float_of_int r.trials in
  let acc = ref 0. in
  Array.map
    (fun (_, c) ->
      acc := !acc +. float_of_int c;
      !acc /. total)
    r.wins
