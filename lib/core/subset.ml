type result = {
  trials : int;
  distinct_orders : int;
  wins : (int * int) array;
  overall : float array;
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

(* Columns (orders) that can win some trial, ascending.  A column is
   dropped when it is identical to a lower-index column, or when some
   column [i] is no larger on every row and smaller by at least
   [delta] on [nb - k + 1] rows: every k-subset then contains such a
   row, so the walk's float sum for the column exceeds [i]'s and it is
   never the argmin.  Each column's float history is independent of
   the others, so walking the survivors gives the same win counts.

   [delta] covers the float drift.  Within one chunk a running sum
   takes at most [ops] additions or subtractions, each yielding a sum
   of at most [2k] entries (a step that swaps several members may add
   them all before it subtracts), so it errs by at most
   [drift = 2 * ops * u * 2k * max|m|] (u = 2^-53, valid while
   [ops * u <= 1]).  Two sums whose exact values differ by more than
   [2 * drift] compare the right way round, and [delta = 3 * drift]
   also absorbs the rounding of the row differences below.  Non-finite
   entries, an underflowing [delta] or sums that could overflow keep
   every column. *)
let survivors (m : float array array) ~k =
  let nb = Array.length m and no = width m in
  if k <= 0 || k > nb then invalid_arg "Subset: bad subset size";
  let all = Array.init no Fun.id in
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
  then all
  else begin
    let col = Array.init no (fun o -> Array.init nb (fun b -> m.(b).(o))) in
    let total = Array.map (Array.fold_left ( +. ) 0.) col in
    (* A column's dominators have no larger total (float addition is
       monotone), and dominance is transitive, so checking candidates
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
  end

let run ?k ?(max_trials = max_int) (m : float array array) =
  let nb = Array.length m in
  let k = match k with Some k -> k | None -> (nb + 1) / 2 in
  let keep = survivors m ~k in
  let no_all = Array.length m.(0) and no = Array.length keep in
  let total = min (choose nb k) max_trials in
  let walked = Array.map (fun row -> Array.map (fun o -> row.(o)) keep) m in
  let pool = Par.Pool.get () in
  (* The chunk size is part of the reproducibility contract (each chunk
     re-sums its first combination, so resizing it moves float
     accumulation boundaries); the pool's scheduling is not. *)
  let win_counts =
    Par.Pool.reduce pool ~n:total ~chunk:chunk_trials
      ~map:(fun lo hi -> walk_range walked ~nb ~no ~k lo (hi - lo))
      ~merge:(fun acc part ->
        Array.iteri (fun i c -> acc.(keep.(i)) <- acc.(keep.(i)) + c) part;
        acc)
      ~init:(Array.make no_all 0) ()
  in
  let overall =
    Array.init no_all (fun o ->
        let s = ref 0. in
        for b = 0 to nb - 1 do
          s := !s +. m.(b).(o)
        done;
        !s /. float_of_int nb)
  in
  let wins =
    Array.to_list win_counts
    |> List.mapi (fun o c -> (o, c))
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (o1, c1) (o2, c2) ->
           let c = compare c2 c1 in
           if c <> 0 then c else compare o1 o2)
    |> Array.of_list
  in
  { trials = total; distinct_orders = Array.length wins; wins; overall }

let cumulative_share r =
  let total = float_of_int r.trials in
  let acc = ref 0. in
  Array.map
    (fun (_, c) ->
      acc := !acc +. float_of_int c;
      !acc /. total)
    r.wins
