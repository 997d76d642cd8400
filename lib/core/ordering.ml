let factorial n =
  let rec go acc n = if n <= 1 then acc else go (acc * n) (n - 1) in
  go 1 n

let nperm = factorial Heuristic.count

(* Lexicographic unranking over heuristic indices 0..6. *)
let order_of_index idx =
  if idx < 0 || idx >= nperm then invalid_arg "Ordering.order_of_index";
  let avail = ref (List.init Heuristic.count Fun.id) in
  let idx = ref idx in
  let out = ref [] in
  for pos = Heuristic.count downto 1 do
    let f = factorial (pos - 1) in
    let k = !idx / f in
    idx := !idx mod f;
    let chosen = List.nth !avail k in
    avail := List.filter (fun x -> x <> chosen) !avail;
    out := chosen :: !out
  done;
  List.rev_map Heuristic.of_int !out

let index_of_order order =
  Combined.validate order;
  let avail = ref (List.init Heuristic.count Fun.id) in
  let acc = ref 0 in
  List.iter
    (fun h ->
      let i = Heuristic.to_int h in
      let k = List.length (List.filter (fun x -> x < i) !avail) in
      avail := List.filter (fun x -> x <> i) !avail;
      acc := (!acc * (List.length !avail + 1)) + k)
    order;
  !acc

(* The [nperm] orders as heuristic indices, in lexicographic order:
   each array is the next permutation of the one before, so no order
   is unranked from its index. *)
let order_ints () =
  let k = Heuristic.count in
  let cur = Array.init k Fun.id in
  Array.init nperm (fun i ->
      if i > 0 then begin
        (* the longest descending suffix starts after [j] *)
        let j = ref (k - 2) in
        while cur.(!j) > cur.(!j + 1) do
          decr j
        done;
        let l = ref (k - 1) in
        while cur.(!l) < cur.(!j) do
          decr l
        done;
        let swap a b =
          let t = cur.(a) in
          cur.(a) <- cur.(b);
          cur.(b) <- t
        in
        swap !j !l;
        let lo = ref (!j + 1) and hi = ref (k - 1) in
        while !lo < !hi do
          swap !lo !hi;
          incr lo;
          decr hi
        done
      end;
      Array.copy cur)

let all_orders () =
  Array.map (fun o -> Array.to_list (Array.map Heuristic.of_int o)) (order_ints ())

(* Per-database first-fire tables.  The combined predictor takes the
   first applicable heuristic, so an order's misses on a branch depend
   only on the branch's applicability mask.  [fires.(u * k + h)] sums
   the misses, when [h] predicts, of the non-loop branches to which
   [h] applies and no heuristic in the set [u] does; walking an order
   [o_0 .. o_6] with [u] the set of heuristics already passed charges
   each branch exactly once, at its first applicable heuristic.
   Branches no heuristic applies to fall to the Default coin. *)
type compiled = {
  fires : int array;  (* (2^k sets) x (k heuristics) *)
  miss_default : int; (* Default misses of the mask-0 branches *)
  exec_total : int;
}

let compile (db : Database.t) =
  let k = Heuristic.count in
  let nsets = 1 lsl k in
  (* sums.(m * k + h): misses when [h] predicts, summed over the
     branches whose applicability mask is [m] (0 unless [h] is in
     [m]) *)
  let sums = Array.make (nsets * k) 0 in
  let miss_default = ref 0 and exec_total = ref 0 in
  Array.iter
    (fun (br : Database.branch) ->
      if br.cls = Classify.Non_loop_branch then begin
        exec_total := !exec_total + Database.exec br;
        let mask = ref 0 in
        Array.iteri
          (fun h pred -> if pred <> None then mask := !mask lor (1 lsl h))
          br.heur;
        let m = !mask in
        if m = 0 then
          miss_default := !miss_default + Database.misses br br.rand_pred
        else
          Array.iteri
            (fun h pred ->
              match pred with
              | Some dir ->
                sums.((m * k) + h) <-
                  sums.((m * k) + h) + Database.misses br dir
              | None -> ())
            br.heur
      end)
    db.branches;
  (* Subset-sum (zeta) transform, one bit at a time: afterwards
     [sums.(s * k + h)] sums the masks [m] that are subsets of [s].
     The masks disjoint from [u] are the subsets of its complement. *)
  for bit = 0 to k - 1 do
    let b = 1 lsl bit in
    for s = 0 to nsets - 1 do
      if s land b <> 0 then
        for h = 0 to k - 1 do
          sums.((s * k) + h) <- sums.((s * k) + h) + sums.(((s lxor b) * k) + h)
        done
    done
  done;
  let full = nsets - 1 in
  let fires =
    Array.init (nsets * k) (fun i ->
        sums.(((full lxor (i / k)) * k) + (i mod k)))
  in
  { fires; miss_default = !miss_default; exec_total = !exec_total }

(* Misses of [order]: Default's, plus at each position those charged
   to its heuristic with the heuristics before it passed. *)
let misses_of c (order : int array) =
  let k = Heuristic.count in
  let miss = ref c.miss_default and passed = ref 0 in
  for j = 0 to k - 1 do
    let h = Array.unsafe_get order j in
    miss := !miss + Array.unsafe_get c.fires ((!passed * k) + h);
    passed := !passed lor (1 lsl h)
  done;
  !miss

let miss_matrix dbs =
  let orders = order_ints () in
  Array.map
    (fun db ->
      let c = compile db in
      let exec = float_of_int c.exec_total in
      Array.map
        (fun order ->
          if c.exec_total = 0 then Float.nan
          else float_of_int (misses_of c order) /. exec)
        orders)
    dbs

(* Summed over b = 0 .. nb-1 in that order, so every caller gets the
   same floats bit for bit. *)
let averages m =
  let nb = Array.length m in
  if nb = 0 then [||]
  else
    Array.init (Array.length m.(0)) (fun o ->
        let s = ref 0. in
        for b = 0 to nb - 1 do
          s := !s +. m.(b).(o)
        done;
        !s /. float_of_int nb)

let best_order avg =
  let best = ref 0 and best_v = ref infinity in
  Array.iteri
    (fun o v ->
      if v < !best_v then begin
        best := o;
        best_v := v
      end)
    avg;
  (!best, !best_v)

let pairwise_order dbs =
  let k = Heuristic.count in
  (* wins.(i).(j) = dynamic misses of i minus misses of j over branches
     where both apply; negative means i is better. *)
  let delta = Array.make_matrix k k 0 in
  Array.iter
    (fun db ->
      List.iter
        (fun (br : Database.branch) ->
          for i = 0 to k - 1 do
            for j = 0 to k - 1 do
              match br.heur.(i), br.heur.(j) with
              | Some di, Some dj when i <> j ->
                delta.(i).(j) <-
                  delta.(i).(j) + Database.misses br di - Database.misses br dj
              | _ -> ()
            done
          done)
        (Database.non_loop_branches db))
    dbs;
  let score i =
    let s = ref 0 in
    for j = 0 to k - 1 do
      if j <> i then begin
        if delta.(i).(j) < 0 then incr s
        else if delta.(i).(j) > 0 then decr s
      end
    done;
    !s
  in
  let ranked =
    List.sort
      (fun a b ->
        let c = compare (score b) (score a) in
        if c <> 0 then c else compare a b)
      (List.init k Fun.id)
  in
  List.map Heuristic.of_int ranked
