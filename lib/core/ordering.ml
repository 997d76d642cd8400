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

let all_orders () = Array.init nperm order_of_index

(* Per-database precomputation for fast order evaluation. *)
type compiled = {
  masks : int array;        (* applicability bitmask per branch *)
  miss_if : int array array;(* misses when heuristic h fires *)
  miss_default : int array; (* misses under the Default coin *)
  exec_total : int;
}

let compile (db : Database.t) =
  let nl = Array.of_list (Database.non_loop_branches db) in
  let n = Array.length nl in
  let masks = Array.make n 0 in
  let miss_if = Array.make_matrix n Heuristic.count 0 in
  let miss_default = Array.make n 0 in
  let exec_total = ref 0 in
  Array.iteri
    (fun i (br : Database.branch) ->
      exec_total := !exec_total + Database.exec br;
      miss_default.(i) <- Database.misses br br.rand_pred;
      Array.iteri
        (fun h pred ->
          match pred with
          | Some dir ->
            masks.(i) <- masks.(i) lor (1 lsl h);
            miss_if.(i).(h) <- Database.misses br dir
          | None -> ())
        br.heur)
    nl;
  { masks; miss_if; miss_default; exec_total = !exec_total }

let eval_compiled c (order : int array) =
  let n = Array.length c.masks in
  let miss = ref 0 in
  for i = 0 to n - 1 do
    let mask = Array.unsafe_get c.masks i in
    if mask = 0 then miss := !miss + Array.unsafe_get c.miss_default i
    else begin
      let rec first j =
        let h = Array.unsafe_get order j in
        if mask land (1 lsl h) <> 0 then Array.unsafe_get (Array.unsafe_get c.miss_if i) h
        else first (j + 1)
      in
      miss := !miss + first 0
    end
  done;
  if c.exec_total = 0 then Float.nan
  else float_of_int !miss /. float_of_int c.exec_total

let order_as_ints order = Array.of_list (List.map Heuristic.to_int order)

(* The 5040 orders are evaluated in (benchmark x order-chunk) tasks so
   the matrix fills across domains.  Every cell is written exactly once
   by exactly one task, so the matrix is identical at any [-j]. *)
let order_chunk = 315

let miss_matrix dbs =
  let pool = Par.Pool.get () in
  let nb = Array.length dbs in
  let compiled = Par.Pool.parallel_map pool compile dbs in
  let orders = Array.init nperm (fun i -> order_as_ints (order_of_index i)) in
  let m = Array.init nb (fun _ -> Array.make nperm 0.) in
  let per_row = (nperm + order_chunk - 1) / order_chunk in
  Par.Pool.run pool (nb * per_row) (fun task ->
      let b = task / per_row and c = task mod per_row in
      let lo = c * order_chunk and hi = min nperm ((c + 1) * order_chunk) in
      let cb = compiled.(b) and row = m.(b) in
      for o = lo to hi - 1 do
        row.(o) <- eval_compiled cb orders.(o)
      done);
  m

let sorted_average m =
  let nb = Array.length m in
  if nb = 0 then [||]
  else begin
    let no = Array.length m.(0) in
    let avg =
      Array.init no (fun o ->
          Array.fold_left (fun acc row -> acc +. row.(o)) 0. m /. float_of_int nb)
    in
    Array.sort compare avg;
    avg
  end

let best_order m =
  let nb = Array.length m in
  let no = Array.length m.(0) in
  let best = ref 0 and best_v = ref infinity in
  for o = 0 to no - 1 do
    let s = ref 0. in
    for b = 0 to nb - 1 do
      s := !s +. m.(b).(o)
    done;
    let v = !s /. float_of_int nb in
    if v < !best_v then begin
      best := o;
      best_v := v
    end
  done;
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
