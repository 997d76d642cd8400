(* Cross-validated ordering search, in the spirit of the paper's
   Section 5 experiment but at example scale: pick a training half of
   the benchmarks, find the heuristic order that minimises their
   average non-loop miss rate, and evaluate it on the held-out half.

   Run with:  dune exec examples/main.exe ordering_search [train-fraction%] *)

let run args =
  let train_pct =
    match args with p :: _ -> Usage.int_arg "PCT" p | [] -> 50
  in
  let m, rs = Experiments.Orderings.miss_matrix_cached () in
  let names =
    Array.of_list
      (List.map (fun (r : Experiments.Bench_run.t) -> r.wl.name) rs)
  in
  let nb = Array.length m in
  let ntrain = max 1 (nb * train_pct / 100) in
  (* deterministic alternating split *)
  let train = List.init nb Fun.id |> List.filteri (fun i _ -> i mod 2 = 0) in
  let train = List.filteri (fun i _ -> i < ntrain) train in
  let test = List.filter (fun i -> not (List.mem i train)) (List.init nb Fun.id) in
  let avg_over subset o =
    List.fold_left (fun acc b -> acc +. m.(b).(o)) 0. subset
    /. float_of_int (List.length subset)
  in
  let no = Array.length m.(0) in
  let best = ref 0 and best_v = ref infinity in
  for o = 0 to no - 1 do
    let v = avg_over train o in
    if v < !best_v then begin
      best := o;
      best_v := v
    end
  done;
  let order = Predict.Ordering.order_of_index !best in
  Printf.printf "training on %d benchmarks: %s\n" (List.length train)
    (String.concat ", " (List.map (fun i -> names.(i)) train));
  Printf.printf "best training order: %s (train miss %.1f%%)\n"
    (String.concat " " (List.map Predict.Heuristic.name order))
    (100. *. !best_v);
  Printf.printf "held-out miss:  %.1f%%\n" (100. *. avg_over test !best);
  let paper = Predict.Ordering.index_of_order Predict.Combined.paper_order in
  Printf.printf "paper order held-out miss: %.1f%%\n"
    (100. *. avg_over test paper);
  let gbest, gv = Predict.Ordering.best_order (Predict.Ordering.averages m) in
  Printf.printf "global best order (all benchmarks): %s (%.1f%%)\n"
    (String.concat " "
       (List.map Predict.Heuristic.name (Predict.Ordering.order_of_index gbest)))
    (100. *. gv)
