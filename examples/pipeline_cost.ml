(* Misprediction cost on a deep pipeline (the paper's motivation: the
   DEC Alpha pays up to 10 cycles per mispredicted branch).  For each
   workload, estimate cycles lost per 1000 instructions under each
   static predictor, assuming a fixed penalty per miss.

   Run with:  dune exec examples/main.exe pipeline_cost [penalty] *)

module M = Predict.Metrics

let run args =
  let penalty =
    match args with p :: _ -> Usage.int_arg "PENALTY" p | [] -> 10
  in
  let order = Predict.Combined.paper_order in
  Printf.printf
    "estimated branch-miss cycles per 1000 instructions (penalty = %d)\n\n"
    penalty;
  Printf.printf "%-10s %10s %10s %10s %10s\n" "workload" "perfect" "heuristic"
    "loop+rand" "BTFN";
  let totals = Array.make 4 0. in
  let n = ref 0 in
  List.iter
    (fun wl ->
      let r = Experiments.Bench_run.load wl in
      let branches = Array.to_list r.db.branches in
      let instrs = r.profile.stats.instr_count in
      let cost rate =
        let execs = float_of_int (M.total_exec branches) in
        1000. *. rate *. execs *. float_of_int penalty /. float_of_int instrs
      in
      let rates =
        [|
          M.perfect_rate branches;
          M.miss_rate (Predict.Combined.predict order) branches;
          M.miss_rate Predict.Combined.loop_rand_predict branches;
          M.miss_rate (fun b -> b.Predict.Database.backward) branches;
        |]
      in
      incr n;
      Array.iteri (fun i rate -> totals.(i) <- totals.(i) +. cost rate) rates;
      Printf.printf "%-10s %10.1f %10.1f %10.1f %10.1f\n"
        wl.Workloads.Workload.name (cost rates.(0)) (cost rates.(1))
        (cost rates.(2)) (cost rates.(3)))
    Workloads.Registry.all;
  Printf.printf "%-10s" "MEAN";
  Array.iter
    (fun t -> Printf.printf " %10.1f" (t /. float_of_int !n))
    totals;
  print_newline ()
