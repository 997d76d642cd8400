(* Estimated profiles from static branch prediction (the use case of
   the paper's introduction and of Wall's PLDI'91 study): propagate
   branch probabilities derived from the Ball-Larus predictor through
   each CFG to estimate basic-block frequencies, then compare the
   estimated ranking of hot blocks against the measured profile.

   Run with:  dune exec examples/main.exe hot_paths [workload] *)

module D = Predict.Database

(* Estimated block frequencies for one procedure: solve
   freq(entry) = 1, freq(b) = sum over preds of freq(p) * prob(p->b)
   iteratively, damping cycles (a simple Wall-style estimator). *)
let estimate (a : Cfg.Analysis.t) prob_taken =
  let g = a.graph in
  let n = g.nblocks in
  let freq = Array.make n 0. in
  freq.(0) <- 1.;
  (* edge probability: conditional branches split per the predictor;
     other edges pass everything; loop backedge flow is damped so the
     iteration converges (equivalent to assuming loops iterate ~10x) *)
  let edge_prob (e : Cfg.Graph.edge) =
    match e.kind with
    | Cfg.Graph.Taken -> prob_taken e.src
    | Cfg.Graph.Fallthru -> 1. -. prob_taken e.src
    | Cfg.Graph.Uncond -> 1.
    | Cfg.Graph.Switch _ -> begin
      match g.succs.(e.src) with
      | [] -> 1.
      | es -> 1. /. float_of_int (List.length es)
    end
  in
  let damp = 0.9 in
  for _pass = 1 to 40 do
    for b = 1 to n - 1 do
      let inflow =
        List.fold_left
          (fun acc (e : Cfg.Graph.edge) ->
            let p = edge_prob e in
            let p =
              if Cfg.Loops.is_backedge a.loops ~src:e.src ~dst:e.dst then
                p *. damp
              else p
            in
            acc +. (freq.(e.src) *. p))
          0. g.preds.(b)
      in
      freq.(b) <- inflow
    done
  done;
  freq

let run args =
  let wl = Usage.workload_arg (match args with n :: _ -> n | [] -> "gcc") in
  let r = Experiments.Bench_run.load wl in
  let order = Predict.Combined.paper_order in

  (* per-branch taken probability from each heuristic's measured hit
     rate (the Wu-Larus refinement of the paper's directions) *)
  let branch_prob = Hashtbl.create 256 in
  Array.iter
    (fun (br : D.branch) ->
      Hashtbl.replace branch_prob (br.proc, br.block)
        (Predict.Probability.taken_probability order br))
    r.db.branches;

  (* measured block frequencies from the edge profile *)
  let measured = Hashtbl.create 1024 in
  let estimated = Hashtbl.create 1024 in
  Array.iteri
    (fun pidx (a : Cfg.Analysis.t) ->
      let prob_taken b =
        match Hashtbl.find_opt branch_prob (pidx, b) with
        | Some p -> p
        | None -> 0.5
      in
      let est = estimate a prob_taken in
      for b = 0 to a.graph.nblocks - 1 do
        Hashtbl.replace estimated (pidx, b) est.(b)
      done;
      (* measured: count executions of each block's last instruction
         via branch counts where available; approximate others by
         summing successor-edge counts is overkill here — we rank only
         blocks that end in a conditional branch, where the profile is
         exact. *)
      for b = 0 to a.graph.nblocks - 1 do
        match Cfg.Graph.branch_edges a.graph b with
        | Some _ ->
          let pc = a.graph.last.(b) in
          Hashtbl.replace measured (pidx, b)
            (float_of_int
               (r.profile.taken.(pidx).(pc) + r.profile.fall.(pidx).(pc)))
        | None -> ()
      done)
    (Cfg.Analysis.of_program r.prog);

  (* rank branch-ending blocks by both metrics and report overlap *)
  let ranked tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map fst
  in
  let top n l = List.filteri (fun i _ -> i < n) l in
  let meas_rank = ranked measured in
  let est_rank =
    ranked (Hashtbl.copy estimated)
    |> List.filter (fun k -> Hashtbl.mem measured k)
  in
  let k = 20 in
  let mtop = top k meas_rank and etop = top k est_rank in
  let overlap = List.length (List.filter (fun b -> List.mem b etop) mtop) in
  Printf.printf
    "workload %s: top-%d hot branch blocks, estimated vs measured\n" wl.name k;
  Printf.printf "overlap: %d of %d\n\n" overlap k;
  Printf.printf "top measured blocks (proc, block) with estimated rank:\n";
  List.iteri
    (fun i key ->
      let est_pos =
        match List.find_index (fun x -> x = key) est_rank with
        | Some p -> string_of_int p
        | None -> "-"
      in
      let pidx, b = key in
      Printf.printf "  #%-2d %s block %d   est rank %s\n" i
        r.prog.procs.(pidx).name b est_pos)
    mtop
