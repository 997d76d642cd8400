module D = Predict.Database
module M = Predict.Metrics

let btfn ppf =
  Format.fprintf ppf
    "Ablation: natural-loop classification vs backward-taken/forward-@.";
  Format.fprintf ppf "not-taken (BTFN), all branches@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let branches = Array.to_list r.db.branches in
        let btfn_pred (b : D.branch) = b.D.backward in
        [
          r.wl.name;
          Texttab.pct (M.miss_rate btfn_pred branches);
          Texttab.pct (M.miss_rate (Predict.Combined.predict order) branches);
          Texttab.pct (M.perfect_rate branches);
        ])
      (Bench_run.load_all ())
  in
  let col i =
    Stats.mean
      (List.map
         (fun row ->
           match List.nth_opt row i with
           | Some s when s <> "-" -> float_of_string s /. 100.
           | _ -> Float.nan)
         rows)
  in
  Texttab.render ppf
    ~header:[ "Program"; "BTFN"; "Loop+Heuristics"; "Perfect" ]
    (rows
    @ [
        [
          "MEAN";
          Texttab.pct (col 1);
          Texttab.pct (col 2);
          Texttab.pct (col 3);
        ];
      ])

let pairwise ppf =
  Format.fprintf ppf
    "Ablation: ordering strategies (avg non-loop miss, matrix300 excl.)@.@.";
  let avg = Orderings.order_averages () in
  let eval_order_avg order = avg.(Predict.Ordering.index_of_order order) in
  let dbs =
    Array.of_list
      (List.map (fun (r : Bench_run.t) -> r.db) (Orderings.benchmarks ()))
  in
  let pw = Predict.Ordering.pairwise_order dbs in
  let best_idx, best_v = Predict.Ordering.best_order avg in
  let name o = String.concat " " (List.map Predict.Heuristic.name o) in
  Texttab.render ppf
    ~header:[ "strategy"; "avg miss %"; "order" ]
    [
      [
        "paper order";
        Texttab.pct1 (eval_order_avg Predict.Combined.paper_order);
        name Predict.Combined.paper_order;
      ];
      [ "pairwise (Copeland)"; Texttab.pct1 (eval_order_avg pw); name pw ];
      [
        "global best";
        Texttab.pct1 best_v;
        name (Predict.Ordering.order_of_index best_idx);
      ];
      [
        "table-3 order";
        Texttab.pct1 (eval_order_avg Predict.Heuristic.all);
        name Predict.Heuristic.all;
      ];
    ]

let seeds ppf =
  Format.fprintf ppf
    "Ablation: Default-coin seed sensitivity (avg all-branch miss)@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.map
      (fun seed ->
        let misses =
          List.map
            (fun (r : Bench_run.t) ->
              (* [~seed] recomputes the Default coin under this seed
                 without rebuilding the database. *)
              M.miss_rate
                (Predict.Combined.predict ~seed order)
                (Array.to_list r.db.branches))
            (Bench_run.load_all ())
        in
        let m, s = Stats.mean_std misses in
        [ string_of_int seed; Texttab.pct1 m; Texttab.pct1 s ])
      [ 1; 2; 3; 42; 1337 ]
  in
  Texttab.render ppf ~header:[ "seed"; "mean miss %"; "std" ] rows

let opcode_fusion ppf =
  Format.fprintf ppf
    "Ablation: Opcode-heuristic composition — coverage from integer@.";
  Format.fprintf ppf
    "zero-compare branches vs FP-equality branches (dynamic, non-loop)@.@.";
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let nl = D.non_loop_branches r.db in
        let total = M.total_exec nl in
        let share p = M.ratio (M.total_exec (List.filter p nl)) total in
        let is_bz (b : D.branch) =
          match r.prog.procs.(b.proc).body.(b.pc) with
          | Mips.Insn.Bz _ -> true
          | _ -> false
        in
        let is_fp (b : D.branch) =
          match r.prog.procs.(b.proc).body.(b.pc) with
          | Mips.Insn.Bfp _ -> true
          | _ -> false
        in
        let opc (b : D.branch) =
          b.D.heur.(Predict.Heuristic.to_int Predict.Heuristic.Opcode) <> None
        in
        [
          r.wl.name;
          Texttab.pct (share (fun b -> opc b && is_bz b));
          Texttab.pct (share (fun b -> opc b && is_fp b));
          Texttab.pct (share opc);
        ])
      (Bench_run.load_all ())
  in
  Texttab.render ppf
    ~header:[ "Program"; "bltz-family"; "FP equality"; "total Opcode" ]
    rows

let profile_based ppf =
  Format.fprintf ppf
    "Ablation: profile-based vs program-based prediction (all branches,@.";
  Format.fprintf ppf
    "evaluated on the primary dataset; cross-profile = perfect predictor@.";
  Format.fprintf ppf "trained on a different dataset)@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.filter_map
      (fun (r : Bench_run.t) ->
        match r.wl.datasets with
        | _ :: alt :: _ ->
          (* [r.db] and the [alt] database are [with_counts] of one
             static database, so branch [i] is the same branch in
             each: predict it in its majority direction on [alt] *)
          let cross = ref 0 in
          Array.iter2
            (fun b trained ->
              let dir = Predict.Combined.perfect_predict trained in
              cross := !cross + D.misses b dir)
            r.db.branches (Bench_run.db_for r alt).branches;
          let t =
            M.tally
              (fun b -> Some (Predict.Combined.predict order b))
              (Array.to_list r.db.branches)
          in
          Some (r.wl.name, M.ratio !cross t.exec, M.miss t, M.perfect t)
        | _ -> None)
      (Bench_run.load_all ())
  in
  let render (n, c, h, p) =
    [ n; Texttab.pct1 c; Texttab.pct1 h; Texttab.pct1 p ]
  in
  let mean f = Stats.mean (List.map f rows) in
  Texttab.render ppf
    ~header:[ "Program"; "cross-profile"; "heuristics"; "self-profile" ]
    (List.map render rows
    @ [
        [
          "MEAN";
          Texttab.pct1 (mean (fun (_, c, _, _) -> c));
          Texttab.pct1 (mean (fun (_, _, h, _) -> h));
          Texttab.pct1 (mean (fun (_, _, _, p) -> p));
        ];
      ])

let layout ppf =
  Format.fprintf ppf
    "Ablation: prediction-guided code layout — dynamic taken rate of@.";
  Format.fprintf ppf
    "conditional branches before/after trace-based re-linearisation@.@.";
  let order = Predict.Combined.paper_order in
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let predict =
          Predict.Layout.predictor r.db (Predict.Combined.predict order)
        in
        (* both counts follow from the edge profile: layout only keeps
           or inverts each conditional branch *)
        let before =
          Array.fold_left (Array.fold_left ( + )) 0 r.profile.taken
        in
        let after = Predict.Layout.taken_after r.prog ~predict r.profile in
        let execs = Sim.Profile.branch_execs r.profile in
        let rate t = M.ratio t execs in
        (r.wl.name, rate before, rate after))
      (Bench_run.load_all ())
  in
  let mean f = Stats.mean (List.map f rows) in
  Texttab.render ppf
    ~header:[ "Program"; "taken before"; "taken after" ]
    (List.map
       (fun (n, b, a) -> [ n; Texttab.pct b; Texttab.pct a ])
       rows
    @ [
        [
          "MEAN";
          Texttab.pct (mean (fun (_, b, _) -> b));
          Texttab.pct (mean (fun (_, _, a) -> a));
        ];
      ])

let extended ppf =
  Format.fprintf ppf
    "Ablation: Section 4.4 — unsuccessful heuristics (Distance, Postdom,@.";
  Format.fprintf ppf
    "Dominated) and the deeper Guard generalisation, in isolation on@.";
  Format.fprintf ppf "dynamic non-loop branches (coverage %%, miss/perfect)@.@.";
  let heuristics = Predict.Heuristic_ext.all in
  let names = List.map Predict.Heuristic_ext.name heuristics @ [ "Guard" ] in
  let header =
    "Program" :: List.concat_map (fun n -> [ n; "miss/prf" ]) names
  in
  (* per workload, one tally per column: the extended heuristics, then
     the paper's Guard as the baseline *)
  let tallies =
    List.map
      (fun (r : Bench_run.t) ->
        let nl = D.non_loop_branches r.db in
        let guard (b : D.branch) =
          b.heur.(Predict.Heuristic.to_int Predict.Heuristic.Guard)
        in
        (r.wl.name, List.mapi (fun i _ -> M.tally (fun b -> b.D.ext.(i)) nl)
                      heuristics
                    @ [ M.tally guard nl ]))
      (Bench_run.load_all ())
  in
  Texttab.render ppf ~header
    (List.map
       (fun (name, ts) -> name :: List.concat_map Tables.covered_cells ts)
       tallies);
  (* aggregate miss rates over all covered branches, suite-wide *)
  Format.fprintf ppf "@.aggregate (dynamic, suite-wide) miss on covered:@.";
  List.iteri
    (fun i name ->
      let miss, total =
        List.fold_left
          (fun (m, e) (_, ts) ->
            let t = List.nth ts i in
            (m + t.M.cov_miss, e + t.M.cov_exec))
          (0, 0) tallies
      in
      Format.fprintf ppf "  %-10s %s%%@." name
        (Texttab.pct1 (M.ratio miss total)))
    names
