module D = Predict.Database
module M = Predict.Metrics

let nl_of (r : Bench_run.t) = D.non_loop_branches r.db
let lp_of (r : Bench_run.t) = D.loop_branches r.db
let all_of (r : Bench_run.t) = Array.to_list r.db.branches

let lang_groups () =
  let rs = Bench_run.load_all () in
  List.partition (fun (r : Bench_run.t) -> r.wl.lang = Workloads.Workload.C) rs

let pct_non_loop r =
  M.ratio (M.total_exec (nl_of r)) (M.total_exec (all_of r))

(* The layout of Tables 2, 3, 5 and 6: the integer group's rows, a
   [--] row, the float group's rows, then MEAN and Std.Dev over every
   workload.  Each group is sorted by non-loop share, descending, as
   in Table 2; [data share r] is a workload's figures, formed once for
   its [row] and for the [summary] rows. *)
let grouped ppf ~header ~data ~row ~summary =
  let ints, floats = lang_groups () in
  let rows group =
    List.map (fun r -> (pct_non_loop r, r)) group
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map (fun (share, r) -> data share r)
  in
  let irows = rows ints and frows = rows floats in
  let all = irows @ frows in
  Texttab.render ppf ~header
    (List.map row irows
    @ [ [ "--" ] ]
    @ List.map row frows
    @ [ summary "MEAN" Stats.mean all; summary "Std.Dev" Stats.stddev all ])

(* the tally of a predictor that covers every branch *)
let total p = M.tally (fun b -> Some (p b))

(* A tally's C/D entry, and [stat] of the Cs over the Ds of many *)
let cd t = Texttab.ratio (M.miss t) (M.perfect t)

let cd_stat stat ts =
  Texttab.ratio (stat (List.map M.miss ts)) (stat (List.map M.perfect ts))

(* a partial predictor's cell is shown when it covers 1% or more (a
   [nan] coverage is not) *)
let shown t = M.coverage t >= 0.01

let covered_cells t =
  if shown t then [ Texttab.pct (M.coverage t); cd t ] else [ ""; "" ]

(* the columns of a table given as rows *)
let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let table1 ppf =
  Format.fprintf ppf "Table 1: benchmarks, sorted by code size within group@.";
  Format.fprintf ppf "(SPEC89 members marked *; sizes in IR instructions)@.@.";
  let row (r : Bench_run.t) =
    [
      (r.wl.name ^ if r.wl.spec then " *" else "");
      r.wl.description;
      Format.asprintf "%a" Workloads.Workload.pp_lang r.wl.lang;
      string_of_int (Mips.Program.code_size r.prog);
      string_of_int (Mips.Program.static_branch_count r.prog);
      string_of_int (List.length r.wl.datasets);
    ]
  in
  let ints, floats = lang_groups () in
  let by_size rs =
    List.sort
      (fun (a : Bench_run.t) b ->
        compare (Mips.Program.code_size b.prog) (Mips.Program.code_size a.prog))
      rs
  in
  Texttab.render ppf
    ~header:[ "Program"; "Description"; "Lng"; "Insns"; "Branches"; "Datasets" ]
    (List.map row (by_size ints @ by_size floats))

(* ---------------- Table 2 ---------------- *)

(* loop predictor on loop branches; target and random on non-loop *)
type t2row = {
  loop : M.tally;
  tgt : M.tally;
  rnd : M.tally;
  big_n : int;
  big_share : float;
}

let t2data (r : Bench_run.t) =
  let nl = nl_of r in
  let big, big_share = M.big_branches ~threshold:0.05 nl in
  {
    loop = total (fun b -> b.D.loop_pred) (lp_of r);
    tgt = total (fun _ -> true) nl;
    rnd = total (fun b -> b.D.rand_pred) nl;
    big_n = List.length big;
    big_share;
  }

let table2 ppf =
  Format.fprintf ppf
    "Table 2: dynamic breakdown of loop vs non-loop branches@.";
  Format.fprintf ppf
    "(Prd/Prf = loop predictor miss %% / perfect miss %%; %%All = share of@.";
  Format.fprintf ppf
    " dynamic branches that are non-loop; Tgt/Rnd = target/random miss)@.@.";
  let row (name, share, d) =
    [
      name;
      cd d.loop;
      Texttab.pct share;
      cd d.tgt;
      cd d.rnd;
      string_of_int d.big_n;
      Texttab.pct d.big_share;
    ]
  in
  let summary name stat all =
    let over f = cd_stat stat (List.map (fun (_, _, d) -> f d) all) in
    [
      name;
      over (fun d -> d.loop);
      Texttab.pct (stat (List.map (fun (_, share, _) -> share) all));
      over (fun d -> d.tgt);
      over (fun d -> d.rnd);
    ]
  in
  grouped ppf
    ~header:
      [ "Program"; "Loop Prd/Prf"; "%All"; "Tgt/Prf"; "Rnd/Prf"; "Big"; "Big%" ]
    ~data:(fun share (r : Bench_run.t) -> (r.wl.name, share, t2data r))
    ~row ~summary

(* ---------------- Table 3 ---------------- *)

let table3 ppf =
  Format.fprintf ppf "Table 3: each heuristic applied in isolation@.";
  Format.fprintf ppf
    "(coverage %% of dynamic non-loop branches, then miss/perfect on the@.";
  Format.fprintf ppf " covered branches; blank when coverage < 1%%)@.@.";
  let heuristics = Predict.Heuristic.all in
  let data share (r : Bench_run.t) =
    let nl = nl_of r in
    let tally h = M.tally (fun b -> b.D.heur.(Predict.Heuristic.to_int h)) nl in
    (r.wl.name, share, List.map tally heuristics)
  in
  let row (name, share, ts) =
    name :: Texttab.pct share :: List.concat_map covered_cells ts
  in
  (* over the shown cells; the coverage mean is of the printed
     percentages *)
  let summary name stat all =
    let printed t = float_of_string (Texttab.pct (M.coverage t)) /. 100. in
    name :: ""
    :: List.concat_map
         (fun column ->
           let ts = List.filter shown column in
           [
             (if ts = [] then "" else Texttab.pct (stat (List.map printed ts)));
             cd_stat stat ts;
           ])
         (transpose (List.map (fun (_, _, ts) -> ts) all))
  in
  grouped ppf
    ~header:
      ("Program" :: "NL"
      :: List.concat_map
           (fun h -> [ Predict.Heuristic.name h; "miss/prf" ])
           heuristics)
    ~data ~row ~summary

(* ---------------- Table 5 ---------------- *)

let table5 ppf =
  let order = Predict.Combined.paper_order in
  Format.fprintf ppf
    "Table 5: heuristics under the prioritised order %s@."
    (String.concat " -> " (List.map Predict.Heuristic.name order));
  Format.fprintf ppf
    "(per heuristic: %% of dynamic non-loop branches it predicts, and@.";
  Format.fprintf ppf " miss/perfect on that slice; Default = random)@.@.";
  let sources =
    List.map (fun h -> Predict.Combined.By h) order @ [ Predict.Combined.Default ]
  in
  let source_name = function
    | Predict.Combined.By h -> Predict.Heuristic.name h
    | Predict.Combined.Default -> "Default"
  in
  (* a source's slice: the branches it predicts under the order *)
  let slice src b =
    let dir, s = Predict.Combined.predict_non_loop order b in
    if s = src then Some dir else None
  in
  let data _ (r : Bench_run.t) =
    let nl = nl_of r in
    (r.wl.name, List.map (fun src -> M.tally (slice src) nl) sources)
  in
  let row (name, ts) = name :: List.concat_map covered_cells ts in
  let summary name stat all =
    name
    :: List.concat_map
         (fun column ->
           match List.filter shown column with
           | [] -> [ ""; "" ]
           | ts ->
             [ Texttab.pct (stat (List.map M.coverage ts)); cd_stat stat ts ])
         (transpose (List.map snd all))
  in
  grouped ppf
    ~header:
      ("Program"
      :: List.concat_map (fun s -> [ source_name s; "miss/prf" ]) sources)
    ~data ~row ~summary

(* ---------------- Table 6 ---------------- *)

(* the combined predictor on the non-loop branches a heuristic covers,
   on all non-loop branches (+Default) and on all branches, and
   Loop+Rand on all branches *)
type t6row = {
  heur : M.tally;
  dflt : M.tally;
  all_br : M.tally;
  loop_rand : M.tally;
}

let t6data (r : Bench_run.t) =
  let module C = Predict.Combined in
  let order = C.paper_order in
  let nl = nl_of r and all = all_of r in
  let covered b =
    match C.predict_non_loop order b with
    | _, C.Default -> None
    | dir, C.By _ -> Some dir
  in
  {
    heur = M.tally covered nl;
    dflt = total (fun b -> fst (C.predict_non_loop order b)) nl;
    all_br = total (C.predict order) all;
    loop_rand = total C.loop_rand_predict all;
  }

let table6 ppf =
  Format.fprintf ppf "Table 6: final results@.";
  Format.fprintf ppf
    "(Heuristics: covered non-loop branches; +Default adds uncovered;@.";
  Format.fprintf ppf
    " All adds loop branches; Loop+Rand = loop predictor + random)@.@.";
  let row (name, d) =
    [
      name;
      Texttab.pct (M.coverage d.heur);
      cd d.heur;
      cd d.dflt;
      cd d.all_br;
      cd d.loop_rand;
    ]
  in
  let summary name stat all =
    let ds = List.map snd all in
    let over f = cd_stat stat (List.map f ds) in
    [
      name;
      Texttab.pct (stat (List.map (fun d -> M.coverage d.heur) ds));
      over (fun d -> d.heur);
      over (fun d -> d.dflt);
      over (fun d -> d.all_br);
      over (fun d -> d.loop_rand);
    ]
  in
  grouped ppf
    ~header:[ "Program"; "Cov%"; "Heuristics"; "+Default"; "All"; "Loop+Rand" ]
    ~data:(fun _ (r : Bench_run.t) -> (r.wl.name, t6data r))
    ~row ~summary

(* ---------------- Table 7 ---------------- *)

let table7 ppf =
  Format.fprintf ppf "Table 7: summary over benchmark sets@.";
  Format.fprintf ppf
    "((most) excludes eqntott, grep, tomcatv, matrix300 — the programs@.";
  Format.fprintf ppf
    " dominated by a handful of branches; entries are mean +- std)@.@.";
  let excluded = [ "eqntott"; "grep"; "tomcatv"; "matrix300" ] in
  let fmt_ms xs =
    let m, s = Stats.mean_std xs in
    Printf.sprintf "%s +- %s" (Texttab.pct m) (Texttab.pct s)
  in
  (* each workload's Table 6 and Table 2 rows, computed once *)
  let all =
    List.map
      (fun (r : Bench_run.t) ->
        (not (List.mem r.wl.name excluded), t6data r, t2data r))
      (Bench_run.load_all ())
  in
  let most = List.filter (fun (in_most, _, _) -> in_most) all in
  let cells get = [ fmt_ms (List.map get all); fmt_ms (List.map get most) ] in
  let row name get = name :: cells (fun (_, d, _) -> get d) in
  let t2row name get = name :: cells (fun (_, _, d) -> get d) in
  Texttab.render ppf
    ~header:[ "Metric"; "(all)"; "(most)" ]
    [
      row "Heuristics (covered non-loop)" (fun d -> M.miss d.heur);
      row "+Default (all non-loop)" (fun d -> M.miss d.dflt);
      row "All branches" (fun d -> M.miss d.all_br);
      row "Loop+Rand (all branches)" (fun d -> M.miss d.loop_rand);
      t2row "Tgt (non-loop)" (fun d -> M.miss d.tgt);
      t2row "Rnd (non-loop)" (fun d -> M.miss d.rnd);
      t2row "Perfect (non-loop)" (fun d -> M.perfect d.tgt);
    ]

(* ---------------- loop shapes (Section 3 support) ---------------- *)

let loop_shapes ppf =
  Format.fprintf ppf
    "Loop-branch shapes: share of dynamic loop-branch executions whose@.";
  Format.fprintf ppf
    "branch is NOT a backward branch (why natural loops beat BTFN)@.@.";
  let rows =
    List.map
      (fun (r : Bench_run.t) ->
        let lp = lp_of r in
        let fwd = List.filter (fun b -> not b.D.backward) lp in
        [
          r.wl.name;
          Texttab.pct (M.ratio (M.total_exec fwd) (M.total_exec lp));
        ])
      (Bench_run.load_all ())
  in
  Texttab.render ppf ~header:[ "Program"; "%fwd loop branches" ] rows
