type divergence = { oracle : string; detail : string }

let pp_divergence ppf d = Format.fprintf ppf "[%s] %s" d.oracle d.detail

let div oracle fmt = Printf.ksprintf (fun detail -> { oracle; detail }) fmt

(* Generated programs read no input.  Past the end of a dataset both
   executors return -1 and count no read, so on an empty dataset a
   stray read() would go unseen; this one holds one int and one float,
   which the first read of each kind consumes and counts. *)
let dataset = Sim.Dataset.make ~name:"fuzz" ~floats:[| 0.5 |] [| 1 |]

let max_steps = 50_000_000

let stats_mismatch oracle which (i : Minic.Interp.stats)
    (m : Sim.Machine.stats) =
  if
    i.checksum <> m.checksum
    || i.ints_read <> m.ints_read
    || i.floats_read <> m.floats_read
  then
    [
      div oracle
        "%s: interp {checksum=%d ints=%d floats=%d} vs machine \
         {checksum=%d ints=%d floats=%d}"
        which i.checksum i.ints_read i.floats_read m.checksum m.ints_read
        m.floats_read;
    ]
  else []

let check_input (i : Minic.Interp.stats) (m : Sim.Machine.stats) =
  if i.ints_read + i.floats_read + m.ints_read + m.floats_read = 0 then []
  else
    [
      div "input"
        "the program reads input: interp {ints=%d floats=%d}, machine \
         {ints=%d floats=%d}"
        i.ints_read i.floats_read m.ints_read m.floats_read;
    ]

let check_flow prog (profile : Sim.Profile.t) =
  match
    Cfg.Flow.check_program prog ~taken:profile.taken ~fall:profile.fall
  with
  | [] -> []
  | msgs -> List.map (fun m -> div "flow" "%s" m) msgs

(* re-derive every database field from first principles and compare *)
let check_predict prog analyses (profile : Sim.Profile.t) =
  let module D = Predict.Database in
  let module C = Predict.Combined in
  let db = D.make prog analyses ~taken:profile.taken ~fall:profile.fall in
  let errs = ref [] in
  let err e = errs := e :: !errs in
  Array.iter
    (fun (b : D.branch) ->
      let where =
        Printf.sprintf "%s pc %d" prog.Mips.Program.procs.(b.proc).name b.pc
      in
      let a = analyses.(b.proc) in
      let cls =
        Predict.Classify.classify a ~block:b.block ~taken:b.taken_dst
          ~fall:b.fall_dst
      in
      if cls <> b.cls then
        err
          (div "predict" "%s: stored class %s but re-derived %s" where
             (Format.asprintf "%a" Predict.Classify.pp_cls b.cls)
             (Format.asprintf "%a" Predict.Classify.pp_cls cls));
      let ext =
        List.map
          (fun h ->
            Predict.Heuristic_ext.apply h a ~block:b.block ~taken:b.taken_dst
              ~fall:b.fall_dst)
          Predict.Heuristic_ext.all
      in
      if Array.to_list b.ext <> ext then
        err (div "predict" "%s: ext disagrees with Heuristic_ext.apply" where);
      if b.rand_pred <> D.rand_bit ~seed:D.seed ~proc:b.proc ~pc:b.pc then
        err (div "predict" "%s: rand_pred disagrees with rand_bit" where);
      (if b.cls = Predict.Classify.Loop_branch then begin
         let lp =
           Predict.Classify.loop_predict a ~block:b.block ~taken:b.taken_dst
             ~fall:b.fall_dst
         in
         if lp <> b.loop_pred then
           err (div "predict" "%s: loop_pred disagrees with loop_predict" where)
       end);
      (* combined predictor must honour the loop/non-loop partition *)
      let full = C.predict C.paper_order b in
      if b.cls = Predict.Classify.Loop_branch then begin
        if full <> b.loop_pred then
          err
            (div "predict" "%s: combined predictor ignored the loop predictor"
               where)
      end
      else begin
        let dir, src = C.predict_non_loop C.paper_order b in
        if full <> dir then
          err (div "predict" "%s: predict <> predict_non_loop" where);
        match src with
        | C.Default ->
          if
            List.exists
              (fun h -> b.heur.(Predict.Heuristic.to_int h) <> None)
              C.paper_order
          then
            err
              (div "predict" "%s: Default fired but a heuristic applies" where)
          else if dir <> b.rand_pred then
            err (div "predict" "%s: Default direction <> rand_pred" where)
        | C.By h -> (
          match b.heur.(Predict.Heuristic.to_int h) with
          | None -> err (div "predict" "%s: By %s but heuristic is None" where
                           (Predict.Heuristic.name h))
          | Some d ->
            if d <> dir then
              err
                (div "predict" "%s: By %s direction mismatch" where
                   (Predict.Heuristic.name h));
            (* every heuristic ranked earlier must not apply *)
            let rec earlier = function
              | [] -> ()
              | h' :: _ when h' = h -> ()
              | h' :: rest ->
                if b.heur.(Predict.Heuristic.to_int h') <> None then
                  err
                    (div "predict" "%s: %s fired but earlier %s applies" where
                       (Predict.Heuristic.name h)
                       (Predict.Heuristic.name h'));
                earlier rest
            in
            earlier C.paper_order)
      end)
    db.branches;
  (List.rev !errs, db)

(* the 5040-order miss matrix, built from first-fire tables, must
   equal the combined predictor run branch by branch under every order;
   the orders are listed on first use, not when a program linking the
   fuzzer starts *)
let orders =
  lazy
    (Array.init (Predict.Ordering.factorial Predict.Heuristic.count)
       Predict.Ordering.order_of_index)

let check_miss_matrix (db : Predict.Database.t) =
  let module D = Predict.Database in
  let orders = Lazy.force orders in
  let m = Predict.Ordering.miss_matrix [| db |] in
  let nl = D.non_loop_branches db in
  let exec = List.fold_left (fun acc b -> acc + D.exec b) 0 nl in
  let rec first_diff o =
    if o = Array.length orders then []
    else begin
      let order = orders.(o) in
      let miss =
        List.fold_left
          (fun acc b ->
            acc + D.misses b (fst (Predict.Combined.predict_non_loop order b)))
          0 nl
      in
      let direct =
        if exec = 0 then Float.nan else float_of_int miss /. float_of_int exec
      in
      if Int64.bits_of_float direct <> Int64.bits_of_float m.(0).(o) then
        [
          div "miss-matrix" "order %d: direct %h, first-fire tables %h" o
            direct m.(0).(o);
        ]
      else first_diff (o + 1)
    end
  in
  first_diff 0

(* The slow twin of [Sim.Trace_run]: the break accounting done
   directly in the simulator's branch and jump-table observers while
   the program executes, as the trace runner did before it recorded
   and replayed. *)
let trace_reference prog input predictors =
  let module T = Sim.Trace_run in
  let accs =
    List.map
      (fun (lbl, bits) ->
        (lbl, bits, Array.make T.nbuckets 0, Array.make T.nbuckets 0,
         ref 0, ref 0, ref 0))
      predictors
  in
  (* a sequence runs from (not including) the previous break up to and
     including this one *)
  let break (_, _, counts, sums, last, nbreaks, _) pos =
    let len = pos - !last in
    last := pos;
    incr nbreaks;
    let b = min (len / T.bucket_width) (T.nbuckets - 1) in
    counts.(b) <- counts.(b) + 1;
    sums.(b) <- sums.(b) + len
  in
  let cond_execs = ref 0 in
  let on_branch (m : Sim.Machine.t) ~taken =
    incr cond_execs;
    List.iter
      (fun ((_, bits, _, _, _, _, misses) as a) ->
        if bits.(m.proc).(m.pc) <> taken then begin
          incr misses;
          break a m.instrs
        end)
      accs
  in
  let on_indirect (m : Sim.Machine.t) =
    List.iter (fun a -> break a m.instrs) accs
  in
  let stats = Sim.Machine.run ~on_branch ~on_indirect prog input in
  List.map
    (fun ((label, _, counts, sums, last, nbreaks, misses) as a) ->
      if stats.instr_count > !last then break a stats.instr_count;
      {
        T.label;
        seq_counts = counts;
        seq_sums = sums;
        breaks = !nbreaks;
        cond_misses = !misses;
        cond_execs = !cond_execs;
        instr_count = stats.instr_count;
      })
    accs

(* Two predictor sets: never and always taken, under which every
   conditional branch is a break for exactly one; and three coins,
   which split each branch's executions between hits and misses. *)
let predictor_sets prog =
  let bits f =
    Array.map
      (fun (p : Mips.Program.proc) ->
        Array.init (Array.length p.body) (fun pc -> f p.index pc))
      prog.Mips.Program.procs
  in
  let coin seed =
    ( Printf.sprintf "coin%d" seed,
      bits (fun proc pc -> Predict.Database.rand_bit ~seed ~proc ~pc) )
  in
  [
    [ ("taken", bits (fun _ _ -> true)); ("fall", bits (fun _ _ -> false)) ];
    [ coin 1; coin 2; coin 3 ];
  ]

let check_trace_replay prog input =
  let compare (r : Sim.Trace_run.result) (d : Sim.Trace_run.result) =
    if r = d then []
    else
      [
        div "trace-replay"
          "%s: replay {breaks=%d misses=%d execs=%d instrs=%d} vs direct \
           {breaks=%d misses=%d execs=%d instrs=%d}%s"
          d.label r.breaks r.cond_misses r.cond_execs r.instr_count d.breaks
          d.cond_misses d.cond_execs d.instr_count
          (if r.seq_counts <> d.seq_counts || r.seq_sums <> d.seq_sums then
             ", buckets differ"
           else "");
      ]
  in
  List.concat_map
    (fun predictors ->
      let direct = trace_reference prog input predictors in
      match Sim.Trace_run.run prog input predictors with
      | exception Invalid_argument msg -> [ div "trace-replay" "%s" msg ]
      | replayed -> List.concat (List.map2 compare replayed direct))
    (predictor_sets prog)

let check_source src =
  match Minic.Frontend.compile src with
  | exception Minic.Frontend.Error msg ->
    [ div "compile" "frontend rejected program: %s" msg ]
  | prog -> (
    let unopt =
      try Ok (Minic.Frontend.compile ~optimize:false src)
      with Minic.Frontend.Error msg -> Error msg
    in
    match Minic.Interp.run ~max_steps src dataset with
    | exception Minic.Interp.Fault msg ->
      [ div "interp" "interpreter fault: %s" msg ]
    | istats -> (
      match Sim.Profile.run prog dataset with
      | exception (Sim.Machine.Fault msg | Sim.Machine.Out_of_fuel msg) ->
        [ div "machine" "simulator fault: %s" msg ]
      | profile ->
        let d0 = check_input istats profile.stats in
        let d1 = stats_mismatch "interp-vs-machine" "opt" istats profile.stats in
        let d2 =
          match unopt with
          | Error msg -> [ div "compile" "unoptimised compile failed: %s" msg ]
          | Ok uprog -> (
            match Sim.Machine.run uprog dataset with
            | exception (Sim.Machine.Fault msg | Sim.Machine.Out_of_fuel msg) ->
              [ div "opt-vs-unopt" "unoptimised program faulted: %s" msg ]
            | ustats -> stats_mismatch "opt-vs-unopt" "unopt" istats ustats)
        in
        let d3 = check_flow prog profile in
        let analyses = Cfg.Analysis.of_program prog in
        let d4, db = check_predict prog analyses profile in
        let d5 = check_miss_matrix db in
        let d6 = check_trace_replay prog dataset in
        d0 @ d1 @ d2 @ d3 @ d4 @ d5 @ d6))
