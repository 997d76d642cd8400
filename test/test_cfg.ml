(* Tests for CFG construction, dominators, postdominators, and
   natural-loop analysis — including the paper's Figure 1 graph and
   randomised cross-checks against naive definitions. *)

module I = Mips.Insn
module R = Mips.Reg

open Check

let t0 = R.t 0
let t1 = R.t 1

(* Build a one-instruction-per-block procedure: block i is a
   conditional branch to [targets.(i)] falling through to block i+1;
   a target of -1 means the block is a return. *)
let chain_proc targets =
  let items =
    Array.to_list
      (Array.mapi
         (fun i tgt ->
           [
             Mips.Asm.Lab (Printf.sprintf "B%d" i);
             Mips.Asm.Ins
               (if tgt < 0 then I.Ret
                else I.Beq (t0, t1, Printf.sprintf "B%d" tgt));
           ])
         targets)
    |> List.concat
  in
  (* terminate the chain *)
  let items = items @ [ Mips.Asm.Ins I.Ret ] in
  let prog = Mips.Program.make ~entry:"p" [ ("p", items) ] in
  prog.procs.(0)

(* The paper's Figure 1: A,B,C,D,E,F = blocks 0..5.
   Taken edges: A->F, B->D, C->F, D->B, E->B; fall-through to next. *)
let figure1 () = chain_proc [| 5; 3; 5; 1; 1; -1 |]

let a_ = 0
let b_ = 1
let c_ = 2
let d_ = 3
let e_ = 4
let f_ = 5

let test_build_blocks () =
  let g = Cfg.Graph.build (figure1 ()) in
  checki "blocks" 7 g.nblocks;
  (* 6 lettered blocks + trailing ret *)
  checki "entry" 0 (Cfg.Graph.entry g);
  checkb "A has taken+fall" true
    (match Cfg.Graph.branch_edges g a_ with
    | Some (t, f) -> t.dst = f_ && f.dst = b_
    | None -> false);
  checkb "F is return, no succs" true (g.succs.(f_) = [])

let test_edge_kinds () =
  let g = Cfg.Graph.build (figure1 ()) in
  let kinds b =
    List.map (fun (e : Cfg.Graph.edge) -> e.kind) g.succs.(b)
  in
  checkb "branch kinds" true (kinds a_ = [ Cfg.Graph.Taken; Cfg.Graph.Fallthru ])

let test_dominators_figure1 () =
  let p = figure1 () in
  let g = Cfg.Graph.build p in
  let dom = Cfg.Dom.of_graph g in
  checkb "A dom all" true
    (List.for_all (fun v -> Cfg.Dom.dominates dom a_ v) [ b_; c_; d_; e_; f_ ]);
  checkb "B dom C" true (Cfg.Dom.dominates dom b_ c_);
  checkb "B dom D" true (Cfg.Dom.dominates dom b_ d_);
  checkb "B dom E" true (Cfg.Dom.dominates dom b_ e_);
  checkb "B not dom F" false (Cfg.Dom.dominates dom b_ f_);
  checkb "C not dom D" false (Cfg.Dom.dominates dom c_ d_);
  checkb "D dom E" true (Cfg.Dom.dominates dom d_ e_);
  checkb "reflexive" true (Cfg.Dom.dominates dom c_ c_);
  checkb "idom of B is A" true (Cfg.Dom.idom dom b_ = Some a_);
  checkb "idom of D is B" true (Cfg.Dom.idom dom d_ = Some b_);
  checkb "root idom none" true (Cfg.Dom.idom dom a_ = None)

let test_postdominators_figure1 () =
  let g = Cfg.Graph.build (figure1 ()) in
  let pdom = Cfg.Dom.post_of_graph g in
  checkb "F pdom A" true (Cfg.Dom.dominates pdom f_ a_);
  checkb "F pdom C" true (Cfg.Dom.dominates pdom f_ c_);
  checkb "C not pdom B" false (Cfg.Dom.dominates pdom c_ b_);
  checkb "D not pdom C" false (Cfg.Dom.dominates pdom d_ c_);
  checkb "reflexive" true (Cfg.Dom.dominates pdom b_ b_)

let test_loops_figure1 () =
  let g = Cfg.Graph.build (figure1 ()) in
  let dom = Cfg.Dom.of_graph g in
  let loops = Cfg.Loops.of_graph g dom in
  checkb "D->B backedge" true (Cfg.Loops.is_backedge loops ~src:d_ ~dst:b_);
  checkb "E->B backedge" true (Cfg.Loops.is_backedge loops ~src:e_ ~dst:b_);
  checkb "A->B not backedge" false (Cfg.Loops.is_backedge loops ~src:a_ ~dst:b_);
  checkb "B loop head" true (Cfg.Loops.is_loop_head loops b_);
  checkb "A not loop head" false (Cfg.Loops.is_loop_head loops a_);
  checkb "loop = B,C,D,E" true
    (Cfg.Loops.loop_body loops ~head:b_ = [ b_; c_; d_; e_ ]);
  checkb "C->F exit" true (Cfg.Loops.is_exit_edge loops ~src:c_ ~dst:f_);
  checkb "E->F exit" true (Cfg.Loops.is_exit_edge loops ~src:e_ ~dst:f_);
  checkb "C->D not exit" false (Cfg.Loops.is_exit_edge loops ~src:c_ ~dst:d_);
  checkb "A->F not exit" false (Cfg.Loops.is_exit_edge loops ~src:a_ ~dst:f_);
  checki "depth of C" 1 (Cfg.Loops.loop_depth loops c_);
  checki "depth of A" 0 (Cfg.Loops.loop_depth loops a_)

let test_classification_figure1 () =
  let p = figure1 () in
  let a = Cfg.Analysis.of_proc p in
  let cls block taken fall = Predict.Classify.classify a ~block ~taken ~fall in
  checkb "A non-loop" true
    (cls a_ f_ b_ = Predict.Classify.Non_loop_branch);
  checkb "B non-loop" true
    (cls b_ d_ c_ = Predict.Classify.Non_loop_branch);
  checkb "C loop" true (cls c_ f_ d_ = Predict.Classify.Loop_branch);
  checkb "D loop" true (cls d_ b_ e_ = Predict.Classify.Loop_branch);
  checkb "E loop" true (cls e_ b_ f_ = Predict.Classify.Loop_branch);
  (* loop predictor: C predicts C->D (fall), D and E predict backedge *)
  checkb "C predicts fall" false
    (Predict.Classify.loop_predict a ~block:c_ ~taken:f_ ~fall:d_);
  checkb "D predicts taken" true
    (Predict.Classify.loop_predict a ~block:d_ ~taken:b_ ~fall:e_);
  checkb "E predicts taken" true
    (Predict.Classify.loop_predict a ~block:e_ ~taken:b_ ~fall:f_)

let test_preheader () =
  (* block 0 falls through into the loop head (an unconditional
     transfer), making it a preheader *)
  let items =
    [
      Mips.Asm.Ins (I.Li (t0, 0));
      Mips.Asm.Lab "head";
      Mips.Asm.Ins (I.Alu (I.Add, t0, t0, I.Imm 1));
      Mips.Asm.Ins (I.Beq (t0, t1, "head"));
      Mips.Asm.Ins I.Ret;
    ]
  in
  let prog = Mips.Program.make ~entry:"p" [ ("p", items) ] in
  let g = Cfg.Graph.build prog.procs.(0) in
  let dom = Cfg.Dom.of_graph g in
  let loops = Cfg.Loops.of_graph g dom in
  checkb "block 1 is head" true (Cfg.Loops.is_loop_head loops 1);
  checkb "block 0 is preheader" true (Cfg.Loops.is_preheader loops 0);
  checkb "head not preheader" false (Cfg.Loops.is_preheader loops 1)

let test_single_uncond_succ () =
  let g = Cfg.Graph.build (figure1 ()) in
  checkb "branch has no single succ" true
    (Cfg.Graph.single_uncond_succ g a_ = None);
  checkb "ret has no succ" true (Cfg.Graph.single_uncond_succ g f_ = None)

let test_instr_count () =
  let items =
    [
      Mips.Asm.Ins (I.Li (t0, 1));
      Mips.Asm.Ins (I.Li (t0, 2));
      Mips.Asm.Ins (I.Beq (t0, t1, "end"));
      Mips.Asm.Ins (I.Li (t0, 3));
      Mips.Asm.Lab "end";
      Mips.Asm.Ins I.Ret;
    ]
  in
  let prog = Mips.Program.make ~entry:"p" [ ("p", items) ] in
  let g = Cfg.Graph.build prog.procs.(0) in
  checki "3 blocks" 3 g.nblocks;
  checki "first block has 3 insns" 3
    (List.length (Cfg.Graph.block_insns g 0));
  checkb "terminator is branch" true
    (I.is_cond_branch (Cfg.Graph.terminator g 0))

(* ---- randomised cross-checks ---- *)

(* naive dominance: v dominates w iff w is unreachable from the root
   when v is removed (v <> w), plus reflexivity *)
let naive_dominates (g : Cfg.Graph.t) v w =
  if v = w then true
  else begin
    let seen = Array.make g.nblocks false in
    let rec dfs x =
      if (not seen.(x)) && x <> v then begin
        seen.(x) <- true;
        List.iter (fun (e : Cfg.Graph.edge) -> dfs e.dst) g.succs.(x)
      end
    in
    dfs 0;
    (* only meaningful if w reachable at all *)
    let reach = Array.make g.nblocks false in
    let rec dfs2 x =
      if not reach.(x) then begin
        reach.(x) <- true;
        List.iter (fun (e : Cfg.Graph.edge) -> dfs2 e.dst) g.succs.(x)
      end
    in
    dfs2 0;
    reach.(w) && not seen.(w)
  end

let naive_postdominates (g : Cfg.Graph.t) v w =
  (* v postdominates w iff every path from w to an exit passes v *)
  if v = w then true
  else begin
    let exits =
      List.filter
        (fun b -> g.succs.(b) = [])
        (List.init g.nblocks Fun.id)
    in
    let seen = Array.make g.nblocks false in
    let rec dfs x =
      if (not seen.(x)) && x <> v then begin
        seen.(x) <- true;
        List.iter (fun (e : Cfg.Graph.edge) -> dfs e.dst) g.succs.(x)
      end
    in
    dfs w;
    (* w must reach an exit in the full graph for postdom to matter *)
    let reach = Array.make g.nblocks false in
    let rec dfs2 x =
      if not reach.(x) then begin
        reach.(x) <- true;
        List.iter (fun (e : Cfg.Graph.edge) -> dfs2 e.dst) g.succs.(x)
      end
    in
    dfs2 w;
    let reaches_exit arr = List.exists (fun e -> arr.(e)) exits in
    if not (reaches_exit reach) then false
    else not (reaches_exit seen)
  end

let gen_targets =
  QCheck.Gen.(
    sized_size (int_range 2 10) (fun n ->
        array_size (return n) (int_range (-1) (n - 1))))

let arb_graph =
  QCheck.make gen_targets ~print:(fun a ->
      String.concat ";" (Array.to_list (Array.map string_of_int a)))

let prop_dominators =
  QCheck.Test.make ~name:"CHK dominators match naive definition" ~count:300
    arb_graph (fun targets ->
      let g = Cfg.Graph.build (chain_proc targets) in
      let dom = Cfg.Dom.of_graph g in
      let ok = ref true in
      for v = 0 to g.nblocks - 1 do
        for w = 0 to g.nblocks - 1 do
          let fast = Cfg.Dom.dominates dom v w in
          let slow = naive_dominates g v w in
          (* for unreachable w both should deny except reflexivity *)
          if fast <> slow then ok := false
        done
      done;
      !ok)

let prop_postdominators =
  QCheck.Test.make ~name:"postdominators match naive definition" ~count:300
    arb_graph (fun targets ->
      let g = Cfg.Graph.build (chain_proc targets) in
      let pdom = Cfg.Dom.post_of_graph g in
      let ok = ref true in
      for v = 0 to g.nblocks - 1 do
        for w = 0 to g.nblocks - 1 do
          let fast = Cfg.Dom.dominates pdom v w in
          let slow = naive_postdominates g v w in
          if fast <> slow then ok := false
        done
      done;
      !ok)

let prop_natural_loop_contains_head =
  QCheck.Test.make ~name:"natural loops contain their head and backedge srcs"
    ~count:300 arb_graph (fun targets ->
      let g = Cfg.Graph.build (chain_proc targets) in
      let dom = Cfg.Dom.of_graph g in
      let loops = Cfg.Loops.of_graph g dom in
      List.for_all
        (fun h ->
          Cfg.Loops.in_loop loops ~head:h h
          && List.for_all
               (fun (e : Cfg.Graph.edge) ->
                 (not (Cfg.Loops.is_backedge loops ~src:e.src ~dst:h))
                 || e.dst <> h
                 || Cfg.Loops.in_loop loops ~head:h e.src)
               (List.concat (Array.to_list g.preds)))
        (Cfg.Loops.loop_heads loops))

let prop_loop_members_have_in_loop_succ =
  (* from the paper: for any vertex in nat-loop(y), at least one
     successor is in nat-loop(y) *)
  QCheck.Test.make ~name:"every loop member keeps a successor in the loop"
    ~count:300 arb_graph (fun targets ->
      let g = Cfg.Graph.build (chain_proc targets) in
      let dom = Cfg.Dom.of_graph g in
      let loops = Cfg.Loops.of_graph g dom in
      List.for_all
        (fun h ->
          List.for_all
            (fun v ->
              g.succs.(v) = []
              || List.exists
                   (fun (e : Cfg.Graph.edge) ->
                     Cfg.Loops.in_loop loops ~head:h e.dst)
                   g.succs.(v))
            (Cfg.Loops.loop_body loops ~head:h))
        (Cfg.Loops.loop_heads loops))

let prop_removing_backedges_acyclic =
  QCheck.Test.make ~name:"removing backedges leaves an acyclic graph"
    ~count:300 arb_graph (fun targets ->
      let g = Cfg.Graph.build (chain_proc targets) in
      let dom = Cfg.Dom.of_graph g in
      let loops = Cfg.Loops.of_graph g dom in
      (* Kahn's algorithm on the reachable subgraph minus backedges;
         note: on irreducible graphs retreating edges differ from
         dominator backedges, so restrict to reachable-and-reducible
         cases by just checking no cycle among *dominator* non-back
         edges within reachable nodes — this can fail for irreducible
         graphs, so we only require acyclicity when every cycle has a
         dominator backedge; detect via DFS. *)
      let n = g.nblocks in
      let adj =
        Array.init n (fun v ->
            List.filter_map
              (fun (e : Cfg.Graph.edge) ->
                if Cfg.Loops.is_backedge loops ~src:e.src ~dst:e.dst then None
                else Some e.dst)
              g.succs.(v))
      in
      (* irreducible graphs may keep cycles: only assert when all
         retreating edges are dominator backedges *)
      let color = Array.make n 0 in
      let reducible = ref true in
      let has_cycle = ref false in
      let rec dfs v =
        color.(v) <- 1;
        List.iter
          (fun w ->
            if color.(w) = 1 then has_cycle := true
            else if color.(w) = 0 then dfs w)
          adj.(v);
        color.(v) <- 2
      in
      dfs 0;
      (* detect irreducibility: a retreating edge (to a gray node in a
         DFS of the full graph) that is not a dominator backedge *)
      let color2 = Array.make n 0 in
      let rec dfs2 v =
        color2.(v) <- 1;
        List.iter
          (fun (e : Cfg.Graph.edge) ->
            if color2.(e.dst) = 1 then begin
              if not (Cfg.Loops.is_backedge loops ~src:v ~dst:e.dst) then
                reducible := false
            end
            else if color2.(e.dst) = 0 then dfs2 e.dst)
          g.succs.(v);
        color2.(v) <- 2
      in
      dfs2 0;
      (not !reducible) || not !has_cycle)

let tests =
  [
    ( "graph",
      [
        Alcotest.test_case "blocks" `Quick test_build_blocks;
        Alcotest.test_case "edge kinds" `Quick test_edge_kinds;
        Alcotest.test_case "single uncond succ" `Quick test_single_uncond_succ;
        Alcotest.test_case "instr count" `Quick test_instr_count;
      ] );
    ( "dominators",
      [
        Alcotest.test_case "figure 1" `Quick test_dominators_figure1;
        Alcotest.test_case "postdom figure 1" `Quick test_postdominators_figure1;
      ] );
    ( "loops",
      [
        Alcotest.test_case "figure 1" `Quick test_loops_figure1;
        Alcotest.test_case "classification" `Quick test_classification_figure1;
        Alcotest.test_case "preheader" `Quick test_preheader;
      ] );
    ( "properties",
      List.map qcheck
        [
          prop_dominators;
          prop_postdominators;
          prop_natural_loop_contains_head;
          prop_loop_members_have_in_loop_succ;
          prop_removing_backedges_acyclic;
        ] );
  ]
