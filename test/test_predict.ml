(* Tests for the prediction library: each heuristic on targeted MiniC
   snippets, the combined predictor, orderings, and the subset
   machinery. *)

module D = Predict.Database
module H = Predict.Heuristic

open Check

let build src =
  let prog = Minic.Frontend.compile src in
  let analyses = Cfg.Analysis.of_program prog in
  let profile = Sim.Profile.run prog (Sim.Dataset.make ~name:"t" [||]) in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken ~fall:profile.fall
  in
  (prog, db)

(* Branches of a named procedure. *)
let branches_of (prog : Mips.Program.t) (db : D.t) name =
  let idx = Mips.Program.proc_index prog name in
  Array.to_list db.branches |> List.filter (fun (b : D.branch) -> b.proc = idx)

let heur_pred (b : D.branch) h = b.heur.(H.to_int h)

(* ---- Opcode heuristic ---- *)

let test_opcode_heuristic () =
  let prog, db =
    build
      {|
int check(int x) {
  if (x < 0) {
    return -1;
  }
  if (x > 100) {
    return 1;
  }
  return 0;
}
int main() {
  int i;
  int s = 0;
  for (i = -5; i < 200; i += 7) { s += check(i); }
  print(s);
  return 0;
}
|}
  in
  let brs = branches_of prog db "check" in
  checki "two branches" 2 (List.length brs);
  (* `if (x < 0)` branches around the error path on bgez, which Opcode
     predicts taken ("negative values denote errors"); `x > 100`
     compiles to slt;beq, which Opcode does not cover *)
  let preds = List.map (fun b -> heur_pred b H.Opcode) brs in
  checkb "bgez skip predicted taken" true (List.mem (Some true) preds);
  checkb "slt compare not covered" true (List.mem None preds)

let test_opcode_fp_equality () =
  let prog, db =
    build
      {|
int feq(float a, float b) {
  if (a == b) {
    return 1;
  }
  return 0;
}
int main() {
  print(feq(1.0, 2.0));
  print(feq(3.0, 3.0));
  return 0;
}
|}
  in
  let brs = branches_of prog db "feq" in
  checki "one branch" 1 (List.length brs);
  (* equality tests usually evaluate false: taken direction enters the
     return-1 path only if... the generated branch tests the false
     sense, so Opcode must predict *a* direction (not None) and it must
     be the direction reaching "return 0" more often *)
  let b = List.hd brs in
  (match heur_pred b H.Opcode with
  | Some dir ->
    (* the predicted direction should be the majority direction since
       the two calls are unequal once and equal once... with one each
       this is 50/50; we just require that the prediction corresponds
       to "condition false" by checking against the loop-free profile:
       the direction taken on the unequal call *)
    ignore dir
  | None -> Alcotest.fail "Opcode should apply to FP equality");
  (* and an FP < test must NOT be predicted by Opcode *)
  let prog2, db2 =
    build
      {|
int flt(float a, float b) {
  if (a < b) {
    return 1;
  }
  return 0;
}
int main() { print(flt(1.0, 2.0)); return 0; }
|}
  in
  let brs2 = branches_of prog2 db2 "flt" in
  checkb "Flt not predicted" true
    (List.for_all (fun b -> heur_pred b H.Opcode = None) brs2)

(* ---- Pointer heuristic ---- *)

let test_pointer_heuristic () =
  let prog, db =
    build
      {|
struct node { int v; struct node *next; };
int count(struct node *p) {
  int n = 0;
  while (p->next != null) {      /* load p->next; bne vs zero */
    n = n + 1;
    p = p->next;
  }
  return n;
}
int main() {
  struct node *a = (struct node *)alloc(sizeof(struct node));
  struct node *b = (struct node *)alloc(sizeof(struct node));
  a->next = b;
  b->next = null;
  a->v = 1;
  b->v = 2;
  print(count(a));
  return 0;
}
|}
  in
  let brs = branches_of prog db "count" in
  (* find the branch whose terminator is a Bne/Beq fed by a load: the
     Point heuristic must apply and predict "pointers differ" *)
  let pointed =
    List.filter_map (fun (b : D.branch) -> heur_pred b H.Point) brs
  in
  checkb "pointer heuristic fires" true (pointed <> [])

let test_pointer_excludes_gp () =
  (* comparisons of values loaded off $gp (globals) are not pointer
     comparisons *)
  let prog, db =
    build
      {|
int gflag = 0;
int probe() {
  if (gflag == 0) {      /* lw off $gp; beq vs zero */
    return 1;
  }
  return 2;
}
int main() { print(probe()); gflag = 1; print(probe()); return 0; }
|}
  in
  let brs = branches_of prog db "probe" in
  checkb "gp load not a pointer compare" true
    (List.for_all (fun b -> heur_pred b H.Point = None) brs)

(* ---- Call heuristic ---- *)

let test_call_heuristic () =
  let prog, db =
    build
      {|
int errors = 0;
void report_error(int code) {
  errors = errors + code;
}
int work(int x) {
  if (x < 0) {
    report_error(1);
    return 0;
  }
  return x * 2;
}
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 50; i++) { s += work(i - 2); }
  print(s);
  return 0;
}
|}
  in
  let brs = branches_of prog db "work" in
  let with_call =
    List.filter_map (fun (b : D.branch) -> heur_pred b H.Call) brs
  in
  checkb "call heuristic fires" true (with_call <> []);
  (* it predicts avoiding the call; the call sits in the error path *)
  let b =
    List.find (fun (b : D.branch) -> heur_pred b H.Call <> None) brs
  in
  let dir = Option.get (heur_pred b H.Call) in
  (* direction avoiding the call must be the majority direction *)
  checkb "predicts the majority (no-error) path" true
    (D.misses b dir <= D.misses b (not dir))

(* ---- Return heuristic ---- *)

let test_return_heuristic () =
  let prog, db =
    build
      {|
int find(int *a, int n, int key) {
  int i;
  for (i = 0; i < n; i++) {
    if (a[i] == key) {
      return i;             /* early return: the exception */
    }
    a[i] = a[i] + 0;
  }
  return -1;
}
int main() {
  int a[64];
  int i;
  for (i = 0; i < 64; i++) { a[i] = i * 3; }
  print(find(a, 64, 189));
  print(find(a, 64, 5));
  return 0;
}
|}
  in
  let brs = branches_of prog db "find" in
  let fired =
    List.filter (fun (b : D.branch) -> heur_pred b H.Return <> None) brs
  in
  checkb "return heuristic fires" true (fired <> [])

(* ---- Store heuristic ---- *)

let test_store_heuristic () =
  let prog, db =
    build
      {|
float gmax = 0.0;
void scan(float *a, int n) {
  int i;
  for (i = 0; i < n; i++) {
    if (a[i] > gmax) {
      gmax = a[i];          /* store in the rare successor */
    }
  }
}
int main() {
  float a[128];
  int i;
  for (i = 0; i < 128; i++) { a[i] = (float)((i * 37) % 128); }
  scan(a, 128);
  print(gmax);
  return 0;
}
|}
  in
  let brs = branches_of prog db "scan" in
  let fired =
    List.filter (fun (b : D.branch) -> heur_pred b H.Store <> None) brs
  in
  checkb "store heuristic fires" true (fired <> []);
  (* it predicts avoiding the store — mostly correct on a max scan *)
  List.iter
    (fun (b : D.branch) ->
      let dir = Option.get (heur_pred b H.Store) in
      checkb "avoiding the store is majority" true
        (D.misses b dir <= D.misses b (not dir)))
    fired

(* ---- Guard heuristic ---- *)

let test_guard_heuristic () =
  let prog, db =
    build
      {|
struct node { int v; struct node *next; };
int sum(struct node *p) {
  int s = 0;
  while (p != null) {       /* guard on p; successor uses p */
    s = s + p->v;
    p = p->next;
  }
  return s;
}
int main() {
  struct node *head = null;
  int i;
  for (i = 0; i < 30; i++) {
    struct node *n = (struct node *)alloc(sizeof(struct node));
    n->v = i;
    n->next = head;
    head = n;
  }
  print(sum(head));
  return 0;
}
|}
  in
  let brs = branches_of prog db "sum" in
  let fired =
    List.filter (fun (b : D.branch) -> heur_pred b H.Guard <> None) brs
  in
  checkb "guard heuristic fires" true (fired <> [])

(* ---- Loop heuristic (non-loop branch guarding a loop) ---- *)

let test_loop_heuristic () =
  let prog, db =
    build
      {|
int total = 0;
void maybe_loop(int n) {
  int i;
  if (n > 0) {
    for (i = 0; i < n; i++) {
      total = total + i;
    }
  }
}
int main() {
  int i;
  for (i = -3; i < 20; i++) { maybe_loop(i); }
  print(total);
  return 0;
}
|}
  in
  let brs = branches_of prog db "maybe_loop" in
  let fired =
    List.filter (fun (b : D.branch) -> heur_pred b H.Loop <> None) brs
  in
  checkb "loop heuristic fires" true (fired <> []);
  (* loops are executed rather than avoided: predicted direction
     enters the loop, which is the majority here *)
  List.iter
    (fun (b : D.branch) ->
      let dir = Option.get (heur_pred b H.Loop) in
      checkb "entering the loop is majority" true
        (D.misses b dir <= D.misses b (not dir)))
    fired



(* ---- extended / unsuccessful heuristics (Section 4.4) ---- *)

let test_ext_distance_applies () =
  let prog, db =
    build
      "int main() { int x = read(); if (x > 3) { print(1); } else { print(2); } return 0; }"
  in
  let analyses = Cfg.Analysis.of_program prog in
  let brs = branches_of prog db "main" in
  checkb "distance always predicts" true
    (List.for_all
       (fun (b : D.branch) ->
         Predict.Heuristic_ext.apply Predict.Heuristic_ext.Distance
           analyses.(b.proc) ~block:b.block ~taken:b.taken_dst
           ~fall:b.fall_dst
         <> None)
       brs);
  (* the database bakes every Section 4.4 verdict, in [all]'s order *)
  Array.iter
    (fun (b : D.branch) ->
      List.iteri
        (fun i h ->
          checkb "baked ext verdict" true
            (b.ext.(i)
            = Predict.Heuristic_ext.apply h analyses.(b.proc) ~block:b.block
                ~taken:b.taken_dst ~fall:b.fall_dst))
        Predict.Heuristic_ext.all)
    db.branches

let test_ext_guard_deep () =
  (* hand-built CFG: the branch operand is used two blocks away,
     through an unconditional hop — Guard misses it, Guard+ finds it *)
  let open Mips.Asm in
  let module I = Mips.Insn in
  let s0 = Mips.Reg.s 0 in
  let t1 = Mips.Reg.t 1 and t2 = Mips.Reg.t 2 in
  let items =
    [
      Ins (I.Beq (s0, Mips.Reg.zero, "skip"));  (* block 0 *)
      Ins (I.Li (t1, 5));                        (* block 1: hop *)
      Ins (I.J "use");
      Lab "skip";
      Ins I.Ret;                                 (* block: skip *)
      Lab "use";
      Ins (I.Move (t2, s0));                     (* block: uses s0 *)
      Ins I.Ret;
    ]
  in
  let prog = Mips.Program.make ~entry:"p" [ ("p", items) ] in
  let a = Cfg.Analysis.of_proc prog.procs.(0) in
  let g = a.graph in
  match Cfg.Graph.branch_edges g 0 with
  | None -> Alcotest.fail "expected a branch"
  | Some (te, fe) ->
    let taken = te.dst and fall = fe.dst in
    checkb "plain Guard does not fire" true
      (Predict.Heuristic.apply Predict.Heuristic.Guard a ~block:0 ~taken ~fall
      = None);
    checkb "Guard+ fires through the hop" true
      (Predict.Heuristic_ext.apply Predict.Heuristic_ext.Guard_deep a ~block:0
         ~taken ~fall
      = Some false)

let test_ext_postdom () =
  (* if/else diamond: neither arm postdominates, but a successor that
     IS the join in an if-without-else does *)
  let prog, db =
    build
      "int g1 = 0;\nint main() { int x = read(); if (x > 0) { g1 = 1; } print(g1); return 0; }"
  in
  let analyses = Cfg.Analysis.of_program prog in
  (* the if branch: taken successor = join (postdominates), fall =
     then-block (does not) -> Postdom predicts taken *)
  let br =
    Array.to_list db.branches
    |> List.find_opt (fun (b : D.branch) ->
           Predict.Heuristic_ext.apply Predict.Heuristic_ext.Postdom
             analyses.(b.proc) ~block:b.block ~taken:b.taken_dst
             ~fall:b.fall_dst
           <> None)
  in
  checkb "postdom heuristic applies somewhere" true (br <> None)

(* ---- classification sanity on compiled code ---- *)

let test_classification_rotated_loop () =
  let prog, db =
    build
      {|
int main() {
  int i = 0;
  int s = 0;
  while (i < 10) {
    s += i;
    i++;
  }
  print(s);
  return 0;
}
|}
  in
  let brs = branches_of prog db "main" in
  (* rotated while: a non-loop guard branch (executes once) and a loop
     backedge branch (executes 10 times) *)
  let loops, nonloops =
    List.partition (fun (b : D.branch) -> b.cls = Predict.Classify.Loop_branch) brs
  in
  checkb "has loop branch" true (loops <> []);
  checkb "has guard branch" true (nonloops <> []);
  let backedge = List.hd loops in
  checki "backedge executes 10x" 10 (D.exec backedge);
  checkb "loop predictor says taken" true backedge.loop_pred;
  checki "loop predictor misses once" 1 (D.misses backedge backedge.loop_pred)

(* ---- combined predictor ---- *)

let test_combined_first_applicable () =
  let _, db =
    build
      {|
float m = 0.0;
int main() {
  float a[64];
  int i;
  for (i = 0; i < 64; i++) { a[i] = (float)((i * 29) % 64); }
  for (i = 0; i < 64; i++) {
    float v = a[i];
    if (v > m) {
      m = v;
    }
  }
  print(m);
  return 0;
}
|}
  in
  (* the tomcatv pattern: `if (v > m)` branches to the skip on the
     taken edge.  Guard sees v used in the update block and predicts
     fall-through (mostly wrong); Store sees the store to m there and
     predicts taken (mostly right).  Order decides. *)
  let br =
    Array.to_list db.branches
    |> List.find_opt (fun (b : D.branch) ->
           heur_pred b H.Guard = Some false && heur_pred b H.Store = Some true)
  in
  match br with
  | None -> Alcotest.fail "expected a Guard-vs-Store conflict branch"
  | Some br ->
    let dir_store_first, src1 =
      Predict.Combined.predict_non_loop [ H.Store; H.Guard ] br
    in
    let dir_guard_first, src2 =
      Predict.Combined.predict_non_loop [ H.Guard; H.Store ] br
    in
    checkb "store first predicts taken (skip)" true (dir_store_first = true);
    checkb "guard first predicts fall (update)" true (dir_guard_first = false);
    checkb "sources" true
      (src1 = Predict.Combined.By H.Store && src2 = Predict.Combined.By H.Guard);
    (* paper order has Store before Guard, so it sides with Store and
       gets the branch right *)
    let dir_paper, _ =
      Predict.Combined.predict_non_loop Predict.Combined.paper_order br
    in
    checkb "paper order sides with Store" true (dir_paper = true);
    checkb "store direction is the majority" true
      (D.misses br dir_paper <= D.misses br (not dir_paper))

let test_validate_order () =
  Predict.Combined.validate Predict.Combined.paper_order;
  (try
     Predict.Combined.validate [ H.Opcode ];
     Alcotest.fail "expected invalid"
   with Invalid_argument _ -> ());
  try
    Predict.Combined.validate
      [ H.Opcode; H.Opcode; H.Call; H.Return; H.Guard; H.Store; H.Point ];
    Alcotest.fail "expected invalid"
  with Invalid_argument _ -> ()

(* ---- metrics ---- *)

let test_metrics () =
  let mk taken_count fall_count =
    {
      D.proc = 0; block = 0; pc = 0; taken_dst = 1; fall_dst = 2;
      cls = Predict.Classify.Non_loop_branch;
      taken_count; fall_count;
      heur = Array.make H.count None;
      ext = [||];
      loop_pred = false; rand_pred = false; backward = false;
    }
  in
  let brs = [ mk 150 10; mk 20 20 ] in
  let open Predict.Metrics in
  checki "total" 200 (total_exec brs);
  (* always-taken: misses 10 + 20 = 30 *)
  checkb "tgt miss" true (abs_float (miss_rate (fun _ -> true) brs -. 0.15) < 1e-9);
  (* perfect: 10 + 20 = 30 *)
  checkb "perfect" true (abs_float (perfect_rate brs -. 0.15) < 1e-9);
  (* only the 160-execution branch exceeds 40%% of 200 *)
  let big, share = big_branches ~threshold:0.4 brs in
  checki "one big branch" 1 (List.length big);
  checkb "share" true (abs_float (share -. 0.8) < 1e-9)

(* The branch-by-branch definition of each rate the tally projects:
   filter out the covered branches, then fold them again per rate. *)
module Reference = struct
  let ratio num den =
    if den = 0 then Float.nan else float_of_int num /. float_of_int den

  let total_exec bs = List.fold_left (fun acc b -> acc + D.exec b) 0 bs
  let covered partial bs = List.filter (fun b -> partial b <> None) bs

  let coverage partial bs =
    ratio (total_exec (covered partial bs)) (total_exec bs)

  let miss_rate_covered partial bs =
    let cov = covered partial bs in
    let miss =
      List.fold_left
        (fun acc b ->
          match partial b with
          | Some dir -> acc + D.misses b dir
          | None -> acc)
        0 cov
    in
    ratio miss (total_exec cov)

  let perfect_rate bs =
    ratio (List.fold_left (fun acc b -> acc + D.perfect_misses b) 0 bs)
      (total_exec bs)
end

let prop_tally_matches_reference =
  (* per branch its taken and fall counts, zero half the time, and the
     partial predictor's verdict: none, taken or not taken *)
  let count = QCheck.Gen.(oneof [ return 0; int_range 0 40 ]) in
  QCheck.Test.make ~name:"tally = branch-by-branch rates" ~count:500
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 8)
            (triple count count (oneofl [ None; Some true; Some false ]))))
    (fun specs ->
      let brs =
        List.mapi
          (fun pc (taken_count, fall_count, verdict) ->
            {
              D.proc = 0; block = 0; pc; taken_dst = 1; fall_dst = 2;
              cls = Predict.Classify.Non_loop_branch;
              taken_count; fall_count;
              heur = [| verdict |];
              ext = [||];
              loop_pred = false; rand_pred = false; backward = false;
            })
          specs
      in
      let partial (b : D.branch) = b.heur.(0) in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let module M = Predict.Metrics in
      let t = M.tally partial brs in
      let cov = Reference.covered partial brs in
      let always dir = M.miss_rate (fun _ -> dir) brs in
      same (M.coverage t) (Reference.coverage partial brs)
      && same (M.miss t) (Reference.miss_rate_covered partial brs)
      && same (M.perfect t) (Reference.perfect_rate cov)
      && same (always true)
           (Reference.miss_rate_covered (fun _ -> Some true) brs)
      && same (M.perfect_rate brs) (Reference.perfect_rate brs)
      && Float.is_nan (M.coverage t) = (Reference.total_exec brs = 0)
      && Float.is_nan (M.miss t) = (Reference.total_exec cov = 0)
      && Float.is_nan (always false) = (Reference.total_exec brs = 0))

(* ---- orderings ---- *)

let test_order_roundtrip_exhaustive () =
  for i = 0 to Predict.Ordering.factorial 7 - 1 do
    let o = Predict.Ordering.order_of_index i in
    Predict.Combined.validate o;
    checki "roundtrip" i (Predict.Ordering.index_of_order o)
  done

let test_all_orders_distinct () =
  let orders = Predict.Ordering.all_orders () in
  checki "5040 orders" 5040 (Array.length orders);
  let tbl = Hashtbl.create 5040 in
  Array.iter (fun o -> Hashtbl.replace tbl (List.map H.to_int o) ()) orders;
  checki "all distinct" 5040 (Hashtbl.length tbl)

let prop_order_roundtrip =
  QCheck.Test.make ~name:"order unrank/rank roundtrip" ~count:200
    QCheck.(make Gen.(int_range 0 5039))
    (fun i ->
      Predict.Ordering.index_of_order (Predict.Ordering.order_of_index i) = i)

(* ---- subset machinery ---- *)

let test_choose () =
  checki "22 choose 11" 705432 (Predict.Subset.choose 22 11);
  checki "5 choose 2" 10 (Predict.Subset.choose 5 2);
  checki "n choose 0" 1 (Predict.Subset.choose 7 0);
  checki "n choose n" 1 (Predict.Subset.choose 7 7);
  checki "out of range" 0 (Predict.Subset.choose 3 5)

let test_subset_run_small () =
  (* 4 benchmarks x 3 orders; order 1 is best on every subset *)
  let m =
    [|
      [| 0.5; 0.1; 0.9 |];
      [| 0.4; 0.2; 0.8 |];
      [| 0.6; 0.1; 0.7 |];
      [| 0.5; 0.3; 0.9 |];
    |]
  in
  let r = Predict.Subset.run ~k:2 m in
  checki "C(4,2) trials" 6 r.trials;
  checki "one winner" 1 r.distinct_orders;
  checkb "order 1 wins all" true (r.wins.(0) = (1, 6));
  let cum = Predict.Subset.cumulative_share r in
  checkb "cumulative hits 1" true (abs_float (cum.(0) -. 1.0) < 1e-9)

let test_subset_respects_max_trials () =
  let m = Array.make_matrix 8 4 0.5 in
  m.(0).(2) <- 0.1;
  let r = Predict.Subset.run ~k:4 ~max_trials:10 m in
  checki "capped" 10 r.trials

let test_unrank_rank_roundtrip () =
  (* exhaustive over every (n, k, rank) for small n: unrank produces a
     sorted combination, rank inverts it, and enumeration order is
     lexicographic *)
  for n = 1 to 9 do
    for k = 1 to n do
      let total = Predict.Subset.choose n k in
      let prev = ref [||] in
      for r = 0 to total - 1 do
        let comb = Predict.Subset.unrank ~n ~k r in
        checki "rank inverts unrank" r (Predict.Subset.rank ~n ~k comb);
        let sorted = Array.copy comb in
        Array.sort compare sorted;
        checkb "sorted members" true (comb = sorted);
        if r > 0 then checkb "lexicographic order" true (!prev < comb);
        prev := comb
      done
    done
  done;
  checkb "first combination" true
    (Predict.Subset.unrank ~n:22 ~k:11 0 = Array.init 11 Fun.id);
  checkb "last combination" true
    (Predict.Subset.unrank ~n:22 ~k:11 (Predict.Subset.choose 22 11 - 1)
    = Array.init 11 (fun i -> 11 + i))

let prop_unrank_rank_roundtrip =
  QCheck.Test.make ~name:"subset unrank/rank roundtrip (n=22,k=11)" ~count:500
    QCheck.(make Gen.(int_range 0 (Predict.Subset.choose 22 11 - 1)))
    (fun r ->
      Predict.Subset.rank ~n:22 ~k:11 (Predict.Subset.unrank ~n:22 ~k:11 r)
      = r)

(* The parallel enumeration must be bit-identical at any domain count. *)
let with_jobs = Par.Pool.with_jobs

let random_matrix nb no seed =
  (* deterministic pseudo-random miss matrix in [0, 1) *)
  Array.init nb (fun b ->
      Array.init no (fun o ->
          let h = (((b * 7919) + (o * 104729) + seed) * 2654435761) land 0xFFFFF in
          float_of_int h /. 1048576.))

let prop_subset_run_j1_equals_j4 =
  QCheck.Test.make ~name:"Subset.run identical at -j 1 and -j 4" ~count:25
    QCheck.(make Gen.(triple (int_range 4 17) (int_range 2 30) (int_range 0 1000)))
    (fun (nb, no, seed) ->
      (* nb up to 17 gives C(17,8) = 24,310 trials: several 8,192-trial
         chunks, so the cross-chunk merge is exercised *)
      let m = random_matrix nb no seed in
      let k = (nb + 1) / 2 in
      let r1 = with_jobs 1 (fun () -> Predict.Subset.run ~k m) in
      let r4 = with_jobs 4 (fun () -> Predict.Subset.run ~k m) in
      r1 = r4)

(* ---- first-fire tables vs a direct evaluation ---- *)

(* The miss matrix evaluated branch by branch: for each order, each
   non-loop branch is charged the misses of the first heuristic in
   the order that applies to it, or of its Default coin. *)
let direct_miss_matrix dbs =
  let orders =
    Array.init (Predict.Ordering.factorial 7) (fun o ->
        Array.of_list (List.map H.to_int (Predict.Ordering.order_of_index o)))
  in
  Array.map
    (fun (db : D.t) ->
      let nl = Array.of_list (D.non_loop_branches db) in
      let exec = Array.fold_left (fun acc b -> acc + D.exec b) 0 nl in
      Array.map
        (fun order ->
          let miss =
            Array.fold_left
              (fun acc (b : D.branch) ->
                let rec first j =
                  if j = Array.length order then D.misses b b.rand_pred
                  else
                    match b.heur.(order.(j)) with
                    | Some dir -> D.misses b dir
                    | None -> first (j + 1)
                in
                acc + first 0)
              0 nl
          in
          if exec = 0 then Float.nan
          else float_of_int miss /. float_of_int exec)
        orders)
    dbs

(* cell-by-cell bit equality, naming the first differing cell *)
let check_bitwise what expected got =
  checki (what ^ ": rows") (Array.length expected) (Array.length got);
  Array.iteri
    (fun b row ->
      Array.iteri
        (fun o v ->
          if Int64.bits_of_float v <> Int64.bits_of_float got.(b).(o) then
            Alcotest.failf "%s: benchmark %d, order %d: direct %h, tables %h"
              what b o v got.(b).(o))
        row)
    expected

let test_miss_matrix_matches_direct () =
  let _, quiet = build "int main() { print(1); return 0; }" in
  let nl = D.non_loop_branches quiet in
  checkb "no non-loop branch executes" true
    (nl <> [] && List.for_all (fun b -> D.exec b = 0) nl);
  let small =
    Array.map
      (fun src -> snd (build src))
      [|
        "int main() { int i; int s = 0; for (i = 0; i < 40; i++) { if (i % 5 \
         == 0) { s += i; } } print(s); return 0; }";
        "int main() { int i; int p = 1; for (i = 1; i < 20; i++) { if (i % 3 \
         != 0) { p += i * 2; } } print(p); return 0; }";
      |]
  in
  let dbs = Array.append [| quiet |] small in
  let m = Predict.Ordering.miss_matrix dbs in
  checkb "the quiet row is nan" true (Array.for_all Float.is_nan m.(0));
  check_bitwise "small programs" (direct_miss_matrix dbs) m;
  let suite, rs = Experiments.Orderings.miss_matrix_cached () in
  let suite_dbs =
    Array.of_list (List.map (fun (r : Experiments.Bench_run.t) -> r.db) rs)
  in
  checki "22 suite databases" 22 (Array.length suite_dbs);
  check_bitwise "suite" (direct_miss_matrix suite_dbs) suite

let prop_subset_total_wins =
  QCheck.Test.make ~name:"subset: wins sum to trials" ~count:30
    QCheck.(make Gen.(pair (int_range 3 7) (int_range 1 3)))
    (fun (nb, seed) ->
      let m =
        Array.init nb (fun b ->
            Array.init 6 (fun o ->
                float_of_int (((b * 7) + (o * 13) + seed) mod 10) /. 10.))
      in
      let r = Predict.Subset.run ~k:((nb + 1) / 2) m in
      Array.fold_left (fun acc (_, c) -> acc + c) 0 r.wins = r.trials
      && r.trials = Predict.Subset.choose nb ((nb + 1) / 2))

(* ---- pruned walk vs an unpruned reference ---- *)

(* Every column, the walk's 8,192-trial chunks (each re-summed from
   zero in member order), and between trials the leaving and joining
   rows applied in ascending member order, as the walk's sorted merge
   emits them.  Argmin breaks ties toward the lower column.  Like
   [Subset.run], it stops after the first [max_trials] trials. *)
let reference_wins ?(max_trials = max_int) ~k (m : float array array) =
  let module S = Predict.Subset in
  let nb = Array.length m and no = Array.length m.(0) in
  let wins = Array.make no 0 and cur = Array.make no 0. in
  let apply sub b =
    Array.iteri
      (fun o v -> cur.(o) <- (if sub then cur.(o) -. v else cur.(o) +. v))
      m.(b)
  in
  let prev = ref [||] in
  for r = 0 to min (S.choose nb k) max_trials - 1 do
    let comb = S.unrank ~n:nb ~k r in
    if r mod 8192 = 0 then begin
      Array.fill cur 0 no 0.;
      Array.iter (apply false) comb
    end
    else
      for b = 0 to nb - 1 do
        match (Array.mem b !prev, Array.mem b comb) with
        | true, false -> apply true b
        | false, true -> apply false b
        | _ -> ()
      done;
    let best = ref 0 in
    Array.iteri (fun o v -> if v < cur.(!best) then best := o) cur;
    wins.(!best) <- wins.(!best) + 1;
    prev := comb
  done;
  wins

let win_counts no (r : Predict.Subset.result) =
  let c = Array.make no 0 in
  Array.iter (fun (o, n) -> c.(o) <- n) r.wins;
  c

let matches_reference ?max_trials ~k m =
  let want = reference_wins ?max_trials ~k m in
  let no = Array.length m.(0) in
  List.for_all
    (fun jobs ->
      win_counts no
        (with_jobs jobs (fun () -> Predict.Subset.run ~k ?max_trials m))
      = want)
    [ 1; 4 ]

(* Tie-heavy columns: values on a grid of multiples of 1/q (inexact in
   binary for q = 3, 5, 6, 7, 9, 10), duplicates of earlier columns,
   and copies of earlier columns with up to nb - k + 1 rows moved,
   so many columns equal another on >= k rows and some sit exactly on
   the pruning threshold.  One case in eight carries a NaN. *)
let tie_heavy_matrix ~nb ~no ~k ~q seed =
  let st = Random.State.make [| seed |] in
  let grid () = float_of_int (Random.State.int st (q + 1)) /. float_of_int q in
  let cols = Array.make no [||] in
  for o = 0 to no - 1 do
    cols.(o) <-
      (if o = 0 then Array.init nb (fun _ -> grid ())
       else
         match Random.State.int st 4 with
         | 0 -> Array.init nb (fun _ -> grid ())
         | 1 -> Array.copy cols.(Random.State.int st o)
         | _ ->
           let c = Array.copy cols.(Random.State.int st o) in
           for _ = 1 to Random.State.int st (nb - k + 2) do
             let b = Random.State.int st nb in
             let step = float_of_int (Random.State.int st 3 - 1) in
             c.(b) <- c.(b) +. (step /. float_of_int q)
           done;
           c)
  done;
  let m = Array.init nb (fun b -> Array.init no (fun o -> cols.(o).(b))) in
  if Random.State.int st 8 = 0 then
    m.(Random.State.int st nb).(Random.State.int st no) <- Float.nan;
  m

let prop_subset_run_equals_reference =
  QCheck.Test.make ~name:"pruned Subset.run = unpruned reference (-j 1, -j 4)"
    ~count:40
    QCheck.(
      make
        ~print:(fun ((nb, no, q, seed), max_trials) ->
          Printf.sprintf "nb=%d no=%d q=%d seed=%d max_trials=%s" nb no q seed
            (match max_trials with Some t -> string_of_int t | None -> "-"))
        Gen.(
          pair
            (quad
               (oneof [ int_range 2 17; int_range 16 17 ])
               (int_range 1 40)
               (oneofl [ 3; 5; 6; 7; 9; 10 ])
               (int_range 0 1_000_000))
            (opt (int_range 1 24_576))))
    (fun ((nb, no, q, seed), max_trials) ->
      (* nb up to 17: C(17,8) = 24,310 trials span several chunks.  A
         cap ends the walk inside a block of combinations that share a
         long prefix, which is where the chunk rule drops columns. *)
      let k = 1 + (seed mod nb) in
      matches_reference ?max_trials ~k (tie_heavy_matrix ~nb ~no ~k ~q seed))

(* The chunk rule must really drop columns, and stay exact when it
   does: fewer column-steps than walking every survivor.  Independent
   uniform columns all survive the global prune (no column is below
   another on 9 of 17 rows), but not every chunk. *)
let test_subset_chunk_prune_fires () =
  let module S = Predict.Subset in
  let nb = 17 and no = 40 and max_trials = 20_000 in
  let k = (nb + 1) / 2 in
  let st = Random.State.make [| 7 |] in
  let m =
    Array.init nb (fun _ -> Array.init no (fun _ -> Random.State.float st 1.))
  in
  let steps = Obs.Metrics.counter "subset.column_steps" in
  let walked jobs =
    let before = Obs.Metrics.value steps in
    let r = with_jobs jobs (fun () -> S.run ~k ~max_trials m) in
    (r, Obs.Metrics.value steps - before)
  in
  let r1, steps1 = walked 1 and r4, steps4 = walked 4 in
  let full = Array.length (S.survivors m ~k) * max_trials in
  checkb "chunk rule drops columns" true (steps1 < full);
  checki "same column-steps at -j 1 and -j 4" steps1 steps4;
  checkb "wins equal the reference" true
    (win_counts no r1 = reference_wins ~max_trials ~k m);
  checkb "-j 1 = -j 4" true (r1 = r4)

let test_subset_prune_threshold () =
  let module S = Predict.Subset in
  (* nb = 4, k = 2: dropping needs nb - k + 1 = 3 strict rows *)
  let weak =
    [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |]; [| 0.6; 0.5 |]; [| 0.7; 0.5 |] |]
  in
  checkb "two strict rows: kept" true (S.survivors weak ~k:2 = [| 0; 1 |]);
  checkb "kept column wins its tie" true
    (win_counts 2 (S.run ~k:2 weak) = [| 1; 5 |]);
  checkb "weak: matches reference" true (matches_reference ~k:2 weak);
  let strict =
    [| [| 0.5; 0.5 |]; [| 0.6; 0.5 |]; [| 0.6; 0.5 |]; [| 0.7; 0.5 |] |]
  in
  checkb "three strict rows: dropped" true (S.survivors strict ~k:2 = [| 1 |]);
  checkb "strict: matches reference" true (matches_reference ~k:2 strict);
  let dup = [| [| 0.3; 0.1; 0.3 |]; [| 0.2; 0.4; 0.2 |] |] in
  checkb "duplicate dropped, original kept" true
    (S.survivors dup ~k:1 = [| 0; 1 |]);
  (* k = nb: one strict row suffices; k = 1: every row must be strict *)
  let m =
    [|
      [| 0.2; 0.1; 0.4 |];
      [| 0.3; 0.3; 0.1 |];
      [| 0.5; 0.5; 0.6 |];
    |]
  in
  checkb "k = nb prunes on one strict row" true
    (S.survivors m ~k:3 = [| 1; 2 |]);
  checkb "k = 1 keeps a column strict on only some rows" true
    (S.survivors m ~k:1 = [| 0; 1; 2 |]);
  List.iter
    (fun k -> checkb "k = nb / k = 1: matches reference" true
        (matches_reference ~k m))
    [ 1; 3 ];
  (* column 1 would dominate column 0 but for its NaN, which makes it
     lose every comparison; column 0 must stay to win *)
  let nan = [| [| 0.5; Float.nan |]; [| 0.5; 0.1 |]; [| 0.5; 0.1 |] |] in
  checkb "NaN keeps every column" true (S.survivors nan ~k:3 = [| 0; 1 |]);
  checkb "NaN: matches reference" true (matches_reference ~k:3 nan);
  (* inf - inf leaves a NaN in column 0's running sum from the second
     trial on, and a NaN first column wins every later argmin *)
  let inf =
    [| [| Float.infinity; 1. |]; [| Float.infinity; 1. |]; [| 1.; 0.5 |] |]
  in
  checkb "infinity keeps every column" true (S.survivors inf ~k:2 = [| 0; 1 |]);
  checkb "infinity: matches reference" true (matches_reference ~k:2 inf);
  (* 1 + 2^-53 rounds to 1: on subsets {0, 1} and {0, 2} column 0 ties
     column 1 and wins on index, so a difference that float rounding
     can erase is not a strict row *)
  let u = epsilon_float /. 2. in
  let ulp =
    [| [| 1.0; 1.0 |]; [| u; 0. |]; [| u; 0. |]; [| 1.0; 0.5 |] |]
  in
  checkb "sub-delta difference: kept" true (S.survivors ulp ~k:2 = [| 0; 1 |]);
  checkb "sub-delta: matches reference" true (matches_reference ~k:2 ulp)

let test_subset_chunk_prune_threshold () =
  let module S = Predict.Subset in
  let u = epsilon_float /. 2. in
  (* (a) k = 2, one chunk of 6 trials.  Column 0 trails column 1 by
     at most 2^-30 + 2^-53 on every subset, far below the drift
     margin, and by exactly 2^-53 on {1,2} and {1,3}; the walk's
     rounding there makes the two running sums equal, and column 0
     wins on index.  With a
     zero margin the chunk rule drops it from every block. *)
  let a =
    [| [| 0x1p-30; 0. |]; [| 0.; 0. |]; [| 1.; 1. -. u |]; [| u; 0. |] |]
  in
  checkb "(a) both survive globally" true (S.survivors a ~k:2 = [| 0; 1 |]);
  checkb "(a) trailing column wins ties" true
    (win_counts 2 (S.run ~k:2 a) = [| 2; 4 |]);
  checkb "(a) matches reference" true (matches_reference ~k:2 a);
  (* (b) k = 2, capped at 7 trials: {0,1} .. {0,4}, {1,2}, {1,3},
     {1,4}.  Column 1 wins only {1,3}, which is none of the sample
     combinations.  Its block, {1,2} .. {1,4}, has the prefix {1}; a
     prefix one member longer, {1,2}, would count row 2's lead of 0.2
     in every trial of the block and drop the column. *)
  let b =
    [|
      [| 0.; 1. |]; [| 0.5; 0.5 |]; [| 0.3; 0.5 |]; [| 0.4; 0.3 |];
      [| 0.3; 0.5 |];
    |]
  in
  checkb "(b) both survive globally" true (S.survivors b ~k:2 = [| 0; 1 |]);
  checkb "(b) column 1 wins only {1,3}" true
    (win_counts 2 (S.run ~k:2 ~max_trials:7 b) = [| 6; 1 |]);
  checkb "(b) matches reference" true (matches_reference ~k:2 ~max_trials:7 b);
  (* the same column winning only the range's last combination, {1,3}
     under a cap of 6 *)
  checkb "(b) last combination: matches reference" true
    (win_counts 2 (S.run ~k:2 ~max_trials:6 b) = [| 5; 1 |]
    && matches_reference ~k:2 ~max_trials:6 b)

let test_subset_rejects_bad_matrix () =
  let rejects name m =
    match Predict.Subset.run m with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "empty" [||];
  rejects "zero-width" [| [||]; [||] |];
  rejects "ragged" [| [| 0.1; 0.2 |]; [| 0.3 |] |];
  rejects "ragged first row" [| [| 0.1 |]; [| 0.2; 0.3 |] |]

(* perfect predictor is optimal among all static predictors *)
let prop_perfect_is_optimal =
  QCheck.Test.make ~name:"no static predictor beats perfect" ~count:50
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 1000)))
    (fun (t, f) ->
      let br =
        {
          D.proc = 0; block = 0; pc = 0; taken_dst = 1; fall_dst = 2;
          cls = Predict.Classify.Non_loop_branch;
          taken_count = t; fall_count = f;
          heur = Array.make H.count None;
          ext = [||];
          loop_pred = false; rand_pred = false; backward = false;
        }
      in
      let p = D.perfect_misses br in
      p <= D.misses br true && p <= D.misses br false)

(* ---- Default-coin seed threading through Combined ---- *)

let mk_default_branch pc rand_pred =
  {
    D.proc = 0; block = 0; pc; taken_dst = 1; fall_dst = 2;
    cls = Predict.Classify.Non_loop_branch;
    taken_count = 5; fall_count = 5;
    heur = Array.make H.count None;
    ext = [||];
    loop_pred = false; rand_pred; backward = false;
  }

let test_combined_seed_threading () =
  let order = Predict.Combined.paper_order in
  (* no heuristic applies: without ~seed the baked coin decides *)
  List.iter
    (fun rp ->
      let b = mk_default_branch 3 rp in
      let dir, src = Predict.Combined.predict_non_loop order b in
      checkb "default source" true (src = Predict.Combined.Default);
      checkb "baked coin used" true (dir = rp))
    [ true; false ];
  (* with ~seed the coin is recomputed from the branch address —
     whatever is baked into the record must be ignored *)
  List.iter
    (fun seed ->
      List.iter
        (fun pc ->
          let expect = D.rand_bit ~seed ~proc:0 ~pc in
          let b = mk_default_branch pc (not expect) in
          let dir, src = Predict.Combined.predict_non_loop ~seed order b in
          checkb "recomputed source" true (src = Predict.Combined.Default);
          checkb "recomputed coin" true (dir = expect);
          checkb "predict agrees" true
            (Predict.Combined.predict ~seed order b = expect);
          checkb "loop_rand agrees" true
            (Predict.Combined.loop_rand_predict ~seed b = expect))
        [ 0; 1; 17; 255 ])
    [ 1; 7; 1337 ]

let test_combined_seed_matches_database () =
  (* predict ~seed:42 equals the baked-coin path, for every branch: the
     database bakes its coin under seed 42 *)
  let src =
    {| int main() { int i; int s = 0;
       for (i = 0; i < 40; i++) { if ((i * 37) % 13 < 6) { s = s + i; } }
       print(s); return 0; } |}
  in
  let prog = Minic.Frontend.compile src in
  let analyses = Cfg.Analysis.of_program prog in
  let profile = Sim.Profile.run prog (Sim.Dataset.make ~name:"t" [||]) in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken ~fall:profile.fall
  in
  checkb "has branches" true (Array.length db.branches > 0);
  Array.iter
    (fun (b : D.branch) ->
      checkb "explicit seed = baked coin" true
        (Predict.Combined.predict ~seed:42 Predict.Combined.paper_order b
        = Predict.Combined.predict Predict.Combined.paper_order b))
    db.branches

(* ---- register masks vs the list-based primitives ---- *)

(* The heuristics' primitives as they were written over instruction
   lists ([Insn.uses]/[defs] per query), kept as the reference for the
   mask-based ones of [Cfg.Analysis] and [Heuristic]. *)
module Ref = struct
  module I = Mips.Insn

  let block_contains g b p = List.exists p (Cfg.Graph.block_insns g b)

  let last_cmp g block =
    List.fold_left
      (fun acc ins -> match ins with I.Fcmp _ -> Some ins | _ -> acc)
      None (Cfg.Graph.block_insns g block)

  let branch_operands g block =
    let term = Cfg.Graph.terminator g block in
    let iregs =
      List.filter (fun r -> not (Mips.Reg.equal r Mips.Reg.zero)) (I.uses term)
    in
    let fregs =
      match term, last_cmp g block with
      | I.Bfp _, Some (I.Fcmp (_, fs, ft)) -> [ fs; ft ]
      | _ -> []
    in
    (iregs, fregs)

  let uses_before_def g s iregs fregs =
    let live_i = ref iregs and live_f = ref fregs and found = ref false in
    List.iter
      (fun ins ->
        if not !found then
          if List.exists (fun r -> List.mem r !live_i) (I.uses ins)
             || List.exists (fun r -> List.mem r !live_f) (I.fuses ins)
          then found := true
          else begin
            live_i := List.filter (fun r -> not (List.mem r (I.defs ins))) !live_i;
            live_f := List.filter (fun r -> not (List.mem r (I.fdefs ins))) !live_f
          end)
      (Cfg.Graph.block_insns g s);
    !found

  let opcode g block =
    match Cfg.Graph.terminator g block, last_cmp g block with
    | I.Bfp (sense, _), Some (I.Fcmp (I.Feq, _, _)) -> Some (not sense)
    | I.Bfp _, _ -> None
    | I.Bz ((Ltz | Lez), _, _), _ -> Some false
    | I.Bz ((Gtz | Gez), _, _), _ -> Some true
    | _ -> None

  let point g block =
    let state = Hashtbl.create 8 in
    let rec scan = function
      | [] | [ _ ] -> ()
      | ins :: rest ->
        (match ins with
        | I.Lw (rt, _, base) ->
          Hashtbl.replace state rt (not (Mips.Reg.equal base Mips.Reg.gp), false)
        | _ when I.is_call ins ->
          Hashtbl.filter_map_inplace (fun _ (p, _) -> Some (p, true)) state
        | _ -> List.iter (Hashtbl.remove state) (I.defs ins));
        scan rest
    in
    scan (Cfg.Graph.block_insns g block);
    let loaded_ptr r =
      match Hashtbl.find_opt state r with
      | Some (ptr_like, call_between) -> ptr_like && not call_between
      | None -> false
    in
    let check rs rt =
      if Mips.Reg.equal rt Mips.Reg.zero then loaded_ptr rs
      else if Mips.Reg.equal rs Mips.Reg.zero then loaded_ptr rt
      else loaded_ptr rs && loaded_ptr rt
    in
    match Cfg.Graph.terminator g block with
    | I.Beq (rs, rt, _) when check rs rt -> Some false
    | I.Bne (rs, rt, _) when check rs rt -> Some true
    | _ -> None

  let guard_deep (a : Cfg.Analysis.t) ~block ~taken ~fall =
    let g = a.graph in
    let iregs, fregs = branch_operands g block in
    if iregs = [] && fregs = [] then None
    else begin
      let defines s =
        List.exists
          (fun ins ->
            List.exists (fun r -> List.mem r (I.defs ins)) iregs
            || List.exists (fun r -> List.mem r (I.fdefs ins)) fregs)
          (Cfg.Graph.block_insns g s)
      in
      let rec uses_within depth s =
        uses_before_def g s iregs fregs
        || depth > 0
           && (not (defines s))
           && match Cfg.Graph.single_uncond_succ g s with
              | Some s' -> uses_within (depth - 1) s'
              | None -> false
      in
      let prop s = uses_within 1 s && not (Cfg.Analysis.postdominates a s block) in
      H.by_property ~predict_with:true prop ~taken ~fall
    end
end

let imask = List.fold_left (fun m r -> m lor (1 lsl Mips.Reg.to_int r)) 0
let fmask = List.fold_left (fun m r -> m lor (1 lsl Mips.Freg.to_int r)) 0

let check_masks what (a : Cfg.Analysis.t) =
  let g = a.graph in
  let body = g.proc.body in
  let fail fmt = Alcotest.failf ("%s, %s: " ^^ fmt) what g.proc.name in
  Array.iteri
    (fun i ins ->
      if a.use_mask.(i) <> imask (Mips.Insn.uses ins)
         || a.def_mask.(i) <> imask (Mips.Insn.defs ins)
         || a.fuse_mask.(i) <> fmask (Mips.Insn.fuses ins)
         || a.fdef_mask.(i) <> fmask (Mips.Insn.fdefs ins)
      then fail "register masks of insn %d" i)
    body;
  let int_regs = List.init 32 Mips.Reg.of_int in
  let float_regs = List.init 32 Mips.Freg.of_int in
  let ubd s iregs fregs =
    if H.uses_before_def a s ~imask:(imask iregs) ~fmask:(fmask fregs)
       <> Ref.uses_before_def g s iregs fregs
    then fail "uses_before_def, block %d" s
  in
  for b = 0 to g.nblocks - 1 do
    if a.has_call.(b) <> Ref.block_contains g b Mips.Insn.is_call
       || a.has_return.(b) <> Ref.block_contains g b Mips.Insn.is_return
       || a.has_store.(b) <> Ref.block_contains g b Mips.Insn.is_store
    then fail "block flags of block %d" b;
    (* each register alone, all of them at once, and the operands of
       every branch that leads here *)
    List.iter (fun r -> ubd b [ r ] []) int_regs;
    List.iter (fun r -> ubd b [] [ r ]) float_regs;
    ubd b (List.tl int_regs) float_regs;
    List.iter
      (fun (e : Cfg.Graph.edge) ->
        match Cfg.Graph.branch_edges g e.src with
        | Some _ ->
          let iregs, fregs = Ref.branch_operands g e.src in
          ubd b iregs fregs
        | None -> ())
      g.preds.(b);
    match Cfg.Graph.branch_edges g b with
    | None -> ()
    | Some (te, fe) ->
      let iregs, fregs = Ref.branch_operands g b in
      if H.branch_operands a b <> (imask iregs, fmask fregs) then
        fail "branch_operands, block %d" b;
      let taken = te.dst and fall = fe.dst in
      if H.apply H.Opcode a ~block:b ~taken ~fall <> Ref.opcode g b then
        fail "Opcode, block %d" b;
      if H.apply H.Point a ~block:b ~taken ~fall <> Ref.point g b then
        fail "Point, block %d" b;
      if Predict.Heuristic_ext.apply Predict.Heuristic_ext.Guard_deep a
           ~block:b ~taken ~fall
         <> Ref.guard_deep a ~block:b ~taken ~fall
      then fail "Guard+, block %d" b
  done

(* Cases the compiled programs never produce: a call between a load
   and the pointer test it feeds, and a load off $gp. *)
let test_masks_hand_built () =
  let open Mips.Asm in
  let module I = Mips.Insn in
  let t = Mips.Reg.t and s = Mips.Reg.s and zero = Mips.Reg.zero in
  let f = Mips.Freg.temp in
  let items =
    [
      Ins (I.Lw (t 0, 0, s 0));            (* block 0: call after load *)
      Ins (I.Jal "q");
      Ins (I.Beq (t 0, zero, "a"));
      Ins (I.Lw (t 1, 0, s 1));            (* block 1: p != q *)
      Ins (I.Lw (t 2, 4, s 1));
      Ins (I.Bne (t 1, t 2, "b"));
      Ins (I.Lw (t 3, 0, Mips.Reg.gp));    (* block 2: a global *)
      Ins (I.Beq (t 3, zero, "a"));
      Ins (I.Lw (t 4, 0, s 2));            (* block 3: reloaded after *)
      Ins (I.Jal "q");                     (* the call *)
      Ins (I.Lw (t 4, 8, s 2));
      Ins (I.Beq (t 4, zero, "b"));
      Ins (I.Fcmp (I.Feq, f 0, f 1));      (* block 4: FP equality *)
      Ins (I.Bfp (true, "b"));
      Lab "a";
      Ins I.Ret;
      Lab "b";
      Ins I.Ret;
    ]
  in
  let prog = Mips.Program.make ~entry:"p" [ ("p", items); ("q", [ Ins I.Ret ]) ] in
  let analyses = Cfg.Analysis.of_program prog in
  Array.iter (check_masks "hand-built") analyses;
  let a = analyses.(0) in
  let point b =
    match Cfg.Graph.branch_edges a.graph b with
    | Some (te, fe) -> H.apply H.Point a ~block:b ~taken:te.dst ~fall:fe.dst
    | None -> Alcotest.failf "block %d has no branch" b
  in
  checkb "call between load and test" true (point 0 = None);
  checkb "p != q" true (point 1 = Some true);
  checkb "load off $gp" true (point 2 = None);
  checkb "reloaded after the call" true (point 3 = Some false)

let test_masks_match_lists () =
  List.iter
    (fun wl ->
      let r = Experiments.Bench_run.load wl in
      Array.iter (check_masks wl.Workloads.Workload.name)
        (Cfg.Analysis.of_program r.prog))
    Workloads.Registry.all;
  (* the 120 seeded generator programs [test_decode] pins *)
  for i = 0 to 119 do
    let cs = Fuzz.Gen.case_seed ~seed:1993 ~index:i in
    let size = 8 + (i mod 13) in
    let src = Fuzz.Gen.to_source (Fuzz.Gen.generate ~seed:cs ~size) in
    Array.iter
      (check_masks (Printf.sprintf "fuzz case %d" i))
      (Cfg.Analysis.of_program (Minic.Frontend.compile src))
  done

(* ---- Subset rank/unrank edge cases ---- *)

let test_unrank_edge_cases () =
  let module S = Predict.Subset in
  checkb "k=0 combination" true (S.unrank ~n:5 ~k:0 0 = [||]);
  checki "k=0 rank" 0 (S.rank ~n:5 ~k:0 [||]);
  checkb "k=n combination" true (S.unrank ~n:5 ~k:5 0 = [| 0; 1; 2; 3; 4 |]);
  checki "k=n rank" 0 (S.rank ~n:5 ~k:5 [| 0; 1; 2; 3; 4 |]);
  let last = S.unrank ~n:6 ~k:3 (S.choose 6 3 - 1) in
  checkb "maximal rank is last combination" true (last = [| 3; 4; 5 |]);
  checki "maximal rank roundtrip" (S.choose 6 3 - 1) (S.rank ~n:6 ~k:3 last);
  (try
     ignore (S.unrank ~n:6 ~k:3 (S.choose 6 3));
     Alcotest.fail "rank out of range accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (S.unrank ~n:6 ~k:3 (-1));
     Alcotest.fail "negative rank accepted"
   with Invalid_argument _ -> ())

let tests =
  [
    ( "heuristics",
      [
        Alcotest.test_case "opcode bltz" `Quick test_opcode_heuristic;
        Alcotest.test_case "opcode fp equality" `Quick test_opcode_fp_equality;
        Alcotest.test_case "pointer" `Quick test_pointer_heuristic;
        Alcotest.test_case "pointer excludes gp" `Quick test_pointer_excludes_gp;
        Alcotest.test_case "call" `Quick test_call_heuristic;
        Alcotest.test_case "return" `Quick test_return_heuristic;
        Alcotest.test_case "store" `Quick test_store_heuristic;
        Alcotest.test_case "guard" `Quick test_guard_heuristic;
        Alcotest.test_case "loop" `Quick test_loop_heuristic;
      ] );
    ( "extended heuristics",
      [
        Alcotest.test_case "distance applies" `Quick test_ext_distance_applies;
        Alcotest.test_case "guard+ depth" `Quick test_ext_guard_deep;
        Alcotest.test_case "masks = list primitives" `Quick
          test_masks_match_lists;
        Alcotest.test_case "masks, hand-built cases" `Quick
          test_masks_hand_built;
        Alcotest.test_case "postdom" `Quick test_ext_postdom;
      ] );
    ( "classify",
      [
        Alcotest.test_case "rotated loop" `Quick
          test_classification_rotated_loop;
      ] );
    ( "combined",
      [
        Alcotest.test_case "first applicable" `Quick
          test_combined_first_applicable;
        Alcotest.test_case "validate" `Quick test_validate_order;
        Alcotest.test_case "metrics" `Quick test_metrics;
        Alcotest.test_case "seed threading" `Quick
          test_combined_seed_threading;
        Alcotest.test_case "seed matches database" `Quick
          test_combined_seed_matches_database;
      ] );
    ( "orderings",
      [
        Alcotest.test_case "roundtrip exhaustive" `Quick
          test_order_roundtrip_exhaustive;
        Alcotest.test_case "all distinct" `Quick test_all_orders_distinct;
        Alcotest.test_case "choose" `Quick test_choose;
        Alcotest.test_case "unrank/rank roundtrip" `Quick
          test_unrank_rank_roundtrip;
        Alcotest.test_case "unrank/rank edges" `Quick
          test_unrank_edge_cases;
        Alcotest.test_case "subset small" `Quick test_subset_run_small;
        Alcotest.test_case "subset max trials" `Quick
          test_subset_respects_max_trials;
        Alcotest.test_case "subset prune threshold" `Quick
          test_subset_prune_threshold;
        Alcotest.test_case "subset chunk prune threshold" `Quick
          test_subset_chunk_prune_threshold;
        Alcotest.test_case "subset chunk prune fires" `Quick
          test_subset_chunk_prune_fires;
        Alcotest.test_case "subset rejects bad matrix" `Quick
          test_subset_rejects_bad_matrix;
        Alcotest.test_case "miss matrix = direct evaluation" `Quick
          test_miss_matrix_matches_direct;
      ] );
    ( "properties",
      List.map qcheck
        [
          prop_order_roundtrip;
          prop_unrank_rank_roundtrip;
          prop_subset_run_j1_equals_j4;
          prop_subset_total_wins;
          prop_subset_run_equals_reference;
          prop_perfect_is_optimal;
          prop_tally_matches_reference;
        ] );
  ]
