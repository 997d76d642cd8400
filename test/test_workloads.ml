(* Workload-suite tests: every benchmark compiles, runs to completion
   on every dataset with a stable (golden) instruction count, checksum
   and edge profile, and exhibits the branch-behaviour class it stands
   in for. *)

open Check

(* Golden (instructions, checksum, edge digest) per (workload,
   dataset), one row for every pair in the registry.  These pin down
   compiler and simulator determinism: any semantic change to code
   generation or the machine shows up here.  The edge digest is
   {!Edge_digest.of_edges} of the profile, so the taken/fall counts
   every table is derived from are pinned too. *)
let golden =
  [
    ("congress", "ref", 19973714, 348,
     "80fb44c89f09c2ec3a1e763e1671bf2e");
    ("congress", "alt1", 16305790, 308,
     "d20ea2b1574bc5c16c3bb9d1281dcbcb");
    ("congress", "alt2", 28380080, 308,
     "d06be659c1d27fa110e77c5564434827");
    ("ghostview", "ref", 15977899, 3361,
     "74d6f9d2b0157d1a3d9ef5b1c47eb985");
    ("ghostview", "alt1", 16372709, 3699,
     "1e27b5da6390563b2a14f63ec6e84939");
    ("gcc", "ref", 6080791, 23001,
     "1bd679712ceb3f88138a484c21d971de");
    ("gcc", "alt1", 5452889, 15230,
     "1defba5d61bc59c081299fe36b048176");
    ("gcc", "alt2", 6390903, 28183,
     "08b1310c1d0278c1a42f4812d0ce2f82");
    ("lcc", "ref", 27524596, 85808238,
     "ccbbfff33ba25f29e115f497588e3917");
    ("lcc", "alt1", 29559824, 61721358,
     "e257708780c984dda9e196aebf71ce79");
    ("lcc", "alt2", 23512983, 108748158,
     "d6d6dff7519ea9cf0653f4f8ef95666b");
    ("rn", "ref", 9648923, 31890443,
     "6fcfcc2f88f60a8df1c11a79d1b0d7e7");
    ("rn", "alt1", 6471325, 22093506,
     "228e09b2238d94a489139316ebd5ab3e");
    ("espresso", "ref", 16301568, 9929,
     "e5cc83ac12d6dcda760c0de03822a630");
    ("espresso", "alt1", 20641411, 6833,
     "64b58d7154143a1b77f98fb3c6aa3a19");
    ("espresso", "alt2", 10292377, 11328,
     "bdc6b2124be30f16bb91f7e8c06d37b8");
    ("qpt", "ref", 14511952, 10,
     "0d28ea81532c051a31f8eba7001b2600");
    ("qpt", "alt1", 16451092, 14,
     "a5c608e959c2122f622743c1155597f9");
    ("awk", "ref", 16145920, 4392097,
     "f17610e4f5eb2af5961d395206a37a4d");
    ("awk", "alt1", 11325094, 2568848,
     "440be5c5a55b1cf6dddc9d1924b9af34");
    ("xlisp", "ref", 1858272, 18343693,
     "c7a59471cba4c3bee41177f8ae73a2ac");
    ("xlisp", "alt1", 1313815, 11290349,
     "2b10ff539e6402fee0f8833905cfca1b");
    ("xlisp", "alt2", 1972940, 29354502,
     "5f624b9e54c4bac1720aaa788b8bb757");
    ("eqntott", "ref", 21247027, 34784,
     "bfda7cad47af64c237253e26ccf47223");
    ("eqntott", "alt1", 43049780, 32738,
     "f4d5b8ebe35fc33399aa1a5358722f66");
    ("addalg", "ref", 27016266, 22005510353708,
     "c2fdd7de1674b14725fd117863307517");
    ("addalg", "alt1", 15098986, 19609879071630,
     "993459d0089582de15d160bd6973c894");
    ("compress", "ref", 9984524, 24617302820549,
     "c0be234cb29f1b144ce591923943dc8d");
    ("compress", "alt1", 9064481, 67047103672115,
     "4940adeceb2ca7fd43c897fe4cc25427");
    ("compress", "alt2", 7973096, 46964468472202,
     "f5569d051e563f64ffd55879cc1c7e06");
    ("grep", "ref", 12953318, 2882311,
     "fc28081a91f456f96157a7a87f3b7cad");
    ("grep", "alt1", 13991149, 3101575,
     "e1b7bbe9c4992065e3ea457e51e2090d");
    ("poly", "ref", 18795942, 32981,
     "b948aa7cb76f17c53f302ed98728d920");
    ("poly", "alt1", 12137568, 22065,
     "6f7484f50cac7ca4a48ba08f5c9fe28f");
    ("spice2g6", "ref", 33384759, 70368744175566,
     "cf6b5aea020201e16fd61b27bd6efa82");
    ("spice2g6", "alt1", 46784199, 70368744143837,
     "0d6c6aaa0997f2481315c5cc0b05c92b");
    ("doduc", "ref", 47802766, 20268456,
     "f2fe61712084334bef85bc7cfd2c13f4");
    ("doduc", "alt1", 56191694, 26759963,
     "3588df12ef1d035d16a52e8309bf4ae6");
    ("doduc", "alt2", 43724360, 6213357,
     "5b4b599cf810833f943efa863060e0ca");
    ("fpppp", "ref", 44701408, 7089299,
     "9611f25177fedbf65aa11d1cb1a7b91e");
    ("fpppp", "alt1", 51041118, 8991,
     "92d37205a0518c811ef71304720e9e1b");
    ("dnasa7", "ref", 37018144, 3140659,
     "beb458cd46a6a4be9aa495805780e867");
    ("dnasa7", "alt1", 60494456, 5913625,
     "022a0c31a15913725f055ca0f734c51e");
    ("tomcatv", "ref", 32792822, 137625,
     "456063c062ce7042ee52de919f851850");
    ("tomcatv", "alt1", 33053690, 103219,
     "75392087542c85ee77f215450c608910");
    ("tomcatv", "alt2", 30699800, 68812,
     "6d6d998f274507b1598b78844f581180");
    ("matrix300", "ref", 22563650, 807526,
     "7ff8321696f3ea585abe6299b199893b");
    ("matrix300", "alt1", 19683240, 684551,
     "b26694496bf9187bd7076ec1274afe9b");
    ("costScale", "ref", 37335471, 2938,
     "897e32b5cbb1cfe7d3c1229dfe626be3");
    ("costScale", "alt1", 49636681, 3986,
     "bffc57dc79a30e01c7ad722e6fbe144b");
    ("dcg", "ref", 32942235, 7907346,
     "5f9086f18f3245391597845ee1a1f7ee");
    ("dcg", "alt1", 26466597, 7985569,
     "e22c6fdebb5d3ea7c4a87fc3d291ff83");
    ("dcg", "alt2", 21621290, 7800985,
     "28b0642f20fcd6eaacac607fd24cda73");
    ("sgefat", "ref", 37730525, 70368743204464,
     "7986c5c19b64f5bbdf822f5f702bb885");
    ("sgefat", "alt1", 32972851, 70368743636827,
     "bdad556e95833cfd8347bc62fc070968");
    ("sgefat", "alt2", 23512295, 23359,
     "4b447d8f5fd36f1d326e277dfad2f29a");
  ]

let test_roster () =
  checki "23 workloads" 23 (List.length Workloads.Registry.all);
  let names =
    List.map (fun (w : Workloads.Workload.t) -> w.name) Workloads.Registry.all
  in
  checki "unique names" 23 (List.length (List.sort_uniq compare names));
  let group lang =
    List.length
      (List.filter
         (fun (w : Workloads.Workload.t) -> w.lang = lang)
         Workloads.Registry.all)
  in
  checki "integer group" 14 (group Workloads.Workload.C);
  checki "float group" 9 (group Workloads.Workload.F);
  checki "traced set" 7 (List.length (Workloads.Registry.traced ()));
  checkb "traced are the paper's"
    true
    (List.sort compare
       (List.map (fun (w : Workloads.Workload.t) -> w.name)
          (Workloads.Registry.traced ()))
    = [ "doduc"; "fpppp"; "gcc"; "lcc"; "qpt"; "spice2g6"; "xlisp" ]);
  checkb "every workload has >= 2 datasets" true
    (List.for_all
       (fun (w : Workloads.Workload.t) -> List.length w.datasets >= 2)
       Workloads.Registry.all)

let test_without () =
  checki "without matrix300" 22
    (List.length (Workloads.Registry.without [ "matrix300" ]));
  checki "without most-exclusions" 19
    (List.length
       (Workloads.Registry.without [ "eqntott"; "grep"; "tomcatv"; "matrix300" ]))

let test_find () =
  checkb "find gcc" true
    ((Workloads.Registry.find "gcc").name = "gcc");
  try
    ignore (Workloads.Registry.find "nonesuch");
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

(* every (workload, dataset) pair profiled once, fanned out on the
   domain pool: compile and decode each workload, then simulate.
   Shared by the golden runs and the per-dataset database check. *)
let profiles =
  lazy
    (let progs =
       Par.Pool.parallel_map_list
         (fun (wl : Workloads.Workload.t) ->
           let prog = Workloads.Workload.compile wl in
           (wl, prog, Sim.Decode.of_program prog))
         Workloads.Registry.all
     in
     Par.Pool.parallel_map_list
       (fun ((wl : Workloads.Workload.t), prog, decoded, (ds : Sim.Dataset.t)) ->
         ((wl.name, ds.name), Sim.Profile.run ~decoded prog ds))
       (List.concat_map
          (fun ((wl : Workloads.Workload.t), prog, decoded) ->
            List.map (fun ds -> (wl, prog, decoded, ds)) wl.datasets)
          progs))

let test_golden_runs () =
  let runs = Lazy.force profiles in
  Alcotest.(check (list (pair string string)))
    "golden table covers every (workload, dataset)"
    (List.map (fun (name, dsname, _, _, _) -> (name, dsname)) golden)
    (List.map fst runs);
  List.iter2
    (fun (name, dsname, instrs, checksum, edges)
         (_, (p : Sim.Profile.t)) ->
      let where = Printf.sprintf "%s/%s " name dsname in
      checki (where ^ "instrs") instrs p.stats.instr_count;
      checki (where ^ "checksum") checksum p.stats.checksum;
      Alcotest.(check string) (where ^ "edge digest") edges
        (Edge_digest.of_edges p))
    golden runs

let test_all_compile_and_analyze () =
  List.iter
    (fun wl ->
      let prog = Workloads.Workload.compile wl in
      let analyses = Cfg.Analysis.of_program prog in
      checkb
        (wl.Workloads.Workload.name ^ " has procedures")
        true
        (Array.length analyses > 1);
      (* every procedure analysed without exception, with sane blocks *)
      Array.iter
        (fun (a : Cfg.Analysis.t) ->
          checkb "nonempty" true (a.graph.nblocks >= 1))
        analyses)
    Workloads.Registry.all

let test_branch_class_shapes () =
  (* the suite must span the paper's behaviour classes *)
  let share name =
    let r = Experiments.Bench_run.load (Workloads.Registry.find name) in
    let nl =
      Predict.Metrics.total_exec (Predict.Database.non_loop_branches r.db)
    in
    let all =
      Predict.Metrics.total_exec (Array.to_list r.db.branches)
    in
    float_of_int nl /. float_of_int all
  in
  (* pointer-chasing programs are dominated by non-loop branches *)
  checkb "gcc mostly non-loop" true (share "gcc" > 0.6);
  checkb "xlisp mostly non-loop" true (share "xlisp" > 0.6);
  (* FP kernels are dominated by loop branches *)
  checkb "matrix300 mostly loop" true (share "matrix300" < 0.2);
  checkb "dcg mostly loop" true (share "dcg" < 0.2)

let test_every_workload_exercises_branches () =
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let r = Experiments.Bench_run.load wl in
      let total = Predict.Metrics.total_exec (Array.to_list r.db.branches) in
      checkb (wl.name ^ " executes >10k branches") true (total > 10_000);
      (* both classes must be present statically *)
      checkb
        (wl.name ^ " has loop branches")
        true
        (Predict.Database.loop_branches r.db <> []);
      checkb
        (wl.name ^ " has non-loop branches")
        true
        (Predict.Database.non_loop_branches r.db <> []))
    Workloads.Registry.all

(* A per-dataset database shares the primary's static facts and swaps
   only the counts; it must equal one built from scratch on that
   dataset's profile, field for field, for every (workload, dataset),
   and share the primary's verdict arrays. *)
let test_db_for_equals_make () =
  let module D = Predict.Database in
  let runs = Lazy.force profiles in
  let pairs =
    List.concat_map
      (fun (wl : Workloads.Workload.t) ->
        List.map (fun ds -> (wl, ds)) wl.datasets)
      Workloads.Registry.all
  in
  (* on a cold store each [db_for] simulates, so fan out like [profiles] *)
  let dbs =
    Par.Pool.parallel_map_list
      (fun (wl, ds) ->
        let r = Experiments.Bench_run.load wl in
        (r, Experiments.Bench_run.db_for r ds))
      pairs
  in
  List.iter2
    (fun ((wl : Workloads.Workload.t), (ds : Sim.Dataset.t))
         ((r : Experiments.Bench_run.t), (got : D.t)) ->
      let where = Printf.sprintf "%s/%s" wl.name ds.name in
      let (p : Sim.Profile.t) = List.assoc (wl.name, ds.name) runs in
      let fresh =
        D.make r.prog (Cfg.Analysis.of_program r.prog) ~taken:p.taken
          ~fall:p.fall
      in
      checkb (where ^ " program") true (got.program == fresh.program);
      (* the verdict arrays are the static database's, not copies *)
      Array.iteri
        (fun i (b : D.branch) ->
          let s = r.db.branches.(i) in
          if not (b.heur == s.heur && b.ext == s.ext) then
            Alcotest.failf "%s: branch %d copies its verdicts" where i)
        got.branches;
      checki (where ^ " branches")
        (Array.length fresh.branches) (Array.length got.branches);
      Array.iteri
        (fun i (b : D.branch) ->
          if b <> got.branches.(i) then
            Alcotest.failf "%s: branch %d (proc %d, pc %d) differs" where i
              b.proc b.pc)
        fresh.branches)
    pairs dbs

let test_dataset_checksums_differ () =
  (* different datasets genuinely exercise different behaviour; the
     golden runs tie these checksums to live simulations *)
  List.iter
    (fun (wl : Workloads.Workload.t) ->
      let sums =
        List.filter_map
          (fun (name, _, _, checksum, _) ->
            if String.equal name wl.name then Some checksum else None)
          golden
      in
      checkb
        (wl.name ^ " datasets distinguishable")
        true
        (List.length (List.sort_uniq compare sums) >= 2))
    Workloads.Registry.all

let tests =
  [
    ( "registry",
      [
        Alcotest.test_case "roster" `Quick test_roster;
        Alcotest.test_case "without" `Quick test_without;
        Alcotest.test_case "find" `Quick test_find;
      ] );
    ( "execution",
      [
        Alcotest.test_case "golden runs" `Slow test_golden_runs;
        Alcotest.test_case "compile+analyze" `Quick
          test_all_compile_and_analyze;
        Alcotest.test_case "class shapes" `Quick test_branch_class_shapes;
        Alcotest.test_case "branch volume" `Quick
          test_every_workload_exercises_branches;
        Alcotest.test_case "dataset variety" `Quick
          test_dataset_checksums_differ;
        Alcotest.test_case "db_for = Database.make" `Slow
          test_db_for_equals_make;
      ] );
  ]
