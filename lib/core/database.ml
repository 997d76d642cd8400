type branch = {
  proc : int;
  block : int;
  pc : int;
  taken_dst : int;
  fall_dst : int;
  cls : Classify.cls;
  taken_count : int;
  fall_count : int;
  heur : bool option array;
  ext : bool option array;
  loop_pred : bool;
  rand_pred : bool;
  backward : bool;
}

type t = {
  program : Mips.Program.t;
  branches : branch array;
}

let seed = 42

(* splitmix64-style avalanche for a reproducible per-branch coin. *)
let rand_bit ~seed ~proc ~pc =
  let z = ref (seed * 0x9E3779B9 + (proc * 65599) + pc + 0x1234567) in
  z := (!z lxor (!z lsr 30)) * 0x4F58476D1CE4E5B9;
  z := (!z lxor (!z lsr 27)) * 0x14D049BB133111EB;
  z := !z lxor (!z lsr 31);
  !z land 1 = 1

let make program analyses ~taken ~fall =
  let branches = ref [] in
  Array.iteri
    (fun pidx (a : Cfg.Analysis.t) ->
      let g = a.graph in
      for b = 0 to g.nblocks - 1 do
        match Cfg.Graph.branch_edges g b with
        | None -> ()
        | Some (te, fe) ->
          let pc = g.last.(b) in
          let taken_dst = te.dst and fall_dst = fe.dst in
          let cls = Classify.classify a ~block:b ~taken:taken_dst ~fall:fall_dst in
          let heur =
            Array.init Heuristic.count (fun h ->
                Heuristic.apply (Heuristic.of_int h) a ~block:b ~taken:taken_dst
                  ~fall:fall_dst)
          in
          let ext =
            Array.of_list
              (List.map
                 (fun h ->
                   Heuristic_ext.apply h a ~block:b ~taken:taken_dst
                     ~fall:fall_dst)
                 Heuristic_ext.all)
          in
          let br =
            {
              proc = pidx;
              block = b;
              pc;
              taken_dst;
              fall_dst;
              cls;
              taken_count = taken.(pidx).(pc);
              fall_count = fall.(pidx).(pc);
              heur;
              ext;
              loop_pred =
                Classify.loop_predict a ~block:b ~taken:taken_dst ~fall:fall_dst;
              rand_pred = rand_bit ~seed ~proc:pidx ~pc;
              backward = Classify.is_backward g ~block:b ~taken:taken_dst;
            }
          in
          branches := br :: !branches
      done)
    analyses;
  { program; branches = Array.of_list (List.rev !branches) }

(* The static facts are shared: only the two counts are per dataset. *)
let with_counts t ~taken ~fall =
  {
    t with
    branches =
      Array.map
        (fun br ->
          {
            br with
            taken_count = taken.(br.proc).(br.pc);
            fall_count = fall.(br.proc).(br.pc);
          })
        t.branches;
  }

let exec br = br.taken_count + br.fall_count
let misses br pred = if pred then br.fall_count else br.taken_count
let perfect_misses br = min br.taken_count br.fall_count

let loop_branches t =
  List.filter
    (fun b -> b.cls = Classify.Loop_branch)
    (Array.to_list t.branches)

let non_loop_branches t =
  List.filter
    (fun b -> b.cls = Classify.Non_loop_branch)
    (Array.to_list t.branches)
