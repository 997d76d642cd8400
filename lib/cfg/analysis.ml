type t = {
  graph : Graph.t;
  dom : Dom.t;
  pdom : Dom.t;
  loops : Loops.t;
  use_mask : int array;
  def_mask : int array;
  fuse_mask : int array;
  fdef_mask : int array;
  has_call : bool array;
  has_return : bool array;
  has_store : bool array;
}

let reg_mask rs = List.fold_left (fun m r -> m lor (1 lsl Mips.Reg.to_int r)) 0 rs
let freg_mask rs = List.fold_left (fun m r -> m lor (1 lsl Mips.Freg.to_int r)) 0 rs

let of_proc (proc : Mips.Program.proc) =
  let graph = Graph.build proc in
  let dom = Dom.of_graph graph in
  let pdom = Dom.post_of_graph graph in
  let loops = Loops.of_graph graph dom in
  let body = proc.body in
  let per_insn f = Array.map f body in
  let per_block p =
    Array.init graph.nblocks (fun b ->
        let rec scan i = i <= graph.last.(b) && (p body.(i) || scan (i + 1)) in
        scan graph.first.(b))
  in
  {
    graph;
    dom;
    pdom;
    loops;
    use_mask = per_insn (fun i -> reg_mask (Mips.Insn.uses i));
    def_mask = per_insn (fun i -> reg_mask (Mips.Insn.defs i));
    fuse_mask = per_insn (fun i -> freg_mask (Mips.Insn.fuses i));
    fdef_mask = per_insn (fun i -> freg_mask (Mips.Insn.fdefs i));
    has_call = per_block Mips.Insn.is_call;
    has_return = per_block Mips.Insn.is_return;
    has_store = per_block Mips.Insn.is_store;
  }

let of_program (p : Mips.Program.t) = Array.map of_proc p.procs

let postdominates t s b = Dom.dominates t.pdom s b
let dominates t v w = Dom.dominates t.dom v w
