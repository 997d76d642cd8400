module I = Mips.Insn

let invert (ins : int I.t) =
  match ins with
  | I.Beq (a, b, l) -> I.Bne (a, b, l)
  | I.Bne (a, b, l) -> I.Beq (a, b, l)
  | I.Bz (I.Ltz, r, l) -> I.Bz (I.Gez, r, l)
  | I.Bz (I.Gez, r, l) -> I.Bz (I.Ltz, r, l)
  | I.Bz (I.Lez, r, l) -> I.Bz (I.Gtz, r, l)
  | I.Bz (I.Gtz, r, l) -> I.Bz (I.Lez, r, l)
  | I.Bfp (s, l) -> I.Bfp (not s, l)
  | _ -> invalid_arg "Layout.invert: not a conditional branch"

(* Greedy trace formation: start at the entry, keep extending along
   the likely successor; start new traces at the first unplaced block
   (original order) when stuck. *)
let trace_order (g : Cfg.Graph.t) ~predict =
  let n = g.nblocks in
  let placed = Array.make n false in
  let order = ref [] in
  let place b =
    placed.(b) <- true;
    order := b :: !order
  in
  let likely_succ b =
    match Cfg.Graph.branch_edges g b with
    | Some (t, f) -> Some (if predict ~block:b then t.dst else f.dst)
    | None -> begin
      match g.succs.(b) with
      | [ { dst; kind = Cfg.Graph.Uncond; _ } ] -> Some dst
      | _ -> None (* switch, return, halt *)
    end
  in
  let rec chain b =
    place b;
    match likely_succ b with
    | Some s when not placed.(s) -> chain s
    | _ -> ()
  in
  chain 0;
  for b = 0 to n - 1 do
    if not placed.(b) then chain b
  done;
  Array.of_list (List.rev !order)

let block_label b = Printf.sprintf "B%d" b

(* How the conditional branch ending a block is emitted, given the
   block placed right after it: kept when its fall-through is next,
   inverted when its target is next (the old target becomes the
   fall-through), otherwise kept and followed by a jump to the
   fall-through. *)
type lowering = Keep | Invert | Keep_and_jump

let lower_branch ~next (te : Cfg.Graph.edge) (fe : Cfg.Graph.edge) =
  if next = Some fe.dst then Keep
  else if next = Some te.dst then Invert
  else Keep_and_jump

(* [f b next] for every block of the trace order, with the block placed
   after it. *)
let iter_placed order f =
  let n = Array.length order in
  Array.iteri
    (fun pos b -> f b (if pos + 1 < n then Some order.(pos + 1) else None))
    order

let reorder_proc ~predict (proc : Mips.Program.proc) =
  let g = Cfg.Graph.build proc in
  let order = trace_order g ~predict in
  let items = ref [] in
  let emit it = items := it :: !items in
  (* branch labels are instruction indices; they always land on block
     leaders, so translate through the enclosing block *)
  let lab l = block_label g.block_of_instr.(l) in
  iter_placed order (fun b next ->
      emit (Mips.Asm.Lab (block_label b));
      (* body instructions except the terminator *)
      for idx = g.first.(b) to g.last.(b) - 1 do
        emit (Mips.Asm.Ins (I.map_label lab proc.body.(idx)))
      done;
      let term = proc.body.(g.last.(b)) in
      match Cfg.Graph.branch_edges g b with
      | Some (te, fe) -> begin
        match lower_branch ~next te fe with
        | Keep -> emit (Mips.Asm.Ins (I.map_label lab term))
        | Invert ->
          emit
            (Mips.Asm.Ins
               (I.map_label (fun _ -> block_label fe.dst) (invert term)))
        | Keep_and_jump ->
          emit (Mips.Asm.Ins (I.map_label lab term));
          emit (Mips.Asm.Ins (I.J (block_label fe.dst)))
      end
      | None -> begin
        match term with
        | I.J l ->
          let dst = g.block_of_instr.(l) in
          if next <> Some dst then emit (Mips.Asm.Ins (I.J (block_label dst)))
        | I.Jtab _ | I.Ret | I.Halt ->
          emit (Mips.Asm.Ins (I.map_label lab term))
        | _ ->
          (* plain fall-through block *)
          emit (Mips.Asm.Ins (I.map_label lab term));
          (match g.succs.(b) with
          | [ { dst; _ } ] when next <> Some dst ->
            emit (Mips.Asm.Ins (I.J (block_label dst)))
          | _ -> ())
      end);
  { proc with body = Mips.Asm.assemble (List.rev !items) }

let predictor (db : Database.t) dir =
  let predictions = Hashtbl.create 512 in
  Array.iter
    (fun (br : Database.branch) ->
      Hashtbl.replace predictions (br.proc, br.block) (dir br))
    db.branches;
  fun ~proc ~block ->
    Option.value ~default:false (Hashtbl.find_opt predictions (proc, block))

let apply (prog : Mips.Program.t) ~predict =
  {
    prog with
    procs =
      Array.map
        (fun (p : Mips.Program.proc) ->
          reorder_proc ~predict:(fun ~block -> predict ~proc:p.index ~block) p)
        prog.procs;
  }

let taken_after (prog : Mips.Program.t) ~predict (profile : Sim.Profile.t) =
  let taken = ref 0 in
  Array.iter
    (fun (p : Mips.Program.proc) ->
      let g = Cfg.Graph.build p in
      let order = trace_order g ~predict:(predict ~proc:p.index) in
      iter_placed order (fun b next ->
          match Cfg.Graph.branch_edges g b with
          | Some (te, fe) ->
            (* an inverted branch is taken exactly when the original
               fell through *)
            let counts =
              match lower_branch ~next te fe with
              | Invert -> profile.fall
              | Keep | Keep_and_jump -> profile.taken
            in
            taken := !taken + counts.(p.index).(g.last.(b))
          | None -> ()))
    prog.procs;
  !taken

let taken_transfers prog dataset =
  let profile = Sim.Profile.run prog dataset in
  let taken =
    Array.fold_left (Array.fold_left ( + )) 0 profile.Sim.Profile.taken
  in
  (taken, Sim.Profile.branch_execs profile, profile.stats)
