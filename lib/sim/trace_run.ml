type prediction_bits = bool array array

type result = {
  label : string;
  seq_counts : int array;
  seq_sums : int array;
  breaks : int;
  cond_misses : int;
  cond_execs : int;
  instr_count : int;
}

let bucket_width = 10
let nbuckets = 1000

(* Branch outcomes are packed eight to a byte, in chunks of
   [chunk_bits]: a run's record grows a chunk at a time, never copied,
   so even doduc's 3.5 million branches take under 0.5 MB and leave no
   garbage behind. *)
let chunk_bits = 1 lsl 17

type recording = {
  decoded : Decode.t;
  profile : Profile.t;
  outcomes : Bytes.t array;
      (* bit k set: the k-th conditional branch was taken *)
  branches : int;
  jumps : int array;  (* the table index of each jump-table transfer *)
}

let profile r = r.profile
let jump_table_transfers r = Array.length r.jumps

let record ?decoded prog input =
  let d =
    match decoded with
    | Some (d : Decode.t) ->
      assert (d.prog == prog);
      d
    | None -> Decode.of_program prog
  in
  let alloc () =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) 0)
      prog.Mips.Program.procs
  in
  let taken = alloc () and fall = alloc () in
  let fresh () = Bytes.make (chunk_bits / 8) '\000' in
  let full = ref [] and chunk = ref (fresh ()) and branches = ref 0 in
  let jumps = ref (Array.make 64 0) and njumps = ref 0 in
  let on_branch (m : Machine.t) ~taken:tk =
    let counts = if tk then taken else fall in
    let row = Array.unsafe_get counts m.proc in
    Array.unsafe_set row m.pc (Array.unsafe_get row m.pc + 1);
    let k = !branches in
    let bit = k land (chunk_bits - 1) in
    if bit = 0 && k > 0 then begin
      full := !chunk :: !full;
      chunk := fresh ()
    end;
    if tk then begin
      let b = !chunk and byte = bit lsr 3 in
      Bytes.unsafe_set b byte
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get b byte) lor (1 lsl (bit land 7))))
    end;
    branches := k + 1
  in
  (* the machine calls this before the transfer, so the index register
     still holds the table index *)
  let on_indirect (m : Machine.t) =
    let c = d.Decode.procs.(m.proc) in
    if !njumps = Array.length !jumps then begin
      let a = Array.make (2 * !njumps) 0 in
      Array.blit !jumps 0 a 0 !njumps;
      jumps := a
    end;
    !jumps.(!njumps) <- m.iregs.(c.Decode.args.(3 * m.pc));
    incr njumps
  in
  let stats = Machine.run_decoded ~on_branch ~on_indirect d input in
  {
    decoded = d;
    profile = { taken; fall; stats };
    outcomes = Array.of_list (List.rev (!chunk :: !full));
    branches = !branches;
    jumps = Array.sub !jumps 0 !njumps;
  }

type acc = {
  lbl : string;
  counts : int array;
  sums : int array;
  mutable last_break : int;  (* instruction index of previous break *)
  mutable nbreaks : int;
  mutable misses : int;
}

let close_sequence a pos =
  (* Sequence runs from (not including) the previous break up to and
     including this one. *)
  let len = pos - a.last_break in
  a.last_break <- pos;
  a.nbreaks <- a.nbreaks + 1;
  let b = min (len / bucket_width) (nbuckets - 1) in
  a.counts.(b) <- a.counts.(b) + 1;
  a.sums.(b) <- a.sums.(b) + len

let mismatch () =
  invalid_arg "Trace_run.replay: the recording does not fit the program"

let replay r predictors =
  let prog = r.decoded.Decode.prog in
  let accs =
    Array.of_list
      (List.map
         (fun (lbl, _) ->
           {
             lbl;
             counts = Array.make nbuckets 0;
             sums = Array.make nbuckets 0;
             last_break = 0;
             nbreaks = 0;
             misses = 0;
           })
         predictors)
  in
  let n = Array.length accs in
  if n >= Sys.int_size then
    invalid_arg "Trace_run.replay: too many predictors";
  (* masks.(proc).(pc): bit i set when predictor i predicts taken, so a
     branch's mispredictions are one XOR with its outcome *)
  let masks =
    Array.map
      (fun (p : Mips.Program.proc) -> Array.make (Array.length p.body) 0)
      prog.procs
  in
  List.iteri
    (fun i (_, bits) ->
      Array.iteri
        (fun proc row ->
          Array.iteri
            (fun pc taken ->
              if taken then
                masks.(proc).(pc) <- masks.(proc).(pc) lor (1 lsl i))
            row)
        bits)
    predictors;
  let all_taken = (1 lsl n) - 1 in
  let dprocs = r.decoded.Decode.procs in
  let outcomes = r.outcomes and jumps = r.jumps in
  let total = r.profile.stats.instr_count in
  let branch = ref 0 and jump = ref 0 in
  (* Return addresses, grown on demand: a replay maps no memory and
     needs only the depth the recorded run reached. *)
  let ret_proc = ref (Array.make 64 0) and ret_pc = ref (Array.make 64 0) in
  let depth = ref 0 in
  let push proc pc =
    if !depth = Array.length !ret_proc then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      ret_proc := grow !ret_proc;
      ret_pc := grow !ret_pc
    end;
    Array.unsafe_set !ret_proc !depth proc;
    Array.unsafe_set !ret_pc !depth pc;
    incr depth
  in
  (* From transfer to transfer: [runs] gives the slot of the next one
     and the instructions up to and including it, the branch outcomes
     and table indices where it goes.  Every step counts at least one
     instruction, and none may pass the recorded count, so a replay
     that does not fit its recording stops. *)
  let rec walk proc pc instrs =
    let c = Array.unsafe_get dprocs proc in
    let run = c.Decode.runs.(pc) in
    let t = pc + run - 1 in
    let instrs = instrs + run in
    if run = 0 || instrs > total then mismatch ();
    match Array.unsafe_get c.Decode.ops t with
    | Decode.Beq | Decode.Bne | Decode.Bltz | Decode.Blez | Decode.Bgtz
    | Decode.Bgez | Decode.Bfp_t | Decode.Bfp_f ->
      let k = !branch in
      if k >= r.branches then mismatch ();
      branch := k + 1;
      let taken =
        Char.code
          (Bytes.unsafe_get
             (Array.unsafe_get outcomes (k / chunk_bits))
             ((k land (chunk_bits - 1)) lsr 3))
        land (1 lsl (k land 7))
        <> 0
      in
      let wrong =
        Array.unsafe_get (Array.unsafe_get masks proc) t
        lxor if taken then all_taken else 0
      in
      if wrong <> 0 then
        for i = 0 to n - 1 do
          if wrong land (1 lsl i) <> 0 then begin
            let a = Array.unsafe_get accs i in
            a.misses <- a.misses + 1;
            close_sequence a instrs
          end
        done;
      walk proc
        (if taken then Array.unsafe_get c.Decode.args ((3 * t) + 2) else t + 1)
        instrs
    | Decode.Jump ->
      walk proc (Array.unsafe_get c.Decode.args ((3 * t) + 2)) instrs
    | Decode.Jtab ->
      let j = !jump in
      jump := j + 1;
      for i = 0 to n - 1 do
        close_sequence (Array.unsafe_get accs i) instrs
      done;
      let tab = c.Decode.jtabs.(c.Decode.args.((3 * t) + 1)) in
      walk proc tab.(jumps.(j)) instrs
    | Decode.Call ->
      push proc (t + 1);
      walk (Array.unsafe_get c.Decode.args ((3 * t) + 2)) 0 instrs
    | Decode.Ret when !depth > 0 ->
      decr depth;
      walk
        (Array.unsafe_get !ret_proc !depth)
        (Array.unsafe_get !ret_pc !depth)
        instrs
    | Decode.Ret | Decode.Halt -> instrs
    | _ -> mismatch ()
  in
  let instr_count = walk prog.entry 0 0 in
  if
    instr_count <> total
    || !branch <> r.branches
    || !jump <> Array.length jumps
  then mismatch ();
  (* Close the trailing sequence so the buckets partition the trace. *)
  Array.iter
    (fun a -> if instr_count > a.last_break then close_sequence a instr_count)
    accs;
  Array.to_list
    (Array.map
       (fun a ->
         {
           label = a.lbl;
           seq_counts = a.counts;
           seq_sums = a.sums;
           breaks = a.nbreaks;
           cond_misses = a.misses;
           cond_execs = r.branches;
           instr_count;
         })
       accs)

let run ?decoded prog input predictors =
  replay (record ?decoded prog input) predictors
