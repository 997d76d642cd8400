type iplane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type fplane =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  prog : Mips.Program.t;
  iregs : int array;
  fregs : float array;
  mutable fcc : bool;
  mem_i : iplane;
  mem_f : fplane;
  mutable proc : int;
  mutable pc : int;
  mutable instrs : int;
  mutable checksum : int;
  mutable icursor : int;
  mutable fcursor : int;
  input : Dataset.t;
}

exception Fault of string
exception Out_of_fuel of string

type stats = {
  instr_count : int;
  checksum : int;
  ints_read : int;
  floats_read : int;
}

let fault m fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Fault
           (Printf.sprintf "%s (at %s+%d, %d instructions executed)" msg
              m.prog.procs.(m.proc).name m.pc m.instrs)))
    fmt

(* Fuel exhaustion is its own exception, not a [Fault]: a program that
   runs past its step budget is a resource-limit event the supervision
   layer must classify ([Fuel_exhausted]) and report distinctly from a
   genuine runtime error.  The text carries the same location context
   as a [Fault]. *)
let out_of_fuel m =
  raise
    (Out_of_fuel
       (Printf.sprintf
          "out of fuel: instruction limit exceeded (at %s+%d, %d instructions executed)"
          m.prog.procs.(m.proc).name m.pc m.instrs))

(* The fuel budget of a run that does not pass [?max_instrs]: high
   enough that no real workload comes near it, low enough that a
   runaway generated program fails in bounded time instead of hanging
   a domain forever. *)
let fuel_budget = 2_000_000_000

let max_call_depth = 65536

(* Memory planes are private mappings of /dev/zero: the kernel hands
   out zero pages on first touch, so a plane costs resident memory only
   for the pages a program writes, not for its [mem_words] words.
   Every run maps its own pair; its pages go back to the system when
   the GC finalises the planes. *)
let map_zero kind =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd kind Bigarray.c_layout false
           [| Mips.Program.mem_words |]))

let map_planes () = (map_zero Bigarray.int, map_zero Bigarray.float64)

let create prog input =
  let mem_i, mem_f = map_planes () in
  let m =
    {
      prog;
      iregs = Array.make 32 0;
      fregs = Array.make 32 0.;
      fcc = false;
      mem_i;
      mem_f;
      proc = prog.entry;
      pc = 0;
      instrs = 0;
      checksum = 0;
      icursor = 0;
      fcursor = 0;
      input;
    }
  in
  List.iter (fun (a, v) -> mem_i.{a} <- v) prog.idata;
  List.iter (fun (a, v) -> mem_f.{a} <- v) prog.fdata;
  m.iregs.(Mips.Reg.to_int Mips.Reg.gp) <- Mips.Program.gp_base;
  m.iregs.(Mips.Reg.to_int Mips.Reg.sp) <- Mips.Program.stack_base;
  m

let nobranch _ ~taken:_ = ()
let noindirect _ = ()

(* ---- the interpreter ----

   The hot loop is a tail-recursive [step c pc instrs] so the current
   procedure, program counter and instruction count live in registers;
   [m.pc]/[m.instrs] are synchronised only where an observer can look
   (branch/indirect callbacks and faults), with the values
   [run_decoded]'s interface documents, and [m.proc] is written at
   calls and returns.  Dispatch is a single match over [Decode.op] — no
   nested operand or condition matches survive to run time.  [step]
   tests neither the pc nor the fuel: the [Fall_off] sentinel at the
   end of every procedure does the first, and [enter] does the second
   once per straight-line run. *)

let run_decoded ?max_instrs ?(on_branch = nobranch)
    ?(on_indirect = noindirect) (d : Decode.t) input =
  let max_instrs =
    max 0 (Option.value max_instrs ~default:fuel_budget)
  in
  let prog = d.Decode.prog in
  let m = create prog input in
  let regs = m.iregs and fregs = m.fregs in
  let mem_i = m.mem_i and mem_f = m.mem_f in
  let mem_words = Mips.Program.mem_words in
  let ints = input.Dataset.ints and floats = input.Dataset.floats in
  let nints = Array.length ints and nfloats = Array.length floats in
  (* Full-depth return stacks, 2 x 65,536 words per run whatever the
     program's call depth.  They are also what paces plane
     finalisation: [map_planes]' mappings live outside the OCaml heap
     and add no GC pressure, so these major-heap allocations are what
     drive the collections that unmap finished runs' planes.  With
     64-entry stacks that grow on demand, 200 page-writing runs on one
     domain grew VmRSS by 78 MiB (test_sim's "residency stays bounded
     over many runs" allows 32), so shrinking them needs another way
     to release planes. *)
  let ret_proc = Array.make max_call_depth 0 in
  let ret_pc = Array.make max_call_depth 0 in
  let depth = ref 0 in
  let dprocs = d.Decode.procs in
  (* publish the loop's position to observers and fault messages *)
  let sync pc instrs =
    m.pc <- pc;
    m.instrs <- instrs
  in
  let finish instrs =
    m.instrs <- instrs;
    {
      instr_count = instrs;
      checksum = m.checksum;
      ints_read = min m.icursor nints;
      floats_read = min m.fcursor nfloats;
    }
  in
  (* Fuel is checked only where a straight-line run begins: at the start
     and wherever a transfer lands.  A run that fits the budget left
     executes unchecked.  One that does not runs on a private copy of
     the procedure's [ops] with a [Fuel_trap] at the slot where the
     budget ends — inside the run, so nothing but an earlier fault can
     stop it being reached.  The slot before the trap is un-fused, so
     no fused pair executes the trapped slot as its second half. *)
  let rec enter (c : Decode.dproc) pc instrs =
    let left = max_instrs - instrs in
    if Array.unsafe_get c.Decode.runs pc <= left then step c pc instrs
    else begin
      let ops = Array.copy c.Decode.ops in
      let trap = pc + left in
      ops.(trap) <- Decode.Fuel_trap;
      if left > 0 then ops.(trap - 1) <- Decode.unfuse ops.(trap - 1);
      step { c with ops } pc instrs
    end
  and step c pc instrs =
    let instrs = instrs + 1 in
    let args = c.Decode.args and a = 3 * pc in
    let x = Array.unsafe_get args a in
    let y = Array.unsafe_get args (a + 1) in
    let z = Array.unsafe_get args (a + 2) in
    match Array.unsafe_get c.Decode.ops pc with
    | Decode.Add_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y + Array.unsafe_get regs z);
      step c (pc + 1) instrs
    | Decode.Sub_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y - Array.unsafe_get regs z);
      step c (pc + 1) instrs
    | Decode.Mul_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y * Array.unsafe_get regs z);
      step c (pc + 1) instrs
    | Decode.Div_rr ->
      let b = Array.unsafe_get regs z in
      if b = 0 then begin
        sync pc instrs;
        fault m "division by zero"
      end
      else begin
        if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y / b);
        step c (pc + 1) instrs
      end
    | Decode.Rem_rr ->
      let b = Array.unsafe_get regs z in
      if b = 0 then begin
        sync pc instrs;
        fault m "remainder by zero"
      end
      else begin
        if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y mod b);
        step c (pc + 1) instrs
      end
    | Decode.And_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y land Array.unsafe_get regs z);
      step c (pc + 1) instrs
    | Decode.Or_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lor Array.unsafe_get regs z);
      step c (pc + 1) instrs
    | Decode.Xor_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lxor Array.unsafe_get regs z);
      step c (pc + 1) instrs
    | Decode.Sll_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lsl (Array.unsafe_get regs z land 63));
      step c (pc + 1) instrs
    | Decode.Sra_rr ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y asr (Array.unsafe_get regs z land 63));
      step c (pc + 1) instrs
    | Decode.Slt_rr ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y < Array.unsafe_get regs z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Sle_rr ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y <= Array.unsafe_get regs z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Seq_rr ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y = Array.unsafe_get regs z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Sne_rr ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y <> Array.unsafe_get regs z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Add_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y + z);
      step c (pc + 1) instrs
    | Decode.Sub_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y - z);
      step c (pc + 1) instrs
    | Decode.Mul_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y * z);
      step c (pc + 1) instrs
    | Decode.Div_ri ->
      if z = 0 then begin
        sync pc instrs;
        fault m "division by zero"
      end
      else begin
        if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y / z);
        step c (pc + 1) instrs
      end
    | Decode.Rem_ri ->
      if z = 0 then begin
        sync pc instrs;
        fault m "remainder by zero"
      end
      else begin
        if x <> 0 then Array.unsafe_set regs x (Array.unsafe_get regs y mod z);
        step c (pc + 1) instrs
      end
    | Decode.And_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y land z);
      step c (pc + 1) instrs
    | Decode.Or_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y lor z);
      step c (pc + 1) instrs
    | Decode.Xor_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y lxor z);
      step c (pc + 1) instrs
    | Decode.Sll_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y lsl (z land 63));
      step c (pc + 1) instrs
    | Decode.Sra_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y asr (z land 63));
      step c (pc + 1) instrs
    | Decode.Slt_ri ->
      Array.unsafe_set regs x (if Array.unsafe_get regs y < z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Sle_ri ->
      Array.unsafe_set regs x (if Array.unsafe_get regs y <= z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Seq_ri ->
      Array.unsafe_set regs x (if Array.unsafe_get regs y = z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Sne_ri ->
      Array.unsafe_set regs x (if Array.unsafe_get regs y <> z then 1 else 0);
      step c (pc + 1) instrs
    | Decode.Li ->
      Array.unsafe_set regs x y;
      step c (pc + 1) instrs
    | Decode.Move ->
      Array.unsafe_set regs x (Array.unsafe_get regs y);
      step c (pc + 1) instrs
    | Decode.Lw -> load_i c pc instrs x y z
    | Decode.Sw ->
      let addr = y + Array.unsafe_get regs z in
      if addr < 0 || addr >= mem_words then begin
        sync pc instrs;
        fault m "store to bad address %d" addr
      end
      else begin
        Bigarray.Array1.unsafe_set mem_i addr (Array.unsafe_get regs x);
        step c (pc + 1) instrs
      end
    | Decode.Fadd ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y +. Array.unsafe_get fregs z);
      step c (pc + 1) instrs
    | Decode.Fsub ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y -. Array.unsafe_get fregs z);
      step c (pc + 1) instrs
    | Decode.Fmul ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y *. Array.unsafe_get fregs z);
      step c (pc + 1) instrs
    | Decode.Fdiv ->
      Array.unsafe_set fregs x
        (Array.unsafe_get fregs y /. Array.unsafe_get fregs z);
      step c (pc + 1) instrs
    | Decode.Fneg ->
      Array.unsafe_set fregs x (-.Array.unsafe_get fregs y);
      step c (pc + 1) instrs
    | Decode.Fabs ->
      Array.unsafe_set fregs x (Float.abs (Array.unsafe_get fregs y));
      step c (pc + 1) instrs
    | Decode.Fli ->
      Array.unsafe_set fregs x (Array.unsafe_get c.Decode.fimms y);
      step c (pc + 1) instrs
    | Decode.Fmove ->
      Array.unsafe_set fregs x (Array.unsafe_get fregs y);
      step c (pc + 1) instrs
    | Decode.Ld -> load_f c pc instrs x y z
    | Decode.Sd ->
      let addr = y + Array.unsafe_get regs z in
      if addr < 0 || addr >= mem_words then begin
        sync pc instrs;
        fault m "f-store to bad address %d" addr
      end
      else begin
        Bigarray.Array1.unsafe_set mem_f addr (Array.unsafe_get fregs x);
        step c (pc + 1) instrs
      end
    | Decode.Itof ->
      Array.unsafe_set fregs x (float_of_int (Array.unsafe_get regs y));
      step c (pc + 1) instrs
    | Decode.Ftoi ->
      let v = Array.unsafe_get fregs y in
      if Float.is_nan v || Float.abs v >= 1e18 then begin
        sync pc instrs;
        fault m "float-to-int out of range"
      end
      else begin
        if x <> 0 then Array.unsafe_set regs x (int_of_float v);
        step c (pc + 1) instrs
      end
    | Decode.Fcmp_eq ->
      m.fcc <- Array.unsafe_get fregs x = Array.unsafe_get fregs y;
      step c (pc + 1) instrs
    | Decode.Fcmp_lt ->
      m.fcc <- Array.unsafe_get fregs x < Array.unsafe_get fregs y;
      step c (pc + 1) instrs
    | Decode.Fcmp_le ->
      m.fcc <- Array.unsafe_get fregs x <= Array.unsafe_get fregs y;
      step c (pc + 1) instrs
    | Decode.Beq ->
      branch c pc instrs z (Array.unsafe_get regs x = Array.unsafe_get regs y)
    | Decode.Bne ->
      branch c pc instrs z (Array.unsafe_get regs x <> Array.unsafe_get regs y)
    | Decode.Bltz -> branch c pc instrs z (Array.unsafe_get regs x < 0)
    | Decode.Blez -> branch c pc instrs z (Array.unsafe_get regs x <= 0)
    | Decode.Bgtz -> branch c pc instrs z (Array.unsafe_get regs x > 0)
    | Decode.Bgez -> branch c pc instrs z (Array.unsafe_get regs x >= 0)
    | Decode.Bfp_t -> branch c pc instrs z m.fcc
    | Decode.Bfp_f -> branch c pc instrs z (not m.fcc)
    | Decode.Jump -> enter c z instrs
    | Decode.Jtab ->
      let i = Array.unsafe_get regs x in
      let tab = Array.unsafe_get c.Decode.jtabs y in
      if i < 0 || i >= Array.length tab then begin
        sync pc instrs;
        fault m "jump table index %d out of range" i
      end
      else indirect c pc instrs (Array.unsafe_get tab i)
    | Decode.Call -> call pc instrs z
    | Decode.Ret ->
      if !depth = 0 then finish instrs
      else begin
        decr depth;
        let p = Array.unsafe_get ret_proc !depth in
        m.proc <- p;
        enter (Array.unsafe_get dprocs p) (Array.unsafe_get ret_pc !depth)
          instrs
      end
    | Decode.ReadI ->
      let v =
        if m.icursor < nints then Array.unsafe_get ints m.icursor else -1
      in
      m.icursor <- m.icursor + 1;
      if x <> 0 then Array.unsafe_set regs x v;
      step c (pc + 1) instrs
    | Decode.ReadF ->
      let v =
        if m.fcursor < nfloats then Array.unsafe_get floats m.fcursor else 0.
      in
      m.fcursor <- m.fcursor + 1;
      Array.unsafe_set fregs x v;
      step c (pc + 1) instrs
    | Decode.PrintI ->
      m.checksum <-
        ((m.checksum * 31) + Array.unsafe_get regs x) land 0x3FFFFFFFFFFF;
      step c (pc + 1) instrs
    | Decode.PrintF ->
      let v = Array.unsafe_get fregs x *. 4096. in
      let v =
        if Float.is_nan v || Float.abs v >= 1e18 then 0x5EED else int_of_float v
      in
      m.checksum <- ((m.checksum * 31) + v) land 0x3FFFFFFFFFFF;
      step c (pc + 1) instrs
    | Decode.Halt -> finish instrs
    | Decode.Nop -> step c (pc + 1) instrs
    | Decode.Fall_off ->
      sync pc (instrs - 1);
      fault m "fell off the end of procedure"
    | Decode.Fuel_trap ->
      sync pc (instrs - 1);
      out_of_fuel m
    (* Fused pairs: the first half with this slot's operands, the
       second with slot pc + 1's, counted as instruction [instrs + 1]
       there.  No first half writes [$zero] (those decode to [Nop]). *)
    | Decode.Add_ri_move ->
      Array.unsafe_set regs x (Array.unsafe_get regs y + z);
      Array.unsafe_set regs
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get regs (Array.unsafe_get args (a + 4)));
      step c (pc + 2) (instrs + 1)
    | Decode.Move_add_rr ->
      Array.unsafe_set regs x (Array.unsafe_get regs y);
      Array.unsafe_set regs
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get regs (Array.unsafe_get args (a + 4))
        + Array.unsafe_get regs (Array.unsafe_get args (a + 5)));
      step c (pc + 2) (instrs + 1)
    | Decode.Add_rr_ld ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y + Array.unsafe_get regs z);
      load_f c (pc + 1) (instrs + 1)
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get args (a + 4))
        (Array.unsafe_get args (a + 5))
    | Decode.Move_add_ri ->
      Array.unsafe_set regs x (Array.unsafe_get regs y);
      Array.unsafe_set regs
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get regs (Array.unsafe_get args (a + 4))
        + Array.unsafe_get args (a + 5));
      step c (pc + 2) (instrs + 1)
    | Decode.Move_move ->
      Array.unsafe_set regs x (Array.unsafe_get regs y);
      Array.unsafe_set regs
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get regs (Array.unsafe_get args (a + 4)));
      step c (pc + 2) (instrs + 1)
    | Decode.Add_rr_lw ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y + Array.unsafe_get regs z);
      load_i c (pc + 1) (instrs + 1)
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get args (a + 4))
        (Array.unsafe_get args (a + 5))
    | Decode.Slt_rr_bne ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y < Array.unsafe_get regs z then 1 else 0);
      branch c (pc + 1) (instrs + 1)
        (Array.unsafe_get args (a + 5))
        (Array.unsafe_get regs (Array.unsafe_get args (a + 3))
        <> Array.unsafe_get regs (Array.unsafe_get args (a + 4)))
    | Decode.Move_lw ->
      Array.unsafe_set regs x (Array.unsafe_get regs y);
      load_i c (pc + 1) (instrs + 1)
        (Array.unsafe_get args (a + 3))
        (Array.unsafe_get args (a + 4))
        (Array.unsafe_get args (a + 5))
  (* [Lw]/[Ld] at slot [pc], alone or as the second half of a pair *)
  and load_i c pc instrs x y z =
    let addr = y + Array.unsafe_get regs z in
    if addr < 0 || addr >= mem_words then begin
      sync pc instrs;
      fault m "load from bad address %d" addr
    end
    else begin
      if x <> 0 then
        Array.unsafe_set regs x (Bigarray.Array1.unsafe_get mem_i addr);
      step c (pc + 1) instrs
    end
  and load_f c pc instrs x y z =
    let addr = y + Array.unsafe_get regs z in
    if addr < 0 || addr >= mem_words then begin
      sync pc instrs;
      fault m "f-load from bad address %d" addr
    end
    else begin
      Array.unsafe_set fregs x (Bigarray.Array1.unsafe_get mem_f addr);
      step c (pc + 1) instrs
    end
  (* The observer calls live outside [step], so that no value of the
     dispatch loop is live across a call and [step] need not spill. *)
  and branch c pc instrs target taken =
    sync pc instrs;
    on_branch m ~taken;
    enter c (if taken then target else pc + 1) instrs
  and indirect c pc instrs target =
    sync pc instrs;
    on_indirect m;
    enter c target instrs
  and call pc instrs target =
    if !depth >= max_call_depth then begin
      sync pc instrs;
      fault m "call stack overflow"
    end;
    Array.unsafe_set ret_proc !depth m.proc;
    Array.unsafe_set ret_pc !depth (pc + 1);
    incr depth;
    m.proc <- target;
    enter (Array.unsafe_get dprocs target) 0 instrs
  in
  enter (Array.unsafe_get dprocs m.proc) 0 0

let run ?max_instrs ?on_branch ?on_indirect prog input =
  run_decoded ?max_instrs ?on_branch ?on_indirect (Decode.of_program prog)
    input
