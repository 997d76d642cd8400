type proc = {
  name : string;
  index : int;
  body : int Insn.t array;
}

type t = {
  procs : proc array;
  entry : int;
  idata : (int * int) list;
  fdata : (int * float) list;
}

let gp_base = 1024
let heap_base = 65536
let stack_base = 4_194_304
let mem_words = 4_194_560

exception Unknown_procedure of string

let proc_index t name =
  let rec find i =
    if i >= Array.length t.procs then raise (Unknown_procedure name)
    else if String.equal t.procs.(i).name name then i
    else find (i + 1)
  in
  find 0

let find_proc t name = t.procs.(proc_index t name)

let make ?(idata = []) ?(fdata = []) ~entry procs =
  let procs =
    Array.of_list
      (List.mapi
         (fun index (name, items) -> { name; index; body = Asm.assemble items })
         procs)
  in
  let t = { procs; entry = 0; idata; fdata } in
  (* Check that every call target exists before the program runs. *)
  Array.iter
    (fun p ->
      Array.iter
        (function Insn.Jal callee -> ignore (proc_index t callee) | _ -> ())
        p.body)
    procs;
  { t with entry = proc_index t entry }

let code_size t =
  Array.fold_left (fun acc p -> acc + Array.length p.body) 0 t.procs

let static_branch_count t =
  Array.fold_left
    (fun acc p ->
      Array.fold_left
        (fun acc i -> if Insn.is_cond_branch i then acc + 1 else acc)
        acc p.body)
    0 t.procs

let pp ppf t =
  Array.iter
    (fun p ->
      Format.fprintf ppf "%s:@." p.name;
      Array.iteri
        (fun idx i ->
          Format.fprintf ppf "  %4d  %a@." idx (Insn.pp Format.pp_print_int) i)
        p.body)
    t.procs
