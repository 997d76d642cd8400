type t = {
  taken : int array array;
  fall : int array array;
  stats : Machine.stats;
}

let run ?decoded prog input =
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
  let on_branch (m : Machine.t) ~taken:tk =
    let counts = if tk then taken else fall in
    let row = Array.unsafe_get counts m.proc in
    Array.unsafe_set row m.pc (Array.unsafe_get row m.pc + 1)
  in
  let stats = Machine.run_decoded ~on_branch d input in
  { taken; fall; stats }

let branch_execs t =
  let sum rows =
    Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 rows
  in
  sum t.taken + sum t.fall
