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

type acc = {
  lbl : string;
  counts : int array;
  sums : int array;
  mutable last_break : int;  (* instruction index of previous break *)
  mutable nbreaks : int;
  mutable misses : int;
}

let record a pos =
  (* Sequence runs from (not including) the previous break up to and
     including this one. *)
  let len = pos - a.last_break in
  a.last_break <- pos;
  a.nbreaks <- a.nbreaks + 1;
  let b = min (len / bucket_width) (nbuckets - 1) in
  a.counts.(b) <- a.counts.(b) + 1;
  a.sums.(b) <- a.sums.(b) + len

let run ?decoded prog input predictors =
  let d =
    match decoded with
    | Some (d : Decode.t) ->
      assert (d.prog == prog);
      d
    | None -> Decode.of_program prog
  in
  let accs =
    List.map
      (fun (lbl, _) ->
        {
          lbl;
          counts = Array.make nbuckets 0;
          sums = Array.make nbuckets 0;
          last_break = 0;
          nbreaks = 0;
          misses = 0;
        })
      predictors
  in
  let arr = Array.of_list accs in
  let n = Array.length arr in
  if n >= Sys.int_size then invalid_arg "Trace_run.run: too many predictors";
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
  let cond_execs = ref 0 in
  let on_branch (m : Machine.t) ~taken =
    incr cond_execs;
    let wrong =
      Array.unsafe_get (Array.unsafe_get masks m.proc) m.pc
      lxor if taken then all_taken else 0
    in
    if wrong <> 0 then
      for i = 0 to n - 1 do
        if wrong land (1 lsl i) <> 0 then begin
          let a = Array.unsafe_get arr i in
          a.misses <- a.misses + 1;
          record a m.instrs
        end
      done
  in
  let on_indirect (m : Machine.t) =
    for i = 0 to n - 1 do
      record (Array.unsafe_get arr i) m.instrs
    done
  in
  let stats = Machine.run_decoded ~on_branch ~on_indirect d input in
  (* Close the trailing sequence so the buckets partition the trace. *)
  Array.iter
    (fun a -> if stats.instr_count > a.last_break then record a stats.instr_count)
    arr;
  List.map
    (fun a ->
      {
        label = a.lbl;
        seq_counts = a.counts;
        seq_sums = a.sums;
        breaks = a.nbreaks;
        cond_misses = a.misses;
        cond_execs = !cond_execs;
        instr_count = stats.instr_count;
      })
    accs
