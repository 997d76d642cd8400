type distribution = {
  label : string;
  total_instrs : int;
  total_breaks : int;
  ipbc : float;
  miss_rate : float;
  by_instructions : float array;
  by_breaks : float array;
}

let bound j = (j + 1) * Sim.Trace_run.bucket_width

let of_result (r : Sim.Trace_run.result) =
  let total_instrs = r.instr_count in
  let total_breaks = r.breaks in
  let fi = float_of_int in
  let cum_of values total =
    let acc = ref 0 in
    Array.init Sim.Trace_run.nbuckets (fun j ->
        acc := !acc + values.(j);
        if total = 0 then 0. else fi !acc /. fi total)
  in
  {
    label = r.label;
    total_instrs;
    total_breaks;
    ipbc = (if total_breaks = 0 then fi total_instrs else fi total_instrs /. fi total_breaks);
    miss_rate =
      (if r.cond_execs = 0 then Float.nan else fi r.cond_misses /. fi r.cond_execs);
    by_instructions = cum_of r.seq_sums total_instrs;
    by_breaks = cum_of r.seq_counts total_breaks;
  }

let dividing_length d =
  let n = Array.length d.by_instructions in
  let rec go i =
    if i >= n then bound (n - 1)
    else if d.by_instructions.(i) >= 0.5 then bound i
    else go (i + 1)
  in
  go 0

(* The last bucket whose bound is at most [len], or 0 before the
   first. *)
let below cum len =
  let j = min (Array.length cum) (len / Sim.Trace_run.bucket_width) - 1 in
  if j < 0 then 0. else cum.(j)

let fraction_below d len = below d.by_instructions len
let breaks_below d len = below d.by_breaks len

let model ~miss_rate s = 1. -. ((1. -. miss_rate) ** float_of_int s)
