type tally = { exec : int; cov_exec : int; cov_miss : int; cov_perfect : int }

let tally partial branches =
  List.fold_left
    (fun t (b : Database.branch) ->
      let exec = t.exec + Database.exec b in
      match partial b with
      | Some dir ->
        {
          exec;
          cov_exec = t.cov_exec + Database.exec b;
          cov_miss = t.cov_miss + Database.misses b dir;
          cov_perfect = t.cov_perfect + Database.perfect_misses b;
        }
      | None -> { t with exec })
    { exec = 0; cov_exec = 0; cov_miss = 0; cov_perfect = 0 }
    branches

let ratio num den =
  if den = 0 then Float.nan else float_of_int num /. float_of_int den

let coverage t = ratio t.cov_exec t.exec
let miss t = ratio t.cov_miss t.cov_exec
let perfect t = ratio t.cov_perfect t.cov_exec

let miss_rate predictor branches =
  miss (tally (fun b -> Some (predictor b)) branches)

let perfect_rate branches = perfect (tally (fun _ -> Some true) branches)

let total_exec branches =
  List.fold_left (fun acc b -> acc + Database.exec b) 0 branches

let big_branches ~threshold branches =
  let total = total_exec branches in
  if total = 0 then ([], 0.)
  else begin
    let cutoff = threshold *. float_of_int total in
    let big =
      List.filter (fun b -> float_of_int (Database.exec b) > cutoff) branches
    in
    (big, ratio (total_exec big) total)
  end
