type t = {
  idom : int array;   (* -1 = root or unreachable *)
  depth : int array;  (* -1 = unreachable *)
  nreal : int;        (* block ids >= nreal are virtual *)
}

(* Cooper-Harvey-Kennedy iterative dominators over an explicit graph. *)
let compute ~n ~succ ~preds ~root =
  let rpo = Array.make n (-1) in
  let order = Array.make n (-1) in (* position in rpo, -1 if unreachable *)
  let visited = Array.make n false in
  let count = ref n in
  let rec dfs v =
    visited.(v) <- true;
    List.iter (fun w -> if not visited.(w) then dfs w) (succ v);
    decr count;
    rpo.(!count) <- v
  in
  dfs root;
  let start = !count in
  for i = start to n - 1 do
    order.(rpo.(i)) <- i
  done;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while order.(!f1) > order.(!f2) do
        f1 := idom.(!f1)
      done;
      while order.(!f2) > order.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = start to n - 1 do
      let b = rpo.(i) in
      if b <> root then begin
        let new_idom =
          List.fold_left
            (fun acc p ->
              if idom.(p) = -1 then acc
              else match acc with None -> Some p | Some a -> Some (intersect p a))
            None (preds b)
        in
        match new_idom with
        | Some d when idom.(b) <> d ->
          idom.(b) <- d;
          changed := true
        | _ -> ()
      end
    done
  done;
  idom.(root) <- -1;
  let depth = Array.make n (-1) in
  depth.(root) <- 0;
  for i = start + 1 to n - 1 do
    let b = rpo.(i) in
    if idom.(b) >= 0 then depth.(b) <- depth.(idom.(b)) + 1
  done;
  (idom, depth)

let of_graph (g : Graph.t) =
  let succ v = List.map (fun (e : Graph.edge) -> e.dst) g.succs.(v) in
  let preds v = List.map (fun (e : Graph.edge) -> e.src) g.preds.(v) in
  let idom, depth = compute ~n:g.nblocks ~succ ~preds ~root:0 in
  { idom; depth; nreal = g.nblocks }

let post_of_graph (g : Graph.t) =
  let n = g.nblocks in
  let exit = n in
  (* Reversed graph with a virtual exit: exits' successors-in-reverse
     are the blocks with no CFG successors. *)
  let rsucc = Array.make (n + 1) [] in
  let rpred = Array.make (n + 1) [] in
  let add u v =
    rsucc.(u) <- v :: rsucc.(u);
    rpred.(v) <- u :: rpred.(v)
  in
  for b = 0 to n - 1 do
    if g.succs.(b) = [] then add exit b
    else
      List.iter (fun (e : Graph.edge) -> add e.dst e.src) g.succs.(b)
  done;
  let idom, depth =
    compute ~n:(n + 1) ~succ:(fun v -> rsucc.(v)) ~preds:(fun v -> rpred.(v))
      ~root:exit
  in
  { idom; depth; nreal = n }

let idom t b =
  let d = t.idom.(b) in
  if d < 0 || d >= t.nreal then None else Some d

let dominates t v w =
  if v = w then true
  else if t.depth.(v) < 0 || t.depth.(w) < 0 then false
  else begin
    let rec climb w =
      if w = v then true
      else if w < 0 || t.depth.(w) <= t.depth.(v) then false
      else climb t.idom.(w)
    in
    climb t.idom.(w)
  end
