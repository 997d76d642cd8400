(* Writes every experiment's quick-run table to <id>.out in the
   current directory, and graph2's full run (all 705,432 trials of
   Table 4) to graph2.full.out.  The runtest alias diffs each file
   against the committed .expected snapshot; regenerate with

     dune build @golden && dune promote

   Output is byte-identical at any -j (the parallel sections all use
   deterministic decompositions), so the snapshots are stable across
   machines and pool widths. *)

let write file run =
  let oc = open_out file in
  let ppf = Format.formatter_of_out_channel oc in
  run ppf;
  Format.pp_print_flush ppf ();
  close_out oc

let () =
  Experiments.Driver.prewarm ();
  List.iter
    (fun (e : Experiments.Driver.experiment) ->
      write (e.id ^ ".out") (Option.value e.quick_run ~default:e.run))
    Experiments.Driver.all;
  write "graph2.full.out" (Option.get (Experiments.Driver.find "graph2")).run
