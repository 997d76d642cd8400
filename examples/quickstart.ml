(* Quickstart: compile a MiniC program, predict its branches
   statically, then run it and check the predictions against the edge
   profile.

   Run with:  dune exec examples/main.exe quickstart *)

let source =
  {|
struct node { int key; struct node *next; };

/* classic list search: a null-pointer guard in a pointer-chasing
   loop — Guard and Pointer heuristic territory */
int member(struct node *list, int key) {
  while (list != null) {
    if (list->key == key) {
      return 1;
    }
    list = list->next;
  }
  return 0;
}

int main() {
  struct node *head = null;
  int i;
  int hits = 0;
  for (i = 0; i < 200; i++) {
    struct node *n = (struct node *)alloc(sizeof(struct node));
    n->key = i * 3;
    n->next = head;
    head = n;
  }
  for (i = 0; i < 600; i++) {
    hits = hits + member(head, i);
  }
  print(hits);
  return 0;
}
|}

let run _args =
  (* 1. compile *)
  let prog = Minic.Frontend.compile source in
  Printf.printf "compiled: %d procedures, %d instructions, %d branches\n\n"
    (Array.length prog.procs)
    (Mips.Program.code_size prog)
    (Mips.Program.static_branch_count prog);

  (* 2. analyse and profile *)
  let analyses = Cfg.Analysis.of_program prog in
  let dataset = Sim.Dataset.make ~name:"quickstart" [||] in
  let profile = Sim.Profile.run prog dataset in
  let db =
    Predict.Database.make prog analyses ~taken:profile.taken
      ~fall:profile.fall
  in

  (* 3. predict every branch of [member] and compare to reality *)
  let member_idx = Mips.Program.proc_index prog "member" in
  let order = Predict.Combined.paper_order in
  Printf.printf "branches of member():\n";
  Array.iter
    (fun (br : Predict.Database.branch) ->
      if br.proc = member_idx then begin
        let pred = Predict.Combined.predict order br in
        let actual_taken = br.taken_count > br.fall_count in
        Printf.printf
          "  pc %2d  %-22s %-8s predict %s  actual-majority %s  (%d/%d)  %s\n"
          br.pc
          (Mips.Insn.to_string prog.procs.(br.proc).body.(br.pc))
          (Format.asprintf "%a" Predict.Classify.pp_cls br.cls)
          (if pred then "T" else "F")
          (if actual_taken then "T" else "F")
          br.taken_count br.fall_count
          (if pred = actual_taken then "ok" else "MISS-majority")
      end)
    db.branches;

  (* 4. overall quality *)
  let branches = Array.to_list db.branches in
  Printf.printf "\nwhole program (%d dynamic branches):\n"
    (Predict.Metrics.total_exec branches);
  Printf.printf "  heuristic miss rate: %.1f%%\n"
    (100. *. Predict.Metrics.miss_rate (Predict.Combined.predict order) branches);
  Printf.printf "  perfect   miss rate: %.1f%%\n"
    (100. *. Predict.Metrics.perfect_rate branches)
