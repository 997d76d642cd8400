let all =
  [
    Wl_congress.workload;
    Wl_ghostview.workload;
    Wl_gcc.workload;
    Wl_lcc.workload;
    Wl_rn.workload;
    Wl_espresso.workload;
    Wl_qpt.workload;
    Wl_awk.workload;
    Wl_xlisp.workload;
    Wl_eqntott.workload;
    Wl_addalg.workload;
    Wl_compress.workload;
    Wl_grep.workload;
    Wl_poly.workload;
    Wl_spice.workload;
    Wl_doduc.workload;
    Wl_fpppp.workload;
    Wl_dnasa7.workload;
    Wl_tomcatv.workload;
    Wl_matrix300.workload;
    Wl_costscale.workload;
    Wl_dcg.workload;
    Wl_sgefat.workload;
  ]

let find name =
  match List.find_opt (fun (w : Workload.t) -> String.equal w.name name) all with
  | Some w -> w
  | None -> raise Not_found

let traced () = List.filter (fun (w : Workload.t) -> w.traced) all

let without names =
  List.filter (fun (w : Workload.t) -> not (List.mem w.name names)) all
