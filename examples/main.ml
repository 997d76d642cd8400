(* The examples: [main.exe NAME [ARG]] runs one, e.g.
   [dune exec examples/main.exe hot_paths xlisp].  Each lives in its
   own file as [run args]. *)

let examples =
  [
    ("quickstart", Quickstart.run);
    ("hot_paths", Hot_paths.run);
    ("pipeline_cost", Pipeline_cost.run);
    ("ordering_search", Ordering_search.run);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: name :: args when List.mem_assoc name examples ->
    (List.assoc name examples) args
  | args ->
    (match args with
     | _ :: name :: _ -> prerr_endline ("unknown example " ^ name)
     | _ -> ());
    prerr_endline "usage: main.exe NAME [ARG]";
    prerr_endline ("examples: " ^ String.concat " " (List.map fst examples));
    exit 2
