(* The examples: [main.exe NAME [ARG]] runs one, e.g.
   [dune exec examples/main.exe pipeline_cost 3].  Each lives in its
   own file as [run args]; a bad argument, an unknown example or none
   prints the usage and exits 2. *)

let examples =
  [
    ("quickstart", Quickstart.run);
    ("pipeline_cost", Pipeline_cost.run);
    ("ordering_search", Ordering_search.run);
  ]

let usage msg =
  Option.iter prerr_endline msg;
  prerr_endline "usage: main.exe NAME [ARG]";
  prerr_endline ("examples: " ^ String.concat " " (List.map fst examples));
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: name :: args when List.mem_assoc name examples -> (
    try (List.assoc name examples) args with Usage.Bad msg -> usage (Some msg))
  | _ :: name :: _ -> usage (Some ("unknown example " ^ name))
  | _ -> usage None
