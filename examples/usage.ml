(* A bad example argument: [main.exe] prints the message and the usage
   and exits 2. *)

exception Bad of string

let int_arg what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Bad (Printf.sprintf "%s must be an integer, not %S" what s))
