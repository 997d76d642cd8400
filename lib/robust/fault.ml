type kind = Hard | Fuel_exhausted

type t = {
  kind : kind;
  task : string;
  message : string;
  backtrace : string option;
}

let kind_name = function Hard -> "hard" | Fuel_exhausted -> "fuel-exhausted"

let kind_of_exn = function
  | Sim.Machine.Out_of_fuel _ -> Fuel_exhausted
  | _ -> Hard

let of_exn ?backtrace ~task exn =
  { kind = kind_of_exn exn; task; message = Printexc.to_string exn; backtrace }

let pp_banner ppf t =
  Format.fprintf ppf "!! %s FAILED [%s]: %s@." t.task (kind_name t.kind)
    t.message;
  match t.backtrace with
  | Some bt when String.trim bt <> "" ->
    Format.fprintf ppf "   backtrace:@.";
    String.split_on_char '\n' (String.trim bt)
    |> List.iter (fun line -> Format.fprintf ppf "   | %s@." line)
  | _ -> ()
