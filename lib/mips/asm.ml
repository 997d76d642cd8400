type item =
  | Ins of string Insn.t
  | Lab of string

exception Unknown_label of string
exception Duplicate_label of string

(* [J l] is redundant when [l] is defined before the next instruction. *)
let drop_trivial_jumps items =
  let rec falls_to l = function
    | Lab l' :: rest -> String.equal l l' || falls_to l rest
    | Ins _ :: _ | [] -> false
  in
  let rec go = function
    | [] -> []
    | Ins (Insn.J l) :: rest when falls_to l rest -> go rest
    | it :: rest -> it :: go rest
  in
  go items

let assemble items =
  let items = drop_trivial_jumps items in
  let tbl = Hashtbl.create 64 in
  let n =
    List.fold_left
      (fun idx item ->
        match item with
        | Ins _ -> idx + 1
        | Lab l ->
          if Hashtbl.mem tbl l then raise (Duplicate_label l);
          Hashtbl.add tbl l idx;
          idx)
      0 items
  in
  (* A label at the very end would fall off the procedure; pad with a
     defensive halt so it stays a valid target. *)
  let needs_pad = Hashtbl.fold (fun _ idx acc -> acc || idx >= n) tbl false in
  let resolve l =
    match Hashtbl.find_opt tbl l with
    | Some idx -> idx
    | None -> raise (Unknown_label l)
  in
  let insns =
    List.filter_map
      (function Ins i -> Some (Insn.map_label resolve i) | Lab _ -> None)
      items
  in
  let insns = if needs_pad then insns @ [ Insn.Halt ] else insns in
  Array.of_list insns
