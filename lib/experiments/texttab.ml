let render ppf ~header rows =
  let ncols = List.length header in
  let pad row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    (header :: rows);
  let print_row row =
    List.iteri
      (fun i c ->
        let w = widths.(i) in
        let padded =
          if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c
        in
        Format.fprintf ppf "%s%s" padded (if i = ncols - 1 then "" else "  "))
      row;
    Format.fprintf ppf "@."
  in
  print_row header;
  let rule = Array.fold_left (fun acc w -> acc + w) 0 widths + (2 * (ncols - 1)) in
  Format.fprintf ppf "%s@." (String.make rule '-');
  List.iter print_row rows

let pct x =
  if Float.is_nan x then "-" else Printf.sprintf "%.0f" (100. *. x)

let pct1 x =
  if Float.is_nan x then "-" else Printf.sprintf "%.1f" (100. *. x)

let ratio a b =
  if Float.is_nan a && Float.is_nan b then "-"
  else Printf.sprintf "%s/%s" (pct a) (pct b)
