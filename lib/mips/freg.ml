type t = int

let of_int n =
  if n < 0 || n > 31 then invalid_arg "Freg.of_int: register out of range";
  n

let to_int r = r

let f0 = 0

let arg i =
  if i < 0 || i > 3 then invalid_arg "Freg.arg: out of range";
  12 + i

let temp i =
  if i < 0 || i > 7 then invalid_arg "Freg.temp: out of range";
  4 + i

let saved i =
  if i < 0 || i > 7 then invalid_arg "Freg.saved: out of range";
  20 + i

let num_temps = 8
let num_saved = 8

let equal = Int.equal
let name r = Printf.sprintf "$f%d" r
