type t = int

let of_int n =
  if n < 0 || n > 31 then invalid_arg "Reg.of_int: register out of range";
  n

let to_int r = r

let zero = 0
let at = 1
let v0 = 2

let a i =
  if i < 0 || i > 3 then invalid_arg "Reg.a: argument register out of range";
  4 + i

(* $t0-$t7 are $8-$15; $t8-$t9 are $24-$25. *)
let t i =
  if i < 0 || i > 9 then invalid_arg "Reg.t: temporary register out of range";
  if i < 8 then 8 + i else 24 + (i - 8)

let s i =
  if i < 0 || i > 7 then invalid_arg "Reg.s: saved register out of range";
  16 + i

let gp = 28
let sp = 29
let fp = 30
let ra = 31

let num_temps = 10
let num_saved = 8

let equal = Int.equal

let names =
  [| "$zero"; "$at"; "$v0"; "$v1"; "$a0"; "$a1"; "$a2"; "$a3";
     "$t0"; "$t1"; "$t2"; "$t3"; "$t4"; "$t5"; "$t6"; "$t7";
     "$s0"; "$s1"; "$s2"; "$s3"; "$s4"; "$s5"; "$s6"; "$s7";
     "$t8"; "$t9"; "$k0"; "$k1"; "$gp"; "$sp"; "$fp"; "$ra" |]

let name r = names.(r)
