(* Pinned fingerprints of simulation results.  The text rendering is
   canonical and independent of the OCaml version (no [Marshal]), so a
   digest captured once stays comparable: one line per procedure with
   its body length, then one "pc taken fall" line per branch slot that
   executed. *)

let render_edges b (p : Sim.Profile.t) =
  Array.iteri
    (fun proc taken ->
      let fall = p.fall.(proc) in
      Printf.bprintf b "proc %d %d\n" proc (Array.length taken);
      Array.iteri
        (fun pc t ->
          if t <> 0 || fall.(pc) <> 0 then
            Printf.bprintf b "%d %d %d\n" pc t fall.(pc))
        taken)
    p.taken

let render_stats b (s : Sim.Machine.stats) =
  Printf.bprintf b "stats %d %d %d %d\n" s.instr_count s.checksum s.ints_read
    s.floats_read

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

(* MD5 of a profile's taken/fall arrays *)
let of_edges p =
  let b = Buffer.create 4096 in
  render_edges b p;
  hex b
