type ('k, 'v) t = {
  name : string;
  persist : bool;
  mutex : Mutex.t;
  table : (Digest.t, 'v) Hashtbl.t;
}

(* name -> that table's reset, for the duplicate check and [reset] *)
let registry : (string, unit -> unit) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()

let create ?(persist = false) name =
  let t = { name; persist; mutex = Mutex.create (); table = Hashtbl.create 32 } in
  Mutex.protect registry_mutex (fun () ->
      if Hashtbl.mem registry name then
        invalid_arg ("Cache.Memo.create: duplicate table " ^ name);
      Hashtbl.replace registry name (fun () ->
          Mutex.protect t.mutex (fun () -> Hashtbl.reset t.table)));
  t

let find t key compute =
  let d = Digest.string (Marshal.to_string key []) in
  match Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.table d) with
  | Some v -> v
  | None ->
    let v =
      if t.persist then Store.memo ~table:t.name ~key:d compute
      else compute ()
    in
    Mutex.protect t.mutex (fun () -> Hashtbl.replace t.table d v);
    v

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter (fun _ reset -> reset ()) registry)
