(* ---- metrics registry ----

   Counters are atomics.  The registry table itself is guarded by one
   mutex, touched only on first registration and when listing. *)

module Metrics = struct
  type counter = { c_cell : int Atomic.t }

  let registry_mutex = Mutex.create ()
  let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 32

  let counter name =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt counters_tbl name with
        | Some c -> c
        | None ->
          let c = { c_cell = Atomic.make 0 } in
          Hashtbl.replace counters_tbl name c;
          c)

  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_cell by)
  let value c = Atomic.get c.c_cell

  let counters () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun name c acc -> (name, value c) :: acc) counters_tbl [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let reset () =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counters_tbl)

  let dump ppf =
    match counters () with
    | [] -> Format.fprintf ppf "(no metrics recorded)@."
    | cs ->
      Format.fprintf ppf "counters:@.";
      List.iter (fun (n, v) -> Format.fprintf ppf "  %-36s %10d@." n v) cs
end

(* ---- spans ---- *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts_us : float;
  dur_us : float;
  tid : int;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* Every domain appends to its own buffer; the global list of buffers
   is only touched (under [buffers_mutex]) when a domain records its
   first event and when exporting.  A buffer outlives its domain —
   spans recorded on short-lived worker domains survive to export. *)
let buffers : event list ref list ref = ref []
let buffers_mutex = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      Mutex.protect buffers_mutex (fun () -> buffers := buf :: !buffers);
      buf)

let now_us () = Unix.gettimeofday () *. 1e6

let record ev =
  let buf = Domain.DLS.get buffer_key in
  buf := ev :: !buf

let span ~name ?(attrs = []) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      let dur = now_us () -. t0 in
      record
        { name; attrs; ts_us = t0; dur_us = dur; tid = (Domain.self () :> int) }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let events () =
  let bufs = Mutex.protect buffers_mutex (fun () -> !buffers) in
  List.concat_map (fun b -> !b) bufs
  |> List.sort (fun a b -> Float.compare a.ts_us b.ts_us)

let reset_events () =
  let bufs = Mutex.protect buffers_mutex (fun () -> !buffers) in
  List.iter (fun b -> b := []) bufs

(* ---- span summaries, derived from the events ---- *)

type summary = { count : int; p50 : float; p95 : float; max : float }

let summaries () =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let durs = Option.value ~default:[] (Hashtbl.find_opt by_name ev.name) in
      Hashtbl.replace by_name ev.name ((ev.dur_us /. 1e6) :: durs))
    (events ());
  Hashtbl.fold
    (fun name durs acc ->
      let a = Array.of_list durs in
      Array.sort Float.compare a;
      let n = Array.length a in
      (* nearest rank: the smallest value with at least q of the
         sample at or below it *)
      let rank q =
        a.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1)
      in
      (name, { count = n; p50 = rank 0.50; p95 = rank 0.95; max = a.(n - 1) })
      :: acc)
    by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- Chrome trace_event export ---- *)

module Json = Json

let trace_json () =
  let evs = events () in
  let pid = Unix.getpid () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
            \"pid\":%d,\"tid\":%d,\"args\":{"
           (Json.escape ev.name) ev.ts_us ev.dur_us pid ev.tid);
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        ev.attrs;
      Buffer.add_string buf "}}")
    evs;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_trace path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (trace_json ()))

(* [BALLARUS_TRACE=path] records from program start and writes the
   trace to [path] at exit. *)
let () =
  match Sys.getenv_opt "BALLARUS_TRACE" with
  | Some path when String.trim path <> "" ->
    at_exit (fun () ->
        try write_trace path
        with Sys_error msg ->
          Printf.eprintf "error: cannot write trace %s: %s\n%!" path msg);
    enable ()
  | _ -> ()
