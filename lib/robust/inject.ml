(* Deterministic fault injection.

   Each injection site keeps a per-site counter of how many times it
   has been consulted; whether a given consultation fires is a pure
   function of (seed, site, consultation index), so a run with a fixed
   seed injects exactly the same faults every time.  Sites can also be
   force-armed ([force]) so tests and the chaos smoke gate are
   guaranteed coverage regardless of seed luck. *)

type site = Cache_read | Cache_write | Task | Delay

exception Chaos of string

let site_index = function
  | Cache_read -> 0
  | Cache_write -> 1
  | Task -> 2
  | Delay -> 3

let site_name = function
  | Cache_read -> "cache-read"
  | Cache_write -> "cache-write"
  | Task -> "task"
  | Delay -> "delay"

(* How often a site fires under hash-based injection: once every
   [period] consultations on average.  Task raises are rare so the
   suite still mostly succeeds; cache corruption is common so the
   recovery path gets exercised hard. *)
let period = function
  | Cache_read -> 4
  | Cache_write -> 3
  | Task -> 53
  | Delay -> 6

(* Splitmix64 mixing: whether a consultation fires is a pure function
   of the (seed, stream, index) cell, so a run with a fixed seed makes
   exactly the same choices every time. *)
let mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

(* A non-negative int drawn from the (seed, stream, index) cell. *)
let bits ~seed ~stream ~index =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.add
         (Int64.mul (Int64.of_int stream) 0xBF58476D1CE4E5B9L)
         (Int64.of_int index))
  in
  Int64.to_int (Int64.shift_right_logical (mix64 z) 2)

let mutex = Mutex.create ()
let seed = ref None
let consulted = Array.make 4 0
let fired_counts = Array.make 4 0
let forced = Array.make 4 0

let () =
  match Sys.getenv_opt "BALLARUS_CHAOS" with
  | Some s -> ( match int_of_string_opt s with Some n -> seed := Some n | None -> ())
  | None -> ()

let set_seed s = Mutex.protect mutex (fun () -> seed := s)

let force site n =
  Mutex.protect mutex (fun () ->
      let i = site_index site in
      forced.(i) <- forced.(i) + n)

let fired site = Mutex.protect mutex (fun () -> fired_counts.(site_index site))

let reset () =
  Mutex.protect mutex (fun () ->
      Array.fill consulted 0 4 0;
      Array.fill fired_counts 0 4 0;
      Array.fill forced 0 4 0)

(* Consult a site: returns true when a fault should be injected now. *)
let decide site =
  Mutex.protect mutex (fun () ->
      let i = site_index site in
      let n = consulted.(i) in
      consulted.(i) <- n + 1;
      let hit =
        if forced.(i) > 0 then (
          forced.(i) <- forced.(i) - 1;
          true)
        else
          match !seed with
          | None -> false
          | Some s -> bits ~seed:s ~stream:(site_index site) ~index:n mod period site = 0
      in
      if hit then fired_counts.(i) <- fired_counts.(i) + 1;
      hit)

(* Corrupt the cache entry at [path] on disk (truncate and garble) so
   the next read sees a damaged file.  Returns whether it fired; fires
   only when the file actually exists, keeping injected corruptions in
   one-to-one correspondence with detectable ones. *)
let corrupt_entry path =
  if not (Sys.file_exists path) then false
  else if not (decide Cache_read) then false
  else begin
    let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
    output_string oc "\x00chaos: corrupted entry\x00";
    close_out oc;
    true
  end

let fail_write () =
  if decide Cache_write then
    raise (Sys_error "injected write failure (chaos)")

let raise_in_task ~label =
  if decide Task then
    raise (Chaos (Printf.sprintf "injected task failure in %s" label))

let delay ~label:_ = if decide Delay then Unix.sleepf 0.002

let summary () =
  [ Cache_read; Cache_write; Task; Delay ]
  |> List.map (fun s ->
         (site_name s, Mutex.protect mutex (fun () -> fired_counts.(site_index s))))
