let format_tag = "ballarus-cache/1"

let enabled_flag =
  ref
    (match Sys.getenv_opt "BALLARUS_NO_CACHE" with
    | Some s when String.trim s <> "" -> false
    | _ -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let dir_ref =
  ref
    (match Sys.getenv_opt "BALLARUS_CACHE_DIR" with
    | Some d when String.trim d <> "" -> d
    | _ -> "_cache")

let dir () = !dir_ref
let set_dir d = dir_ref := d

(* All store accounting lives in the process-wide metrics registry
   (Obs.Metrics) under [cache.*]: disk traffic (hit / miss / write) and
   the recovery counters that the fault smoke gate reads. *)

let hits = Obs.Metrics.counter "cache.hit"
let misses = Obs.Metrics.counter "cache.miss"
let writes = Obs.Metrics.counter "cache.write"
let corrupt_quarantined = Obs.Metrics.counter "cache.corrupt_quarantined"
let write_failures = Obs.Metrics.counter "cache.write_failures"
let tmp_cleaned = Obs.Metrics.counter "cache.tmp_cleaned"

let bump = Obs.Metrics.incr ?by:None

(* Another domain may create the directory between the test and the
   mkdir; that is not a failed write. *)
let ensure_dir d =
  if not (Sys.file_exists d) then
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()

(* Entry name: digest of the store format, the build fingerprint (a
   digest of every library source), the table name and the key.  Any
   source edit changes the fingerprint, so a build never reads entries
   written by a different build. *)
let entry_path ~table key =
  let k =
    Digest.string
      (String.concat "\000" [ format_tag; Fingerprint.digest; table; key ])
  in
  Filename.concat (dir ()) (Digest.to_hex k ^ ".bin")

(* The seal of an entry: a digest of its own file name and its payload.
   It makes truncation and bit corruption detectable, and binds the
   bytes to the name they were written under, so an entry copied or
   renamed onto another key's name (whose payload may be another
   table's type) is never unmarshalled.  [payload_digest] is
   [Digest.string payload]. *)
let seal path payload_digest =
  Digest.to_hex (Digest.string (Filename.basename path ^ payload_digest))

(* An entry is [format_tag] NL [seal] NL [payload].  A missing entry is
   a [`Miss]; an existing but damaged or misplaced one is [`Corrupt],
   which the caller quarantines.  The file is read whole, once; the
   payload is sealed and unmarshalled where it lies in that string. *)
let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> `Miss
  | ic -> (
    match
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let nl1 = String.index s '\n' in
      let nl2 = String.index_from s (nl1 + 1) '\n' in
      (s, String.sub s 0 nl1, String.sub s (nl1 + 1) (nl2 - nl1 - 1), nl2 + 1)
    with
    | exception _ -> `Corrupt
    | s, tag, hex, off ->
      if
        tag = format_tag
        && seal path (Digest.substring s off (String.length s - off)) = hex
      then
        match Marshal.from_string s off with
        | v -> `Hit v
        | exception _ -> `Corrupt
      else `Corrupt)

(* Delete a damaged entry so it cannot re-trip every subsequent run;
   count it either way.  Deletion failing (e.g. a concurrent writer
   already replaced the file) is fine — the recompute path overwrites
   it anyway. *)
let quarantine path =
  bump corrupt_quarantined;
  try Sys.remove path with Sys_error _ -> ()

(* A failed write only costs warmth, never correctness, so it is
   skipped rather than retried. *)
let write_entry path payload =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  try
    ensure_dir (dir ());
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc format_tag;
        output_char oc '\n';
        output_string oc (seal path (Digest.string payload));
        output_char oc '\n';
        output_string oc payload);
    (* atomic publish: concurrent writers of the same key race benignly,
       last rename wins and every version is valid *)
    Sys.rename tmp path;
    bump writes
  with Sys_error _ ->
    bump write_failures;
    (* the rename never ran, so the orphaned tmp must not accumulate in
       the cache directory for the life of the store *)
    if Sys.file_exists tmp then begin
      (try Sys.remove tmp with Sys_error _ -> ());
      bump tmp_cleaned
    end

let memo ~table ~key compute =
  if not !enabled_flag then compute ()
  else begin
    let path = entry_path ~table key in
    let cached =
      match read_entry path with
      | `Hit v ->
        bump hits;
        Some v
      | `Miss ->
        bump misses;
        None
      | `Corrupt ->
        quarantine path;
        None
    in
    match cached with
    | Some v -> v
    | None ->
      let v = compute () in
      write_entry path (Marshal.to_string v []);
      v
  end

let clear () =
  match Sys.readdir (dir ()) with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        let p = Filename.concat (dir ()) name in
        try if not (Sys.is_directory p) then Sys.remove p
        with Sys_error _ -> ())
      names
