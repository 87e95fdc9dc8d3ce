(* The host fingerprint printed with every result, and the peak memory
   of a forked process. *)

let read_file path = try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None
let trim_opt = Option.map String.trim

(* A "[field]: N kB" line of /proc/[pid]/status, in MiB. *)
let status_mb field pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> nan
  | Some s ->
    let prefix = field ^ ":" in
    let n = String.length prefix in
    List.fold_left
      (fun acc line ->
        if not (String.starts_with ~prefix line) then acc
        else
          match Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.0
          | exception _ -> acc)
      nan (String.split_on_char '\n' s)

(* This process's resident set, taken right after a fork: a forked
   child starts at its parent's, and its peak (VmHWM) starts there. *)
let fork_base_mb () = status_mb "VmRSS" "self"

(* How far this process's peak resident set rose above [base_mb]: the
   memory its own work took, whatever the parent held. *)
let rss_growth_mb ~base_mb = status_mb "VmHWM" "self" -. base_mb

let rec files_under dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if e <> "" && (e.[0] = '.' || e.[0] = '_') then []
           else if Sys.is_directory p then files_under p
           else [ p ])
  | exception Sys_error _ -> []

(* Digest of the sources the benchmark builds from, so results from two
   trees can be told apart where no git metadata exists. *)
let source_digest () =
  let files = List.concat_map files_under [ "lib"; "bin"; "perfbench" ] in
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf f;
      Buffer.add_string buf (Digest.file f))
    files;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 12

let commit () =
  if not (Sys.file_exists ".git") then "none"
  else
    let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "none" else line

let fingerprint () : (string * Cgcm_serve.Json.t) list =
  let open Cgcm_serve.Json in
  [
    ("nproc", Int (Domain.recommended_domain_count ()));
    ("ocaml", Str Sys.ocaml_version);
    ("commit", Str (commit ()));
    ("source_digest", Str (source_digest ()));
    ( "os",
      Str
        (String.concat " "
           (List.filter_map trim_opt
              [ read_file "/proc/sys/kernel/ostype"; read_file "/proc/sys/kernel/osrelease" ])) );
  ]
