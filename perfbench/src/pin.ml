(* Processor pinning, through the taskset command where it exists.

   Two processors of a shared host can run at different speeds at the
   same moment, so a calibration taken on one says little about work on
   the other. The serve workload therefore runs its daemon on a
   processor of its own and calibrates on that processor. *)

(* The processors this process may run on (Cpus_allowed_list). *)
let allowed () =
  let range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> failwith "range"
  in
  match Host.read_file "/proc/self/status" with
  | None -> []
  | Some s -> (
    match
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "Cpus_allowed_list"; v ] -> Some (List.concat_map range (String.split_on_char ',' v))
          | _ -> None)
        (String.split_on_char '\n' s)
    with
    | Some cpus -> cpus
    | None -> []
    | exception Failure _ -> [])

(* Restrict every thread of [pid] to [cpus]; false if that failed or
   taskset is missing. *)
let pin pid cpus =
  let list = String.concat "," (List.map string_of_int cpus) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let ok =
    match
      Unix.create_process "taskset"
        [| "taskset"; "-a"; "-p"; "-c"; list; string_of_int pid |]
        null null null
    with
    | child -> ( match Unix.waitpid [] child with _, Unix.WEXITED 0 -> true | _ -> false)
    | exception Unix.Unix_error _ -> false
  in
  Unix.close null;
  ok

(* How the serve workload places its processes: the benchmark process
   (the clients) on every allowed processor but the last, the daemon on
   the last. None when fewer than two are allowed or pinning fails. *)
type placement = { clients : int list; daemon : int; all : int list }

let place () =
  match List.rev (allowed ()) with
  | daemon :: (_ :: _ as rest) ->
    let clients = List.rev rest and all = List.rev (daemon :: rest) in
    if pin (Unix.getpid ()) clients then Some { clients; daemon; all } else None
  | _ -> None

(* Undo [place] for the benchmark process. *)
let release p = ignore (pin (Unix.getpid ()) p.all)
