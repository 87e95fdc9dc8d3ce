(* The determinism gate: every execution of an operation must reproduce
   the same simulated cycles and counts — across passes within a run,
   and across runs of the same build through a file kept in the
   benchmark's output directory. *)

type t = { table : (string, string) Hashtbl.t; mutable violations : string list }

let create () = { table = Hashtbl.create 128; violations = [] }

let note t ~key facts =
  match Hashtbl.find_opt t.table key with
  | None -> Hashtbl.replace t.table key facts
  | Some f when f = facts -> ()
  | Some f ->
    t.violations <- Printf.sprintf "%s: %s, earlier %s" key facts f :: t.violations

let violations t = List.rev t.violations

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
    List.filter_map
      (fun line ->
        match String.index_opt line '\t' with
        | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
        | None -> None)
      (String.split_on_char '\n' s)
  | exception Sys_error _ -> []

(* Check this run's facts against the ones earlier runs of the same
   build recorded at [path], then add the new ones. *)
let merge_file t path =
  let previous = load path in
  let known = Hashtbl.create 128 in
  List.iter (fun (k, f) -> Hashtbl.replace known k f) previous;
  Hashtbl.iter
    (fun k f ->
      match Hashtbl.find_opt known k with
      | Some g when g <> f ->
        t.violations <- Printf.sprintf "%s: %s, an earlier run %s" k f g :: t.violations
      | Some _ -> ()
      | None -> Hashtbl.replace known k f)
    t.table;
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Hashtbl.fold (fun k f acc -> (k, f) :: acc) known []
      |> List.sort compare
      |> List.iter (fun (k, f) -> Printf.fprintf oc "%s\t%s\n" k f));
  Sys.rename tmp path
