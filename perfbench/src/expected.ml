(* The expected-output table: one line per (program, configuration)
   holding the exit code and everything the program prints, recorded
   once and kept beside the benchmark. Every operation's output is
   compared against it. *)

type entry = { exit_code : int; output : string }
type t = (string * string, entry) Hashtbl.t

let load path : t =
  let t = Hashtbl.create 256 in
  In_channel.with_open_text path (fun ic ->
      let rec go n =
        match In_channel.input_line ic with
        | None -> ()
        | Some "" -> go (n + 1)
        | Some line ->
          (match
             Scanf.sscanf line "%s@\t%s@\t%d\t%S%!" (fun p c e o ->
                 (p, c, { exit_code = e; output = o }))
           with
          | p, c, e -> Hashtbl.replace t (p, c) e
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
            failwith (Printf.sprintf "%s:%d: malformed expected-output line" path n));
          go (n + 1)
      in
      go 1);
  t

let save path (rows : ((string * string) * entry) list) =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun ((p, c), e) -> Printf.fprintf oc "%s\t%s\t%d\t%S\n" p c e.exit_code e.output)
        (List.sort compare rows))

(* [None] when the observed result matches; otherwise why not. *)
let check (t : t) ~program ~config ~exit_code ~output =
  match Hashtbl.find_opt t (program, config) with
  | None -> Some (Printf.sprintf "no expected output for %s/%s" program config)
  | Some e when e.exit_code <> exit_code ->
    Some (Printf.sprintf "%s/%s: exit code %d, expected %d" program config exit_code e.exit_code)
  | Some e when e.output <> output ->
    Some (Printf.sprintf "%s/%s: output %S, expected %S" program config output e.output)
  | Some _ -> None
