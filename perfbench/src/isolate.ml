(* Run a function in a forked child process and return its result.
   Every call starts from the same parent heap, so the work's time and
   the child's peak memory do not depend on what ran before it. The
   result must hold no closures; the caller fixes its type. *)

(* The running child, for a watchdog that must stop it. *)
let current : int option ref = ref None

let run (f : unit -> 'a) : ('a, string) result =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (r : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    current := Some pid;
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      match (Marshal.from_channel ic : ('a, string) result) with
      | r -> r
      | exception End_of_file -> Error "the child process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    current := None;
    r
