(* A closed-loop client for the serve daemon: [clients] persistent
   connections in one process, each sending its next request only after
   the previous reply arrived — the way [cgcm request] callers, which
   block on their reply, load the daemon. *)

module Wire = Cgcm_serve.Wire

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable pending : (Wire.request * float * float) option;
      (* request, encode start, sent *)
}

type t = { conns : conn array }

type sample = {
  request : Wire.request;
  reply : Wire.reply;
  latency_s : float;  (* encode start to decoded reply *)
  started : float;
  encode_s : float;
  decode_s : float;
}

let connect_unix path () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let create ~connect ~clients =
  if clients < 1 then invalid_arg "Closed_loop.create: clients < 1";
  { conns = Array.init clients (fun _ -> { fd = connect (); dec = Wire.decoder (); pending = None }) }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let send c (r : Wire.request) =
  let t0 = Unix.gettimeofday () in
  let frame = Wire.encode_frame (Wire.request_to_json r) in
  let t1 = Unix.gettimeofday () in
  ignore (Unix.write c.fd frame 0 (Bytes.length frame));
  c.pending <- Some (r, t0, t1)

(* Seconds the daemon may stay silent while requests are in flight. *)
let reply_timeout_s = 60.0

(* Drive [reqs] through the loop and hand every reply to [on_reply] in
   arrival order. Returns once every request has its reply; a daemon
   silent for [reply_timeout_s] raises [Failure]. *)
let run_pass t ~(on_reply : sample -> unit) (reqs : Wire.request list) =
  let queue = ref reqs in
  let next c =
    match !queue with
    | r :: rest ->
      queue := rest;
      send c r
    | [] -> ()
  in
  Array.iter next t.conns;
  let buf = Bytes.create 65536 in
  let busy () = Array.to_list t.conns |> List.filter (fun c -> c.pending <> None) in
  let rec loop () =
    match busy () with
    | [] -> ()
    | waiting ->
      let fds = List.map (fun c -> c.fd) waiting in
      let ready, _, _ =
        try Unix.select fds [] [] reply_timeout_s
        with Unix.Unix_error (Unix.EINTR, _, _) -> (fds, [], [])
      in
      if ready = [] then failwith "closed loop: daemon sent no reply within the timeout";
      List.iter
        (fun c ->
          if List.mem c.fd ready then begin
            match Unix.read c.fd buf 0 (Bytes.length buf) with
            | 0 -> failwith "closed loop: daemon closed a connection"
            | n ->
              Wire.decoder_feed c.dec buf n;
              List.iter
                (fun frame ->
                  match c.pending with
                  | None -> failwith "closed loop: reply without a request"
                  | Some (request, t0, t_sent) ->
                    let d0 = Unix.gettimeofday () in
                    let reply = Wire.reply_of_json frame in
                    let d1 = Unix.gettimeofday () in
                    c.pending <- None;
                    on_reply
                      {
                        request;
                        reply;
                        latency_s = d1 -. t0;
                        started = t0;
                        encode_s = t_sent -. t0;
                        decode_s = d1 -. d0;
                      };
                    next c)
                (Wire.decoder_drain c.dec)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          end)
        waiting;
      loop ()
  in
  loop ()
