(* In-memory host-time spans recorded around the benchmark's own calls
   into each layer's public functions. Nothing is written until the run
   ends; with recording off, [with_] is a plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  op : int;  (* the operation (or request) the span belongs to *)
  t0 : float;  (* seconds, Unix.gettimeofday *)
  t1 : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let reset () =
  recorded := [];
  open_stack := [];
  next_id := 0;
  current_op := -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Record a finished span explicitly — for work whose start and end the
   caller observed itself, such as a request interleaved with others on
   a closed loop, where a call stack does not describe nesting. *)
let record ?(parent = -1) ~op name t0 t1 =
  if !enabled then begin
    let id = fresh_id () in
    recorded := { id; name; parent; op; t0; t1 } :: !recorded;
    id
  end
  else -1

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let op = !current_op in
    open_stack := id :: !open_stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      open_stack := List.tl !open_stack;
      recorded := { id; name; parent; op; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Run [f] as operation [op]: spans opened inside carry its id. *)
let in_op op f =
  let saved = !current_op in
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := saved) f

let spans () = List.rev !recorded

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time per span name, in seconds: each span's duration minus the
   part of its interval that its child spans cover, summed by name.
   Sorted by name. *)
let self_times (spans : t list) : (string * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let self = s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
      Hashtbl.replace by_name s.name (prev +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing load directly. Operations map to
   threads so concurrent requests get their own tracks. *)
let to_chrome ?(meta = []) (spans : t list) : Cgcm_serve.Json.t =
  let open Cgcm_serve.Json in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans
  in
  let us x = Float (Float.round ((x -. base) *. 1e7) /. 10.0) in
  let ev s =
    Obj
      [
        ("name", Str s.name);
        ("cat", Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Str "X");
        ("ts", us s.t0);
        ("dur", Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.0));
        ("pid", Int 1);
        ("tid", Int (max 0 s.op));
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("op", Int s.op) ]);
      ]
  in
  Obj
    [
      ("traceEvents", List (List.map ev spans));
      ("displayTimeUnit", Str "ms");
      ("otherData", Obj meta);
    ]
