(* A persistent domain pool for data-parallel batches.

   OCaml domains are heavyweight (each one owns a minor heap and a slot
   in the runtime's fixed-size domain table), so the pool spawns workers
   once per process and keeps them forever: callers that repeatedly run
   small batches — one per simulated kernel launch — pay only a mutex
   round-trip per batch, not a domain spawn. Workers sleep on a
   condition variable between batches.

   The pool runs one batch at a time. [run ~jobs n f] publishes the
   batch under the pool mutex, wakes the workers, and then participates
   itself, so a batch of [n] tasks is executed by up to
   [min jobs n] domains (the caller plus [jobs - 1] workers). Tasks are
   claimed by atomically bumping a shared cursor; publication of task
   results written into shared mutable state is ordered by the final
   mutex hand-shake (every worker decrements the unfinished count under
   the mutex, and the caller only returns after observing zero there),
   so callers may read anything their tasks wrote without further
   synchronization. *)

(* The runtime's domain table is small (128 entries); leave generous
   headroom for the main domain and any embedder threads. *)
let max_jobs = 64

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some (min n max_jobs)
  | _ -> None

let default_jobs () =
  match Option.bind (Sys.getenv_opt "CGCM_JOBS") parse_jobs with
  | Some n -> n
  | None -> min max_jobs (Domain.recommended_domain_count ())

type batch = {
  task : int -> unit;
  n : int;
  mutable next : int;  (* next unclaimed task index *)
  mutable unfinished : int;  (* tasks not yet completed *)
  mutable failure : exn option;  (* first task exception, re-raised by run *)
}

let lock = Mutex.create ()
let work_available = Condition.create ()
let batch_finished = Condition.create ()
let current : batch option ref = ref None
let workers = ref 0

(* Claim and execute tasks from [b] until none remain. Called with
   [lock] held; returns with [lock] held. *)
let drain b =
  while b.next < b.n do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock lock;
    let result = try Ok (b.task i) with e -> Error e in
    Mutex.lock lock;
    (match result with
    | Ok () -> ()
    | Error e -> if b.failure = None then b.failure <- Some e);
    b.unfinished <- b.unfinished - 1;
    if b.unfinished = 0 then Condition.broadcast batch_finished
  done

let rec worker_loop () =
  Mutex.lock lock;
  let rec await () =
    match !current with
    | Some b when b.next < b.n -> b
    | _ ->
      Condition.wait work_available lock;
      await ()
  in
  let b = await () in
  drain b;
  Mutex.unlock lock;
  worker_loop ()

let ensure_workers k =
  while !workers < k do
    ignore (Domain.spawn worker_loop);
    incr workers
  done

let size () = !workers + 1

let run ~jobs n task =
  if n <= 0 then ()
  else if jobs <= 1 || n = 1 then
    for i = 0 to n - 1 do
      task i
    done
  else begin
    let jobs = min jobs max_jobs in
    ensure_workers (jobs - 1);
    Mutex.lock lock;
    (* One batch at a time: the simulator is single-threaded outside the
       pool, so a nested or concurrent [run] indicates a bug. *)
    assert (!current = None);
    let b = { task; n; next = 0; unfinished = n; failure = None } in
    current := Some b;
    Condition.broadcast work_available;
    drain b;
    while b.unfinished > 0 do
      Condition.wait batch_finished lock
    done;
    current := None;
    Mutex.unlock lock;
    match b.failure with Some e -> raise e | None -> ()
  end
