(* Host speed, measured with a fixed piece of benchmark-owned work.

   Other tenants of a shared host slow this machine down by up to twice,
   in phases lasting seconds, so raw host times from two runs differ by
   more than any regression worth catching. The calibration work here —
   building and probing a balanced map of small boxed records, which
   allocates and chases pointers as the compiler and interpreter do —
   slows down with them. Timing it between pieces of measured work gives
   the host's speed around each piece, and the benchmark reports host
   times multiplied by the resulting factor: what the work would have
   taken at [nominal_s]. None of the calibration is code under test,
   so a change to the system cannot move it. *)

module IM = Map.Make (Int)

let work () =
  let m = ref IM.empty in
  for i = 0 to 1999 do
    m := IM.add ((i * 7919) land 65535) (float_of_int i, [ i ]) !m
  done;
  let acc = ref 0.0 in
  for i = 0 to 3999 do
    match IM.find_opt ((i * 31) land 65535) !m with
    | Some (f, _) -> acc := !acc +. f
    | None -> ()
  done;
  !acc

(* The median time of the work on an uncontended reference host: an
   x86-64 VM with 2 vCPUs (OCaml 5.1.1, release build). *)
let nominal_s = 0.00044

(* Seconds the work takes now: the median of [tries], so a sample
   reflects the host's average speed around it, as a measured piece of
   work does, not its luckiest moment. Every try starts on an emptied
   minor heap, which an untimed first run has written: the work then
   neither collects nor faults in pages a fork left copy-on-write. *)
let sample ?(tries = 5) () =
  Gc.minor ();
  ignore (Sys.opaque_identity (work ()));
  Summary.median
    (List.init tries (fun _ ->
         Gc.minor ();
         fst (Clock.timed work)))

(* Calibration samples over a run, with the time each was taken. *)
type timeline = { mutable marks : (float * float) list }

let timeline () = { marks = [] }

(* A sample now, with the time it was taken. *)
let timed_sample ?tries () =
  let t = Unix.gettimeofday () in
  (t, sample ?tries ())

(* Keep samples on the timeline; [mark] takes one now. *)
let add tl marks = tl.marks <- marks @ tl.marks
let mark ?tries tl = add tl [ timed_sample ?tries () ]

(* Half-width, in seconds, of the window of samples that sets a factor.
   A single sample spans milliseconds and jitters with them; the drift
   the factor corrects lasts seconds. *)
let window_s = 2.0

(* The factor that takes host times measured over [t0, t1] to nominal
   host speed: [nominal_s] over the median sample within [window_s] of
   the interval (the nearest sample when none is that close). *)
let factor tl ~t0 ~t1 =
  let near =
    List.filter (fun (t, _) -> t >= t0 -. window_s && t <= t1 +. window_s) tl.marks
  in
  let near =
    if near <> [] then near
    else
      let dist (t, _) = Float.min (Float.abs (t -. t0)) (Float.abs (t -. t1)) in
      match List.sort (fun a b -> compare (dist a) (dist b)) tl.marks with
      | m :: _ -> [ m ]
      | [] -> invalid_arg "Calib.factor: no samples"
  in
  nominal_s /. Summary.median (List.map snd near)
