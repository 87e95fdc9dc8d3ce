(* Order statistics for the benchmark's reports. *)

type pct = {
  pct : float;  (* the percentile taken *)
  value : float;
  samples : int;  (* sample count the percentile was taken over *)
  beyond : int;  (* samples strictly greater than [value] *)
}

let sorted xs =
  match xs with
  | [] -> invalid_arg "Summary.percentile: no samples"
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    a

let at_rank a ~pct rank =
  let n = Array.length a in
  let value = a.(max 1 (min n rank) - 1) in
  let beyond = Array.fold_left (fun c x -> if x > value then c + 1 else c) 0 a in
  { pct; value; samples = n; beyond }

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  at_rank a ~pct:p (int_of_float (Float.ceil (p /. 100.0 *. float_of_int (Array.length a))))

let median xs = (percentile 50.0 xs).value

(* The median as the mean of the two middle samples when their count is
   even: it moves smoothly where the samples form two clusters with the
   middle between them, where the nearest rank jumps from one to the
   other. *)
let midpoint_median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail: the 99th percentile when at least ten samples lie beyond
   it, otherwise the highest percentile that leaves ten beyond (or the
   maximum, under eleven samples). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n >= 1000 then percentile 99.0 xs
  else
    let rank = max 1 (n - 10) in
    at_rank a ~pct:(100.0 *. float_of_int rank /. float_of_int n) rank

let geomean xs =
  match xs with
  | [] -> invalid_arg "Summary.geomean: no samples"
  | _ -> Cgcm_support.Stats.geomean xs

let sum xs = List.fold_left ( +. ) 0.0 xs
