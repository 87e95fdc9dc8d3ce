(* Host time of the benchmark's measurements. *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

(* Run [f] [n] times: the fastest time and the last result. *)
let fastest n f =
  let rec go n best =
    let t, v = timed f in
    let best = Float.min best t in
    if n <= 1 then (best, v) else go (n - 1) best
  in
  go n infinity
