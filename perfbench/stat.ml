(* Order statistics over a run's samples (per-iteration times, per-shard
   times).  Quartiles follow Python's statistics.quantiles(n=4) default
   ("exclusive") method, so the spread printed here is the one a
   reader recomputes from the printed samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  if lo >= n - 1 then a.(n - 1)
  else a.(lo) +. ((pos -. float_of_int lo) *. (a.(lo + 1) -. a.(lo)))

let median xs = quantile xs 0.5

(* statistics.quantiles(xs, n=4), method "exclusive". *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let m = median xs in
    (m, m)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. m

(* A tail percentile is reported only when at least [min_beyond]
   samples lie beyond it; otherwise it is refused with the count it
   lacks. *)
let min_beyond = 10

let beyond ~p n = int_of_float ((float_of_int n *. (1. -. p)) +. 1e-9)

let tail ~p xs =
  let n = List.length xs in
  let b = beyond ~p n in
  if b < min_beyond then
    Error
      (Printf.sprintf "p%g refused: %d of %d samples beyond it, %d needed"
         (100. *. p) b n min_beyond)
  else Ok (quantile xs p)

(* The highest of the usual percentiles that [tail] accepts. *)
let highest_tail xs =
  List.find_map
    (fun p -> match tail ~p xs with Ok v -> Some (p, v) | Error _ -> None)
    [ 0.999; 0.99; 0.9; 0.75 ]
