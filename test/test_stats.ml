(* Unit and property tests for the statistics substrate. *)

open Core

let prop name ?(count = 200) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* -- Rng ----------------------------------------------------------- *)

let test_rng_reproducible () =
  let a = Stats.Rng.create ~seed:7 and b = Stats.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Stats.Rng.create ~seed:7 and b = Stats.Rng.create ~seed:8 in
  Alcotest.(check bool) "different streams" true
    (Stats.Rng.bits64 a <> Stats.Rng.bits64 b)

let test_rng_int_range () =
  let g = Stats.Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Stats.Rng.int g 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stats.Rng.int g 0))

let test_rng_int_uniform () =
  let g = Stats.Rng.create ~seed:2 in
  let counts = Array.make 10 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    let v = Stats.Rng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "chi-square uniformity" true (Stats.Chi_square.test_uniform counts)

let test_rng_float_range () =
  let g = Stats.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Stats.Rng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_split_independent () =
  let g = Stats.Rng.create ~seed:4 in
  let a = Stats.Rng.split g in
  let b = Stats.Rng.split g in
  Alcotest.(check bool) "children differ" true
    (Stats.Rng.bits64 a <> Stats.Rng.bits64 b)

let test_rng_weighted () =
  let g = Stats.Rng.create ~seed:5 in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let i = Stats.Rng.pick_weighted g w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never chosen" 0 counts.(1);
  let share2 = float_of_int counts.(2) /. float_of_int trials in
  Alcotest.(check bool) "weight-3 share ~0.75" true (Float.abs (share2 -. 0.75) < 0.01)

let test_rng_geometric_mean () =
  let g = Stats.Rng.create ~seed:6 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (float_of_int (Stats.Rng.geometric g ~p:0.25))
  done;
  (* Mean of geometric(p) = 1/p = 4. *)
  Alcotest.(check bool) "geometric mean ~4" true
    (Float.abs (Stats.Summary.mean s -. 4.) < 0.1)

let test_rng_perm () =
  let g = Stats.Rng.create ~seed:8 in
  let p = Stats.Rng.perm g 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = Array.init 20 (fun i -> i))

let prop_rng_int_in_bounds =
  prop "rng int always within bounds"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10000))
    (fun (bound, seed) ->
      let g = Stats.Rng.create ~seed in
      let v = Stats.Rng.int g bound in
      v >= 0 && v < bound)

(* Literal first outputs per seed, captured before the generator state
   was unboxed: any change to the splitmix64 stream, the rejection rule
   or the float scaling shows up here, not only as a self-mismatch. *)
type rng_pin = {
  seed : int;
  bits64 : int64 list;
  int37 : int list;
  float25 : float list;
  bools : bool list;
  exp3 : float list;
  split_child : int64 list;
  fill9 : int list;
}

let rng_pins =
  [
    {
      seed = 0;
      bits64 = [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ];
      int37 = [ 26; 16; 10 ];
      float25 = [ 2.2082770205341067; 1.0788199926212749; 0.066084428981494359 ];
      bools = [ true; false; true; false; true; false; true; false ];
      exp3 = [ 6.4447240780451498; 1.694409642693484 ];
      split_child = [ -6411193824288604561L; -5511663747979980962L ];
      fill9 = [ 1; 0; 4; 4; 7; 7; 1; 2; 8 ];
    };
    {
      seed = 7;
      bits64 = [ 7191089600892374487L; 309689372594955804L; -1830642326893942270L ];
      int37 = [ 21; 15; 7 ];
      float25 = [ 0.97457437097817867; 0.041970736320390278; 2.2519017015172085 ];
      bools = [ true; false; false; true; false; true; false; false ];
      exp3 = [ 1.4820517792749075; 0.050792445951621107 ];
      split_child = [ -5137267319001854395L; -6461814455296669442L ];
      fill9 = [ 0; 6; 4; 3; 8; 5; 8; 7; 4 ];
    };
    {
      seed = max_int;
      bits64 = [ 4890637089070741670L; 1157452369933151741L; -643383930175548127L ];
      int37 = [ 7; 7; 32 ];
      float25 = [ 0.66280491960108523; 0.15686404675375215; 2.4128052181451758 ];
      bools = [ false; true; true; false; false; true; false; true ];
      exp3 = [ 0.92415220853804991; 0.19440164623622253 ];
      split_child = [ -465555950222020276L; 3673247009141676037L ];
      fill9 = [ 3; 1; 2; 4; 5; 2; 4; 5; 1 ];
    };
  ]

let test_rng_pinned_streams () =
  List.iter
    (fun pin ->
      let fresh () = Stats.Rng.create ~seed:pin.seed in
      let draws f xs =
        let g = fresh () in
        List.map (fun _ -> f g) xs
      in
      let name what = Printf.sprintf "seed %d %s" pin.seed what in
      Alcotest.(check (list int64)) (name "bits64") pin.bits64 (draws Stats.Rng.bits64 pin.bits64);
      Alcotest.(check (list int)) (name "int 37") pin.int37
        (draws (fun g -> Stats.Rng.int g 37) pin.int37);
      Alcotest.(check (list (float 0.))) (name "float 2.5") pin.float25
        (draws (fun g -> Stats.Rng.float g 2.5) pin.float25);
      Alcotest.(check (list bool)) (name "bool") pin.bools (draws Stats.Rng.bool pin.bools);
      Alcotest.(check (list (float 0.))) (name "exponential") pin.exp3
        (draws (fun g -> Stats.Rng.exponential g ~mean:3.) pin.exp3);
      let parent = fresh () in
      let child = Stats.Rng.split parent in
      Alcotest.(check (list int64)) (name "split child") pin.split_child
        (List.map (fun _ -> Stats.Rng.bits64 child) pin.split_child);
      (* [split] consumes exactly one draw of the parent. *)
      Alcotest.(check int64) (name "parent after split") (List.nth pin.bits64 1)
        (Stats.Rng.bits64 parent);
      let dst = Array.make 9 (-1) in
      Stats.Rng.fill_int (fresh ()) 9 dst ~len:9;
      Alcotest.(check (list int)) (name "fill_int 9") pin.fill9 (Array.to_list dst))
    rng_pins

let test_rng_float_rejects_bad_bound () =
  let g = Stats.Rng.create ~seed:9 in
  List.iter
    (fun bound ->
      Alcotest.check_raises (Printf.sprintf "bound %g" bound)
        (Invalid_argument "Rng.float: bound must be positive and finite")
        (fun () -> ignore (Stats.Rng.float g bound)))
    [ Float.infinity; Float.neg_infinity; Float.nan; 0.; -1. ];
  List.iter
    (fun w ->
      Alcotest.check_raises "non-finite total"
        (Invalid_argument "Rng.pick_weighted: non-finite total weight")
        (fun () -> ignore (Stats.Rng.pick_weighted g w)))
    [ [| 1.; Float.infinity |]; [| Float.max_float; Float.max_float |]; [| Float.nan |] ];
  Alcotest.check_raises "zero total" (Invalid_argument "Rng.pick_weighted: zero total weight")
    (fun () -> ignore (Stats.Rng.pick_weighted g [| 0.; 0. |]))

let prop_rng_bernoulli_is_float_coin =
  prop "bernoulli g p = float (copy g) 1.0 < p, same state after"
    QCheck2.Gen.(
      pair (int_range 0 100_000)
        (oneof
           [
             float_range (-0.1) 1.1;
             oneofl [ 0.; 1.; 0.5; Float.nan; Float.infinity; Float.neg_infinity ];
           ]))
    (fun (seed, p) ->
      let g = Stats.Rng.create ~seed in
      let h = Stats.Rng.copy g in
      let coin = Stats.Rng.bernoulli g p in
      coin = (Stats.Rng.float h 1.0 < p) && Stats.Rng.bits64 g = Stats.Rng.bits64 h)

let prop_rng_fill_int_is_successive_ints =
  prop "fill_int g k dst ~len = len successive int g k"
    QCheck2.Gen.(
      triple (int_range 0 100_000)
        (* Bounds just above max_int/2 reject about half of all draws. *)
        (oneof [ int_range 1 1000; int_range ((max_int / 2) + 1) max_int ])
        (int_range 0 64))
    (fun (seed, bound, len) ->
      let g = Stats.Rng.create ~seed in
      let h = Stats.Rng.copy g in
      let dst = Array.make (len + 3) (-1) in
      Stats.Rng.fill_int g bound dst ~len;
      let expect = Array.init len (fun _ -> Stats.Rng.int h bound) in
      Array.sub dst 0 len = expect
      && Array.for_all (( = ) (-1)) (Array.sub dst len 3)
      && Stats.Rng.bits64 g = Stats.Rng.bits64 h)

(* Minor words allocated by [f ()], net of the measurement itself. *)
let minor_words_of f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  measure f -. measure ignore

(* Exact in a single domain, and only meaningful where the inliner runs. *)
let test_rng_draws_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let g = Stats.Rng.create ~seed:11 in
    let dst = Array.make 10 0 in
    let draws = 10_000 in
    let cases =
      [
        ("int", fun () -> for _ = 1 to draws do ignore (Stats.Rng.int g 37) done);
        ("bool", fun () -> for _ = 1 to draws do ignore (Stats.Rng.bool g) done);
        ( "bernoulli",
          fun () -> for _ = 1 to draws do ignore (Stats.Rng.bernoulli g 0.3) done );
        ( "fill_int",
          fun () -> for _ = 1 to draws / 10 do Stats.Rng.fill_int g 37 dst ~len:10 done );
      ]
    in
    List.iter
      (fun (name, f) ->
        f ();
        Alcotest.(check (float 0.)) (name ^ ": minor words") 0. (minor_words_of f))
      cases;
    let f () = for _ = 1 to draws do ignore (Stats.Rng.float g 2.5) done in
    f ();
    let per_draw = minor_words_of f /. float_of_int draws in
    Alcotest.(check bool)
      (Printf.sprintf "float: %.2f words/draw <= 2" per_draw)
      true (per_draw <= 2.)
  end

(* -- Summary ------------------------------------------------------- *)

let test_summary_basic () =
  let s = Stats.Summary.of_array [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" (5. /. 3.) (Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 10. (Stats.Summary.total s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Stats.Summary.mean s))

let prop_summary_merge =
  prop "merge equals concatenation"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_range (-100.) 100.))
        (list_size (int_range 1 50) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.Summary.of_array (Array.of_list xs) in
      let b = Stats.Summary.of_array (Array.of_list ys) in
      let merged = Stats.Summary.merge a b in
      let whole = Stats.Summary.of_array (Array.of_list (xs @ ys)) in
      let close u v = Float.abs (u -. v) < 1e-6 *. (1. +. Float.abs v) in
      Stats.Summary.count merged = Stats.Summary.count whole
      && close (Stats.Summary.mean merged) (Stats.Summary.mean whole)
      && (List.length xs + List.length ys < 2
         || close (Stats.Summary.variance merged) (Stats.Summary.variance whole)))

(* -- Histogram ----------------------------------------------------- *)

let test_histogram_bins () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.; 1.9; 2.; 5.; 9.99; -1.; 10.; 42. ];
  Alcotest.(check (list int))
    "counts" [ 2; 1; 1; 0; 1 ]
    (Array.to_list (Stats.Histogram.counts h));
  Alcotest.(check int) "underflow" 1 (Stats.Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Stats.Histogram.overflow h);
  Alcotest.(check int) "total" 8 (Stats.Histogram.total h)

let prop_histogram_total =
  prop "every observation lands somewhere"
    QCheck2.Gen.(list_size (int_range 0 200) (float_range (-50.) 50.))
    (fun xs ->
      let h = Stats.Histogram.create ~lo:(-10.) ~hi:10. ~bins:7 in
      List.iter (Stats.Histogram.add h) xs;
      Stats.Histogram.total h = List.length xs)

(* -- Ecdf ---------------------------------------------------------- *)

let test_ecdf_quantiles () =
  let e = Stats.Ecdf.of_array [| 3.; 1.; 2.; 4. |] in
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Ecdf.quantile e 0.);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.Ecdf.quantile e 1.);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stats.Ecdf.median e);
  Alcotest.(check (float 1e-9)) "cdf mid" 0.5 (Stats.Ecdf.cdf e 2.5);
  Alcotest.(check (float 1e-9)) "cdf below" 0. (Stats.Ecdf.cdf e 0.5);
  Alcotest.(check (float 1e-9)) "cdf above" 1. (Stats.Ecdf.cdf e 9.)

let test_ecdf_rejects_nan () =
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Ecdf.of_array: NaN in sample") (fun () ->
      ignore (Stats.Ecdf.of_array [| 1.; nan; 3. |]))

let test_ecdf_negative_zero_order () =
  (* Float.compare orders -0. before 0.; polymorphic compare agreed,
     but this pins the behaviour now that the comparator is explicit. *)
  let e = Stats.Ecdf.of_array [| 0.; -0.; 1. |] in
  Alcotest.(check (float 0.)) "min is -0." (-0.) (Stats.Ecdf.minimum e);
  Alcotest.(check (float 1e-9)) "max" 1. (Stats.Ecdf.maximum e)

let prop_ecdf_monotone =
  prop "quantile is monotone"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 100) (float_range (-100.) 100.))
        (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, (p1, p2)) ->
      let e = Stats.Ecdf.of_array (Array.of_list xs) in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.Ecdf.quantile e lo <= Stats.Ecdf.quantile e hi +. 1e-12)

(* -- Regression ---------------------------------------------------- *)

let test_regression_exact_line () =
  let pts = [ (1., 5.); (2., 7.); (3., 9.); (4., 11.) ] in
  let fit = Stats.Regression.linear pts in
  Alcotest.(check (float 1e-9)) "slope" 2. fit.slope;
  Alcotest.(check (float 1e-9)) "intercept" 3. fit.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1. fit.r2

let test_regression_power_law () =
  (* y = 3 * x^0.5 *)
  let pts =
    List.init 10 (fun i ->
        let x = float_of_int (i + 1) in
        (x, 3. *. sqrt x))
  in
  let fit = Stats.Regression.power_law pts in
  Alcotest.(check (float 1e-9)) "exponent" 0.5 fit.slope;
  Alcotest.(check (float 1e-6)) "prefactor" 3. (exp fit.intercept)

let test_scale_to_first () =
  let model = sqrt in
  let scaled = Stats.Regression.scale_to_first ~model [ (4., 10.); (9., 0.) ] in
  Alcotest.(check (float 1e-9)) "passes through first point" 10. (scaled 4.);
  Alcotest.(check (float 1e-9)) "scales elsewhere" 15. (scaled 9.)

(* -- Chi-square ---------------------------------------------------- *)

let test_chi_square_detects_bias () =
  let uniform = [| 1000; 1010; 990; 1005; 995 |] in
  let biased = [| 2500; 500; 500; 500; 1000 |] in
  Alcotest.(check bool) "accepts uniform" true (Stats.Chi_square.test_uniform uniform);
  Alcotest.(check bool) "rejects biased" false (Stats.Chi_square.test_uniform biased)

let test_chi_square_critical_values () =
  (* Known value: chi2(0.05, df=10) = 18.31. *)
  let v = Stats.Chi_square.critical_value ~df:10 ~alpha:0.05 in
  Alcotest.(check bool) "df=10 alpha=.05 ~18.31" true (Float.abs (v -. 18.31) < 0.2)

(* -- Table --------------------------------------------------------- *)

let test_table_render () =
  let t = Stats.Table.create [ "n"; "W" ] in
  Stats.Table.add_row t [ "2"; "1.5" ];
  Stats.Table.add_floats t ~label:"4" [ 2.25 ];
  let s = Stats.Table.to_string t in
  Alcotest.(check bool) "mentions header" true
    (String.length s > 0 && String.index_opt s 'W' <> None && String.index_opt s '4' <> None);
  let csv = Stats.Table.to_csv t in
  Alcotest.(check bool) "csv has rows" true
    (List.length (String.split_on_char '\n' csv) >= 3)

let test_table_rejects_wide_row () =
  let t = Stats.Table.create [ "a" ] in
  Alcotest.check_raises "wide row" (Invalid_argument "Table.add_row: row wider than header")
    (fun () -> Stats.Table.add_row t [ "1"; "2" ])

let test_rng_copy_identical () =
  let g = Stats.Rng.create ~seed:33 in
  ignore (Stats.Rng.bits64 g);
  let h = Stats.Rng.copy g in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy tracks original" (Stats.Rng.bits64 g) (Stats.Rng.bits64 h)
  done

let test_rng_exponential_mean () =
  let g = Stats.Rng.create ~seed:34 in
  let s = Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Stats.Summary.add s (Stats.Rng.exponential g ~mean:3.)
  done;
  Alcotest.(check bool) "exponential mean ~3" true
    (Float.abs (Stats.Summary.mean s -. 3.) < 0.1)

let test_table_pads_short_rows () =
  let t = Stats.Table.create [ "a"; "b"; "c" ] in
  Stats.Table.add_row t [ "1" ];
  let csv = Stats.Table.to_csv t in
  Alcotest.(check bool) "padded" true
    (List.exists (fun line -> line = "1,,") (String.split_on_char '\n' csv))

let test_table_csv_quoting () =
  let t = Stats.Table.create [ "label"; "value" ] in
  Stats.Table.add_row t [ "plain"; "1" ];
  Stats.Table.add_row t [ "a,b"; "with \"quotes\"" ];
  Stats.Table.add_row t [ "line\nbreak"; "cr\rhere" ];
  let lines = String.split_on_char '\n' (Stats.Table.to_csv t) in
  Alcotest.(check bool) "plain cells unquoted" true (List.mem "plain,1" lines);
  Alcotest.(check bool)
    "comma and quote cells escaped per RFC 4180" true
    (List.mem "\"a,b\",\"with \"\"quotes\"\"\"" lines);
  (* The embedded newline splits the physical line but stays inside one
     quoted field. *)
  Alcotest.(check bool) "newline cell opens quoted field" true
    (List.mem "\"line" lines);
  Alcotest.(check bool) "newline cell closes quoted field" true
    (List.mem "break\",\"cr\rhere\"" lines)

let test_histogram_edges () =
  let h = Stats.Histogram.create ~lo:0. ~hi:1. ~bins:2 in
  Alcotest.(check (option int)) "lower edge in bin 0" (Some 0) (Stats.Histogram.bin_of h 0.);
  Alcotest.(check (option int)) "midpoint in bin 1" (Some 1) (Stats.Histogram.bin_of h 0.5);
  Alcotest.(check (option int)) "upper edge excluded" None (Stats.Histogram.bin_of h 1.)

(* -- Hdr ----------------------------------------------------------- *)

(* Everything observable about an Hdr histogram, for whole-value
   equality checks: non-empty buckets plus the exact side-channel. *)
let hdr_obs h =
  let buckets =
    Stats.Hdr.fold_buckets h ~init:[] ~f:(fun acc ~lo ~hi ~count ->
        (lo, hi, count) :: acc)
  in
  ( buckets,
    Stats.Hdr.count h,
    Stats.Hdr.sum h,
    Stats.Hdr.min_value h,
    Stats.Hdr.max_value h )

let test_hdr_exact_small_values () =
  (* Below 2^sub_bits every value has its own unit bucket, so
     quantiles on a known small-value distribution are exact: rank
     ceil(q*n) of the sorted stream. *)
  let h = Stats.Hdr.create () in
  (* 10 ones, 60 fives, 29 thirties, 1 thirty-one: n = 100. *)
  Stats.Hdr.add_n h 1 ~count:10;
  Stats.Hdr.add_n h 5 ~count:60;
  Stats.Hdr.add_n h 30 ~count:29;
  Stats.Hdr.add h 31;
  Alcotest.(check int) "count" 100 (Stats.Hdr.count h);
  Alcotest.(check int) "sum" (10 + 300 + 870 + 31) (Stats.Hdr.sum h);
  Alcotest.(check int) "p50 exact" 5 (Stats.Hdr.p50 h);
  Alcotest.(check int) "p99 exact" 30 (Stats.Hdr.p99 h);
  Alcotest.(check int) "p999 = rank-100 value" 31 (Stats.Hdr.p999 h);
  Alcotest.(check int) "q=0 is min" 1 (Stats.Hdr.quantile h 0.);
  Alcotest.(check int) "q=1 is max" 31 (Stats.Hdr.quantile h 1.);
  Alcotest.(check int) "min" 1 (Stats.Hdr.min_value h);
  Alcotest.(check int) "max" 31 (Stats.Hdr.max_value h)

let test_hdr_bucketed_quantiles () =
  (* Uniform 0..100_000: each quantile lands in a log-linear bucket
     whose lower bound the test states independently via bucket_lo. *)
  let h = Stats.Hdr.create () in
  for v = 0 to 100_000 do
    Stats.Hdr.add h v
  done;
  (* n = 100_001; rank of q is ceil(q*n), value = rank - 1. *)
  let expect q =
    let rank = int_of_float (ceil (q *. 100_001.)) in
    Stats.Hdr.bucket_lo h (rank - 1)
  in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "q=%.3f" q)
        (expect q) (Stats.Hdr.quantile h q))
    [ 0.5; 0.9; 0.99; 0.999; 0.9999 ];
  (* The bucket understates the true rank value by < 2^-sub_bits. *)
  for v = 1 to 3_000 do
    let lo = Stats.Hdr.bucket_lo h v in
    Alcotest.(check bool) "relative error < 1/32" true
      (lo <= v && (v < 32 || 32 * (v - lo) < v))
  done

let test_hdr_merge_equals_whole () =
  let whole = Stats.Hdr.create () in
  let parts = Array.init 4 (fun _ -> Stats.Hdr.create ()) in
  let g = Stats.Rng.create ~seed:99 in
  for k = 0 to 9_999 do
    let v = Stats.Rng.int g 1_000_000 in
    Stats.Hdr.add whole v;
    Stats.Hdr.add parts.(k mod 4) v
  done;
  let merged = Array.fold_left Stats.Hdr.merge (Stats.Hdr.create ()) parts in
  Alcotest.(check bool) "merge of shards == single stream" true
    (hdr_obs merged = hdr_obs whole);
  Alcotest.(check int) "same p999" (Stats.Hdr.p999 whole) (Stats.Hdr.p999 merged)

let test_hdr_boundary_values () =
  (* Power-of-two boundaries are where octaves change; p999 must stay
     stable when the mass sits exactly on a bucket edge. *)
  List.iter
    (fun v ->
      (* Single-value stream: the [min, max] clamp makes every
         quantile exact, whatever the bucket resolution. *)
      let h = Stats.Hdr.create () in
      Stats.Hdr.add_n h v ~count:1_000;
      Alcotest.(check int) "single-value p50 exact" v (Stats.Hdr.p50 h);
      Alcotest.(check int) "single-value p999 exact" v (Stats.Hdr.p999 h);
      (* With a low outlier the clamp no longer applies and p999 is
         the bucket lower bound of v — never a neighbouring bucket,
         even right at the octave edge. *)
      let h' = Stats.Hdr.create () in
      Stats.Hdr.add h' 0;
      Stats.Hdr.add_n h' v ~count:10_000;
      Alcotest.(check int) "p999 lands in v's bucket" (Stats.Hdr.bucket_lo h' v)
        (Stats.Hdr.p999 h');
      Alcotest.(check int) "q=1 clamps to max" v (Stats.Hdr.quantile h' 1.))
    [ 31; 32; 33; 63; 64; 65; 1023; 1024; 1025; (1 lsl 40) - 1; 1 lsl 40 ]

let test_hdr_validation () =
  let h = Stats.Hdr.create () in
  Alcotest.check_raises "negative value" (Invalid_argument "Hdr.add: negative value")
    (fun () -> Stats.Hdr.add h (-1));
  Alcotest.check_raises "empty quantile" (Invalid_argument "Hdr.quantile: empty histogram")
    (fun () -> ignore (Stats.Hdr.quantile h 0.5));
  Alcotest.check_raises "sub_bits range"
    (Invalid_argument "Hdr.create: sub_bits must be in [0, 14]") (fun () ->
      ignore (Stats.Hdr.create ~sub_bits:15 ()));
  Alcotest.check_raises "merge sub_bits mismatch"
    (Invalid_argument "Hdr.merge_into: sub_bits mismatch") (fun () ->
      Stats.Hdr.merge_into ~into:(Stats.Hdr.create ~sub_bits:3 ()) (Stats.Hdr.create ()))

let hdr_of_list vs =
  let h = Stats.Hdr.create () in
  List.iter (Stats.Hdr.add h) vs;
  h

let hdr_gen = QCheck2.Gen.(list_size (int_bound 200) (int_bound 2_000_000))

let prop_hdr_merge_commutative =
  prop "hdr: merge commutative" QCheck2.Gen.(pair hdr_gen hdr_gen)
    (fun (xs, ys) ->
      let a = hdr_of_list xs and b = hdr_of_list ys in
      hdr_obs (Stats.Hdr.merge a b) = hdr_obs (Stats.Hdr.merge b a))

let prop_hdr_merge_associative =
  prop "hdr: merge associative" QCheck2.Gen.(triple hdr_gen hdr_gen hdr_gen)
    (fun (xs, ys, zs) ->
      let a = hdr_of_list xs and b = hdr_of_list ys and c = hdr_of_list zs in
      hdr_obs Stats.Hdr.(merge (merge a b) c)
      = hdr_obs Stats.Hdr.(merge a (merge b c)))

let prop_hdr_quantile_monotone_and_bounded =
  prop "hdr: quantiles monotone and within [min, max]"
    QCheck2.Gen.(list_size (int_range 1 200) (int_bound 2_000_000))
    (fun vs ->
      let h = hdr_of_list vs in
      let qs = [ 0.; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ] in
      let values = List.map (Stats.Hdr.quantile h) qs in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted values
      && List.for_all
           (fun v -> v >= Stats.Hdr.min_value h && v <= Stats.Hdr.max_value h)
           values)

let prop_hdr_p999_boundary_stable =
  (* Mass at an octave boundary (plus a low outlier so the [min, max]
     clamp cannot hide bucketing): p999 must name v's own bucket and
     stay within one bucket width (< 2^-5 relative) of the true
     value. *)
  prop "hdr: p999 stable at bucket boundaries"
    QCheck2.Gen.(pair (int_range 5 40) (int_range 0 2))
    (fun (bit, jitter) ->
      let v = (1 lsl bit) + jitter - 1 in
      let h = Stats.Hdr.create () in
      Stats.Hdr.add h 0;
      Stats.Hdr.add_n h v ~count:10_000;
      let p = Stats.Hdr.p999 h in
      p = Stats.Hdr.bucket_lo h v && 32 * (v - p) < v + 32)

(* -- Vec ----------------------------------------------------------- *)

let test_vec_growth () =
  let v = Stats.Vec.Int.create ~capacity:1 () in
  for i = 0 to 999 do
    Stats.Vec.Int.push v i
  done;
  Alcotest.(check int) "length" 1000 (Stats.Vec.Int.length v);
  Alcotest.(check int) "get" 500 (Stats.Vec.Int.get v 500);
  Alcotest.(check bool) "to_array" true
    (Stats.Vec.Int.to_array v = Array.init 1000 (fun i -> i))

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "reproducible" `Quick test_rng_reproducible;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniform (chi2)" `Quick test_rng_int_uniform;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "weighted pick" `Quick test_rng_weighted;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "perm" `Quick test_rng_perm;
          Alcotest.test_case "copy identical" `Quick test_rng_copy_identical;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "float/pick_weighted reject bad bounds" `Quick
            test_rng_float_rejects_bad_bound;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          prop_rng_int_in_bounds;
          prop_rng_bernoulli_is_float_coin;
          prop_rng_fill_int_is_successive_ints;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic moments" `Quick test_summary_basic;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          prop_summary_merge;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_bins;
          Alcotest.test_case "edges" `Quick test_histogram_edges;
          prop_histogram_total;
        ] );
      ( "ecdf",
        [
          Alcotest.test_case "quantiles" `Quick test_ecdf_quantiles;
          Alcotest.test_case "rejects NaN" `Quick test_ecdf_rejects_nan;
          Alcotest.test_case "-0./0. ordering" `Quick test_ecdf_negative_zero_order;
          prop_ecdf_monotone;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact line" `Quick test_regression_exact_line;
          Alcotest.test_case "power law" `Quick test_regression_power_law;
          Alcotest.test_case "scale to first" `Quick test_scale_to_first;
        ] );
      ( "chi-square",
        [
          Alcotest.test_case "detects bias" `Quick test_chi_square_detects_bias;
          Alcotest.test_case "critical values" `Quick test_chi_square_critical_values;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "rejects wide row" `Quick test_table_rejects_wide_row;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "exact small values" `Quick test_hdr_exact_small_values;
          Alcotest.test_case "bucketed quantiles" `Quick test_hdr_bucketed_quantiles;
          Alcotest.test_case "merge == whole stream" `Quick test_hdr_merge_equals_whole;
          Alcotest.test_case "octave boundaries" `Quick test_hdr_boundary_values;
          Alcotest.test_case "validation" `Quick test_hdr_validation;
          prop_hdr_merge_commutative;
          prop_hdr_merge_associative;
          prop_hdr_quantile_monotone_and_bounded;
          prop_hdr_p999_boundary_stable;
        ] );
      ("vec", [ Alcotest.test_case "growth" `Quick test_vec_growth ]);
    ]
