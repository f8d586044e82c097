(* The splitmix64 state lives unboxed in an 8-byte buffer: a draw reads
   it, adds the gamma and writes it back through the raw 64-bit
   primitives, so with [mix] and [next] inlined no draw boxes an
   [int64] (a [mutable state : int64] field would re-box on every
   write). *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set_state g 0 s;
  g

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 finalizer. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next g =
  let s = Int64.add (get_state g 0) golden_gamma in
  set_state g 0 s;
  mix s

let bits64 g = next g

let split g = of_state (next g)

(* 62 uniform bits: always non-negative as a native OCaml int. *)
let[@inline] bits_nonneg g = Int64.to_int (Int64.shift_right_logical (next g) 2)

(* One rejection-sampled draw on [0, bound) given
   [cutoff = max_int - (max_int mod bound)]: redrawing above the cutoff
   avoids modulo bias. *)
let[@inline] draw_below g bound cutoff =
  let v = ref (bits_nonneg g) in
  while !v >= cutoff do
    v := bits_nonneg g
  done;
  !v mod bound

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below g bound (max_int - (max_int mod bound))

(* Batched draws for hot loops: one call amortizes the per-draw
   cross-module dispatch.  Bit-for-bit the same stream as [len]
   successive [int] calls — same rejection rule, same order — which
   the compiled executor's determinism proof relies on. *)
let fill_int g bound dst ~len =
  if bound <= 0 then invalid_arg "Rng.fill_int: bound must be positive";
  if len < 0 || len > Array.length dst then
    invalid_arg "Rng.fill_int: bad length";
  let cutoff = max_int - (max_int mod bound) in
  for i = 0 to len - 1 do
    Array.unsafe_set dst i (draw_below g bound cutoff)
  done

(* 53 uniform mantissa bits, scaled to [0, 1).  Both steps are exact
   (the 53-bit integer fits a native int and a double; scaling by 2^-53
   only moves the exponent), and [Float.of_int] is an inline conversion
   where [Int64.to_float] would be a C call. *)
let[@inline] unit_float g =
  Float.of_int (Int64.to_int (Int64.shift_right_logical (next g) 11)) *. 0x1p-53

let float g bound =
  if not (bound > 0. && Float.is_finite bound) then
    invalid_arg "Rng.float: bound must be positive and finite";
  bound *. unit_float g

(* [1.0 *. u = u] exactly, so this is [float g 1.0 < p] bit for bit
   without boxing the float. *)
let bernoulli g p = unit_float g < p

let bool g = Int64.logand (next g) 1L = 1L

let exponential g ~mean =
  if not (mean > 0.) then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float g in
  -.mean *. log u

let geometric g ~p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p out of range";
  if p = 1. then 1
  else
    let u = 1.0 -. unit_float g in
    1 + int_of_float (Float.floor (log u /. log (1. -. p)))

let pick_weighted g w =
  let total = Array.fold_left (fun acc x ->
      if x < 0. then invalid_arg "Rng.pick_weighted: negative weight";
      acc +. x) 0. w
  in
  if not (Float.is_finite total) then
    invalid_arg "Rng.pick_weighted: non-finite total weight";
  if not (total > 0.) then invalid_arg "Rng.pick_weighted: zero total weight";
  let target = float g total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let perm g n =
  let a = Array.init n (fun i -> i) in
  shuffle g a;
  a
