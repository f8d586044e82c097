(** Deterministic, splittable pseudo-random number generator.

    The implementation is splitmix64 (Steele, Lea, Flood; used as the
    seeding generator of xoshiro).  All experiments in this repository
    take an explicit generator so that every run is reproducible from a
    seed; nothing uses the ambient [Stdlib.Random] state. *)

type t
(** Mutable generator state, kept unboxed: the draws returning an
    [int] or a [bool] allocate nothing. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Generators
    built from the same seed produce identical streams. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    (statistically) independent of the rest of [g]'s stream.  Used to
    hand child RNGs to subcomponents without sharing state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform on [0, bound).  Raises [Invalid_argument]
    if [bound <= 0].  Uses rejection sampling, so it is unbiased. *)

val fill_int : t -> int -> int array -> len:int -> unit
(** [fill_int g bound dst ~len] writes [len] draws into [dst.(0)] …
    [dst.(len-1)], consuming the stream exactly as [len] successive
    {!int} calls would (same rejection sampling, same order) but in one
    tight loop — the batched-draw primitive behind the compiled
    executor's scheduler fast path.  Raises [Invalid_argument] if
    [bound <= 0] or [len] exceeds the array. *)

val float : t -> float -> float
(** [float g bound] is uniform on [0, bound).  Raises
    [Invalid_argument] unless [bound] is positive and finite. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is a coin that lands [true] with probability [p]:
    exactly [float g 1.0 < p], consuming the same single draw, but
    without boxing a float.  Any [p] is accepted ([p <= 0] is never
    true, [p >= 1] always). *)

val bool : t -> bool
(** Fair coin flip. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val geometric : t -> p:float -> int
(** [geometric g ~p] is the number of Bernoulli(p) trials up to and
    including the first success (support [1, 2, ...]).
    Requires [0 < p <= 1]. *)

val pick_weighted : t -> float array -> int
(** [pick_weighted g w] samples index [i] with probability
    [w.(i) /. total].  Weights must be non-negative with a positive,
    finite sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val perm : t -> int -> int array
(** [perm g n] is a uniformly random permutation of [0..n-1]. *)
