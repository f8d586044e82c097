(* The analysis workload: the paper's numerical legs.  The Figure 5
   counter kernel through [exec_compiled], untraced (fast loop) and
   traced (batched loop); the lumped SCU system chain built sparse and
   solved by Gauss–Seidel; and the mean-field latency at large n. *)

module Executor = Sim.Executor

type config = {
  kernel_n : int;
  kernel_steps : int;
  chain_n : int;
  meanfield_n : int;
  seed : int;
  w_ratio : (float * float) option;
      (** Expected W(chain_n)/√(π·chain_n) and its tolerance. *)
}

(* W(256)/√(256π) = 1.0233 (W = 29.022 steps). *)
let full ~seed =
  {
    kernel_n = 64;
    kernel_steps = 5_000_000;
    chain_n = 256;
    meanfield_n = 1_000_000;
    seed;
    w_ratio = Some (1.023, 0.001);
  }

(* The fixed-size run that fills the chain and solver metrics on
   workloads that do not call them. *)
let probe ~seed =
  { kernel_n = 64; kernel_steps = 200_000; chain_n = 64; meanfield_n = 10_000; seed; w_ratio = None }

let tol = 1e-12

let setup c =
  Span.with_ "setup" (fun () ->
      let k1 = Scu.Counter.make_compiled ~n:c.kernel_n in
      let k2 = Scu.Counter.make_compiled ~n:c.kernel_n in
      let chain =
        Span.with_ "chains.sparse_build" (fun () -> Chains.Scu_chain.System.sparse ~n:c.chain_n)
      in
      (k1, k2, chain))

type out = {
  fast : Executor.result;
  traced : Executor.result;
  stats : Markov.Sparse.stats;
  w : float;
  w_meanfield : float;
  kernel_s : float;
}

(* W = 1 / stationary success rate, the rate being (n - a - b)/n in
   state (a, b) — Scu_chain.System.sparse_latency's formula. *)
let latency ~n pi =
  let nf = float_of_int n in
  let rate = ref 0. in
  Array.iteri
    (fun i p ->
      let a, b = Chains.Scu_chain.System.decode_index ~n i in
      rate := !rate +. (p *. (float_of_int (n - a - b) /. nf)))
    pi;
  1. /. !rate

let work c ((k1 : Scu.Counter.compiled), (k2 : Scu.Counter.compiled), chain) =
  let seed = Load.Workload.mix c.seed 0xF165 in
  let config = Executor.Config.(default |> with_seed seed) in
  let kernel name k traced =
    Span.with_ name (fun () ->
        Executor.exec_compiled
          ~config:(Executor.Config.with_trace traced config)
          ~scheduler:Sched.Scheduler.uniform ~n:c.kernel_n ~stop:(Steps c.kernel_steps)
          k.Scu.Counter.cspec)
  in
  let t0 = Iter.now () in
  let fast = kernel "sim.exec_compiled" k1 false in
  let traced = kernel "sim.exec_compiled.traced" k2 true in
  let kernel_s = Iter.now () -. t0 in
  let pi, stats =
    Span.with_ "markov.sparse.stationary_stats" (fun () ->
        Markov.Sparse.stationary_stats ~tol chain)
  in
  let w = Span.with_ "chains.latency" (fun () -> latency ~n:c.chain_n pi) in
  let w_meanfield =
    Span.with_ "chains.meanfield" (fun () -> Chains.Meanfield.latency ~n:c.meanfield_n ())
  in
  { fast; traced; stats; w; w_meanfield; kernel_s }

let fingerprint o = Iter.digest (Executor.fingerprint o.fast)

let detail c o =
  Printf.sprintf "W(%d)=%.15g sweeps=%d residual=%.6e kernel=%s completions=%d W_mf(%d)=%.15g"
    c.chain_n o.w o.stats.sweeps o.stats.residual (fingerprint o)
    (Sim.Metrics.total_completions o.fast.metrics)
    c.meanfield_n o.w_meanfield

let check tally c o =
  let unit_ what f = Tally.unit_ tally ~what f in
  unit_ "kernel parity" (fun () ->
      let trace_len = Option.fold ~none:0 ~some:Sched.Trace.length o.traced.trace in
      if Executor.fingerprint o.fast <> Executor.fingerprint { o.traced with trace = None }
      then Error "traced and untraced compiled kernels disagree"
      else if trace_len <> c.kernel_steps then
        Error (Printf.sprintf "trace has %d steps, ran %d" trace_len c.kernel_steps)
      else if o.fast.stopped_early then Error "kernel stopped early"
      else Ok ());
  unit_ "sparse residual" (fun () ->
      if o.stats.residual <= tol then Ok ()
      else Error (Printf.sprintf "residual %g above %g" o.stats.residual tol));
  Option.iter
    (fun (expected, eps) ->
      unit_ "W ratio" (fun () ->
          let ratio = o.w /. sqrt (Float.pi *. float_of_int c.chain_n) in
          if Float.abs (ratio -. expected) <= eps then Ok ()
          else Error (Printf.sprintf "W/sqrt(pi n) = %.5f, expected %g +- %g" ratio expected eps)))
    c.w_ratio;
  unit_ "meanfield" (fun () ->
      let closed = Chains.Meanfield.latency_closed_form ~n:c.meanfield_n in
      if Float.abs ((o.w_meanfield /. closed) -. 1.) <= 1e-6 then Ok ()
      else Error (Printf.sprintf "W_mf = %g, closed form %g" o.w_meanfield closed))

let to_iter c ~setup_s ~wall ~minor ~promoted o =
  let d = detail c o in
  {
    Iter.setup_s;
    wall_s = wall;
    minor_words = minor;
    promoted_words = promoted;
    sim_steps = 2 * c.kernel_steps;
    sim_s = o.kernel_s;
    requests =
      Sim.Metrics.total_completions o.fast.metrics
      + Sim.Metrics.total_completions o.traced.metrics;
    digest = Iter.digest d;
    detail = d;
  }

let iteration c tally =
  let (built, setup_w, setup_p, setup_wall), setup_s =
    Iter.time_setup (fun () ->
        let built, t, w, p = Iter.work (fun () -> setup c) in
        (built, w, p, t))
  in
  let o, wall, minor, promoted = Iter.work (fun () -> work c built) in
  check tally c o;
  to_iter c ~setup_s ~wall:(setup_wall +. wall) ~minor:(setup_w +. minor)
    ~promoted:(setup_p +. promoted) o

let traced c tally ~lookup:_ =
  let (chain, o), wall, minor, promoted =
    Iter.work (fun () ->
        Span.with_ "workload" (fun () ->
            let ((_, _, chain) as built) = setup c in
            (chain, work c built)))
  in
  check tally c o;
  let solve_s = Span.total "markov.sparse.stationary_stats" in
  let nnz = Markov.Sparse.nnz chain and sweeps = max 1 o.stats.sweeps in
  let metrics =
    Metrics.
      [
        m "chains.sparse_build.ms" "ms" (1e3 *. Span.total "chains.sparse_build");
        m "markov.sparse.states" "count" (float_of_int chain.size);
        m "markov.sparse.nnz" "count" (float_of_int nnz);
        m "markov.sparse.sweeps" "count" (float_of_int o.stats.sweeps);
        m "markov.sparse.ns_per_nnz_sweep" "ns"
          (1e9 *. solve_s /. (float_of_int nnz *. float_of_int sweeps));
        m "markov.sparse.words_per_sweep" "words"
          (Span.total_words "markov.sparse.stationary_stats" /. float_of_int sweeps);
        m "markov.sparse.residual" "l1" o.stats.residual;
        m "chains.meanfield.ms" "ms" (1e3 *. Span.total "chains.meanfield");
      ]
  in
  (to_iter c ~setup_s:(Span.total "setup") ~wall ~minor ~promoted o, metrics)
