(* Fixed-size probes of single layers, run in the traced run only and
   identical on every workload: the primitives (RNG draw, HDR add,
   scheduler pick, memory apply), one executor step on each path, one
   operation of each probed structure, and one linearizability
   judgement at the verify size and at the checker's 62-op bound. *)

module Executor = Sim.Executor
module Checkable = Scu.Checkable

(* Host seconds and minor words of [f ()], inside a span. *)
let measure ?group name f =
  Span.with_ ?group name (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let t1 = Unix.gettimeofday () in
      (v, t1 -. t0, Gc.minor_words () -. w0))

let per n x = x /. float_of_int n
let ns_per n s = 1e9 *. s /. float_of_int n

let config seed = Executor.Config.(default |> with_seed seed)

let primitives ~seed =
  let draws = 2_000_000 in
  let rng = Stats.Rng.create ~seed in
  let _, rng_s, rng_w =
    measure "stats.rng.float" (fun () ->
        let acc = ref 0. in
        for _ = 1 to draws do
          acc := !acc +. Stats.Rng.float rng 1.0
        done;
        !acc)
  in
  let adds = 1_000_000 in
  let values = Array.init adds (fun i -> (i * 7919) mod 5003) in
  let h = Stats.Hdr.create () in
  let _, hdr_s, _ =
    measure "stats.hdr.add" (fun () -> Array.iter (fun v -> Stats.Hdr.add h v) values)
  in
  let picks = 2_000_000 in
  let alive = Array.make 64 true in
  let sched = Sched.Scheduler.uniform in
  let _, pick_s, _ =
    measure "sched.scheduler.pick" (fun () ->
        let acc = ref 0 in
        for time = 1 to picks do
          acc := !acc + sched.pick ~rng ~alive ~time
        done;
        !acc)
  in
  let len = 8192 in
  let batches = picks / len in
  let dst = Array.make len 0 in
  let fill = Option.get sched.fill in
  let _, fill_s, _ =
    measure "sched.scheduler.fill" (fun () ->
        for _ = 1 to batches do
          fill ~rng ~alive ~dst ~len
        done)
  in
  let applies = 2_000_000 in
  let mem = Sim.Memory.create () in
  let a = Sim.Memory.alloc mem ~size:1 in
  let ops = [| Sim.Memory.Read a; Sim.Memory.Faa (a, 1) |] in
  let _, apply_s, _ =
    measure "sim.memory.apply" (fun () ->
        let acc = ref 0 in
        for i = 1 to applies do
          acc := !acc + Sim.Memory.apply mem ops.(i land 1)
        done;
        !acc)
  in
  Metrics.
    [
      m "stats.rng.ns_per_draw" "ns" (ns_per draws rng_s);
      m "stats.rng.words_per_draw" "words" (per draws rng_w);
      m "stats.hdr.ns_per_add" "ns" (ns_per adds hdr_s);
      m "sched.scheduler.ns_per_pick" "ns" (ns_per picks pick_s);
      m "sched.scheduler.ns_per_fill_pick" "ns" (ns_per (batches * len) fill_s);
      m "sim.memory.ns_per_apply" "ns" (ns_per applies apply_s);
    ]

(* One executor step on the Figure 5 counter kernel at n = 64: the
   effect interpreter, the compiled fast loop and the compiled batched
   (traced) loop. *)
let executor ~seed =
  let n = 64 in
  let interp_steps = 400_000 and compiled_steps = 2_000_000 in
  let c = Scu.Counter.make ~n in
  let _, exec_s, exec_w =
    measure "sim.exec" (fun () ->
        Executor.exec ~config:(config seed) ~scheduler:Sched.Scheduler.uniform ~n
          ~stop:(Steps interp_steps) c.spec)
  in
  let run traced =
    let k = Scu.Counter.make_compiled ~n in
    measure
      (if traced then "sim.exec_compiled.traced" else "sim.exec_compiled")
      (fun () ->
        Executor.exec_compiled
          ~config:Executor.Config.(config seed |> with_trace traced)
          ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps compiled_steps) k.cspec)
  in
  let _, fast_s, fast_w = run false in
  let _, traced_s, _ = run true in
  Metrics.
    [
      m "sim.exec.ns_per_step" "ns" (ns_per interp_steps exec_s);
      m "sim.exec.words_per_step" "words" (per interp_steps exec_w);
      m "sim.exec_compiled.ns_per_step" "ns" (ns_per compiled_steps fast_s);
      m "sim.exec_compiled.words_per_step" "words" (per compiled_steps fast_w);
      m "sim.exec_compiled.traced_ns_per_step" "ns" (ns_per compiled_steps traced_s);
    ]

(* One operation of each structure, saturated: 8 processes under the
   uniform scheduler, each running its bounded Checkable workload to
   completion through [exec].  steps_per_op is simulated steps (every
   attempt's reads and CASes) per completed operation. *)
let structures ~seed tally =
  let n = 8 and ops = 250 in
  List.concat_map
    (fun (label, cname) ->
      let s = Checkable.find cname in
      let inst = s.make ~n ~ops () in
      let r, sec, words =
        measure ~group:label "scu.exec" (fun () ->
            Executor.exec ~config:(config seed) ~scheduler:Sched.Scheduler.uniform ~n
              ~stop:(Completions (n * ops)) inst.spec)
      in
      let done_ = Sim.Metrics.total_completions r.metrics in
      Tally.unit_ tally ~what:("scu probe " ^ label) (fun () ->
          if done_ = n * ops && not r.stopped_early then Ok ()
          else Error (Printf.sprintf "%d of %d operations completed" done_ (n * ops)));
      let done_ = max 1 done_ in
      Metrics.
        [
          m ("scu." ^ label ^ ".ns_per_op") "ns" (ns_per done_ sec);
          m ("scu." ^ label ^ ".steps_per_op") "steps"
            (per done_ (float_of_int (Sim.Metrics.time r.metrics)));
          m ("scu." ^ label ^ ".words_per_op") "words" (per done_ words);
        ])
    Metrics.scu_structures

(* Completed histories of [count] random-schedule runs of [n] x [ops]
   over the spec-judged structures, with the instance that judges them. *)
let histories ~seed ~n ~ops ~count =
  let structs = [ "cas-counter"; "treiber"; "msqueue" ] in
  List.init count (fun i ->
      let s = Checkable.find (List.nth structs (i mod List.length structs)) in
      let inst = s.make ~n ~ops ~mix_seed:(seed + i) () in
      ignore
        (Executor.exec
           ~config:(config (Load.Workload.mix seed i))
           ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Completions (n * ops)) inst.spec);
      (inst, inst.events ()))

let linearize ~seed tally =
  let judge label hs =
    let len = List.length hs in
    let lin, check_s, _ =
      measure ("linearize.checker" ^ label) (fun () ->
          List.map (fun ((i : Checkable.instance), h) -> i.check h) hs)
    in
    let shadow, shadow_s, _ =
      measure ("linearize.shadow" ^ label) (fun () ->
          List.map (fun ((i : Checkable.instance), h) -> i.shadow h) hs)
    in
    List.iter2
      (fun ok diverged ->
        Tally.unit_ tally ~what:("linearize probe" ^ label) (fun () ->
            if ok && diverged = None then Ok ()
            else Error "a correct structure's history was judged non-linearizable"))
      lin shadow;
    Metrics.
      [
        m ("linearize.checker.us_per_history" ^ label) "us" (1e6 *. check_s /. float_of_int len);
        m ("linearize.shadow.us_per_history" ^ label) "us" (1e6 *. shadow_s /. float_of_int len);
      ]
  in
  judge "" (histories ~seed ~n:3 ~ops:3 ~count:600)
  @ judge "_62" (histories ~seed ~n:2 ~ops:31 ~count:60)

let all ~seed tally =
  Span.with_ "probes" (fun () ->
      let p = primitives ~seed in
      let e = executor ~seed in
      let s = structures ~seed tally in
      let l = linearize ~seed tally in
      p @ e @ s @ l)
