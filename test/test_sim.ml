(* Tests for the effects-based shared-memory simulator: memory
   semantics, step accounting, crash handling, determinism. *)

open Core

let rng () = Stats.Rng.create ~seed:42

(* -- Memory ------------------------------------------------------- *)

let test_memory_ops () =
  let m = Sim.Memory.create () in
  let a = Sim.Memory.alloc m ~size:2 in
  Alcotest.(check int) "fresh cell is zero" 0 (Sim.Memory.apply m (Read a));
  ignore (Sim.Memory.apply m (Write (a, 7)));
  Alcotest.(check int) "write then read" 7 (Sim.Memory.apply m (Read a));
  Alcotest.(check int) "cas success returns 1" 1 (Sim.Memory.apply m (Cas (a, 7, 9)));
  Alcotest.(check int) "cas failure returns 0" 0 (Sim.Memory.apply m (Cas (a, 7, 11)));
  Alcotest.(check int) "value after failed cas" 9 (Sim.Memory.apply m (Read a));
  Alcotest.(check int) "cas_get returns old on success" 9
    (Sim.Memory.apply m (Cas_get (a, 9, 10)));
  Alcotest.(check int) "cas_get returns current on failure" 10
    (Sim.Memory.apply m (Cas_get (a, 9, 12)));
  Alcotest.(check int) "faa returns old" 10 (Sim.Memory.apply m (Faa (a, 5)));
  Alcotest.(check int) "faa added" 15 (Sim.Memory.apply m (Read a))

let test_memory_alloc () =
  let m = Sim.Memory.create ~capacity:2 () in
  let a = Sim.Memory.alloc m ~size:3 in
  let b = Sim.Memory.alloc m ~size:1 in
  Alcotest.(check bool) "blocks disjoint" true (b >= a + 3);
  let c = Sim.Memory.alloc_init m [| 4; 5; 6 |] in
  Alcotest.(check int) "alloc_init first" 4 (Sim.Memory.get m c);
  Alcotest.(check int) "alloc_init last" 6 (Sim.Memory.get m (c + 2));
  Alcotest.check_raises "oob read" (Invalid_argument "Memory: address 999 out of bounds (used=9)")
    (fun () -> ignore (Sim.Memory.get m 999))

let test_null_rejected () =
  let m = Sim.Memory.create () in
  (match Sim.Memory.apply m (Read Sim.Memory.scratch) with
  | 0 -> ()
  | v -> Alcotest.failf "scratch should read 0, got %d" v);
  Alcotest.check_raises "null write rejected"
    (Invalid_argument "Memory: address 0 out of bounds (used=2)") (fun () ->
      ignore (Sim.Memory.apply m (Write (0, 1))))

(* -- Executor basics ---------------------------------------------- *)

(* A one-register program: each process increments its own cell q
   times per operation. *)
let private_counter_spec ~n ~q =
  let memory = Sim.Memory.create () in
  let cells = Sim.Memory.alloc memory ~size:n in
  let program (ctx : Sim.Program.ctx) =
    let rec loop () =
      for _ = 1 to q do
        let v = Sim.Program.read (cells + ctx.id) in
        Sim.Program.write (cells + ctx.id) (v + 1)
      done;
      Sim.Program.complete ();
      loop ()
    in
    loop ()
  in
  (cells, { Sim.Executor.name = "private-counter"; memory; program })

let test_steps_accounting () =
  let n = 4 in
  let _, spec = private_counter_spec ~n ~q:1 in
  let r =
    Sim.Executor.exec ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps 10_000)
      spec
  in
  Alcotest.(check int) "time = requested steps" 10_000 (Sim.Metrics.time r.metrics);
  let total_proc_steps =
    List.fold_left ( + ) 0 (List.init n (fun i -> Sim.Metrics.steps_of r.metrics i))
  in
  Alcotest.(check int) "per-process steps sum to time" 10_000 total_proc_steps

let test_completions_counted () =
  let n = 3 in
  let cells, spec = private_counter_spec ~n ~q:2 in
  let r =
    Sim.Executor.exec ~scheduler:Sched.Scheduler.uniform ~n
      ~stop:(Completions 300) spec
  in
  Alcotest.(check bool) "reached target" true
    (Sim.Metrics.total_completions r.metrics >= 300);
  (* Each operation = 2 increments of the private cell (2 reads + 2
     writes = 4 steps); cells record completed increments. *)
  for i = 0 to n - 1 do
    let c = Sim.Memory.get spec.memory (cells + i) in
    let ops = Sim.Metrics.completions_of r.metrics i in
    Alcotest.(check bool)
      (Printf.sprintf "cell %d consistent" i)
      true
      (c >= 2 * ops && c <= (2 * ops) + 2)
  done

let test_determinism () =
  let run () =
    let _, spec = private_counter_spec ~n:5 ~q:3 in
    let r =
      Sim.Executor.exec
        ~config:
          Sim.Executor.Config.(default |> with_seed 123 |> with_trace true)
        ~scheduler:Sched.Scheduler.uniform ~n:5 ~stop:(Steps 5_000) spec
    in
    ( Sim.Metrics.total_completions r.metrics,
      Sched.Trace.to_array (Option.get r.trace) )
  in
  let c1, t1 = run () and c2, t2 = run () in
  Alcotest.(check int) "same completions" c1 c2;
  Alcotest.(check bool) "same schedule" true (t1 = t2)

let test_round_robin_exact () =
  (* Under round-robin with q=1, every process completes every 2 of its
     steps; with n processes the system completes one op every 2 steps
     on average, exactly. *)
  let n = 4 in
  let _, spec = private_counter_spec ~n ~q:1 in
  let r =
    Sim.Executor.exec
      ~scheduler:(Sched.Scheduler.round_robin ())
      ~n ~stop:(Steps 8_000) spec
  in
  Alcotest.(check int) "completions = steps/2" 4_000
    (Sim.Metrics.total_completions r.metrics);
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "proc %d equal share" i)
      2_000 (Sim.Metrics.steps_of r.metrics i)
  done

(* -- Crashes ------------------------------------------------------ *)

let test_crash_removes_process () =
  let n = 4 in
  let _, spec = private_counter_spec ~n ~q:1 in
  let r =
    Sim.Executor.exec
      ~config:
        Sim.Executor.Config.(
          default |> with_trace true
          |> with_faults
               (Sched.Fault_plan.of_crash_events [ (1_000, 0); (2_000, 1) ]))
      ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps 50_000) spec
  in
  Alcotest.(check bool) "p0 crashed" true r.crashed.(0);
  Alcotest.(check bool) "p1 crashed" true r.crashed.(1);
  Alcotest.(check bool) "p2 alive" false r.crashed.(2);
  (* After its crash time a process takes no steps. *)
  let trace = Sched.Trace.to_array (Option.get r.trace) in
  Array.iteri
    (fun tau p ->
      if tau >= 1_000 then Alcotest.(check bool) "p0 silent after crash" true (p <> 0);
      if tau >= 2_000 then Alcotest.(check bool) "p1 silent after crash" true (p <> 1))
    trace;
  (* Survivors keep completing: minimal progress holds despite crashes
     (lock-freedom under the crash model). *)
  Alcotest.(check bool) "survivors progress" true
    (Sim.Metrics.completions_of r.metrics 2 > 1_000)

let test_all_crash_rejected () =
  (* A crash plan that permanently kills every process is rejected
     before the run starts (Definition 1 needs a survivor). *)
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  Alcotest.check_raises "crash plan killing everyone rejected"
    (Invalid_argument
       "Executor.run: fault plan: all processes would crash permanently")
    (fun () ->
      ignore
        (Sim.Executor.exec
           ~config:
             Sim.Executor.Config.(
               default
               |> with_faults
                    (Sched.Fault_plan.of_crash_events [ (10, 0); (20, 1) ]))
           ~scheduler:Sched.Scheduler.uniform ~n:2 ~stop:(Steps 100) spec))

let test_duplicate_crash_noop () =
  (* A process that is already crashed ignores a later crash event, so
     only each process's earliest crash matters: same schedule, same
     completions, same flags as the deduplicated plan. *)
  let run crashes =
    let c = Scu.Counter.make ~n:4 in
    let r =
      Sim.Executor.exec
        ~config:
          Sim.Executor.Config.(
            default |> with_seed 7 |> with_trace true
            |> with_faults (Sched.Fault_plan.of_crash_events crashes))
        ~scheduler:Sched.Scheduler.uniform ~n:4 ~stop:(Steps 20_000) c.spec
    in
    ( Sim.Metrics.total_completions r.metrics,
      Sched.Trace.to_array (Option.get r.trace),
      r.crashed )
  in
  let c1, t1, k1 = run [ (5, 1); (10, 1) ] in
  let c2, t2, k2 = run [ (5, 1) ] in
  Alcotest.(check int) "same completions" c1 c2;
  Alcotest.(check bool) "same schedule" true (t1 = t2);
  Alcotest.(check bool) "same crash flags" true (k1 = k2)

(* -- Fault plans (chaos layer) ------------------------------------- *)

let test_restart_revives_process () =
  let n = 3 in
  let _, spec = private_counter_spec ~n ~q:1 in
  let plan =
    Sched.Fault_plan.make
      [ (500, Sched.Fault_plan.Crash 0); (1_500, Sched.Fault_plan.Restart 0) ]
  in
  let r =
    Sim.Executor.exec
      ~config:
        Sim.Executor.Config.(default |> with_trace true |> with_faults plan)
      ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps 5_000) spec
  in
  Alcotest.(check (array int)) "one restart of p0" [| 1; 0; 0 |] r.restarts;
  Alcotest.(check bool) "p0 not crashed at the end" false r.crashed.(0);
  (* No idle ticks happen here (p1/p2 stay alive), so trace index =
     time: p0 is silent during its crash window and active after. *)
  let trace = Sched.Trace.to_array (Option.get r.trace) in
  let p0_steps lo hi =
    let c = ref 0 in
    Array.iteri (fun tau p -> if p = 0 && tau >= lo && tau < hi then incr c) trace;
    !c
  in
  Alcotest.(check int) "silent while crashed" 0 (p0_steps 500 1_500);
  Alcotest.(check bool) "steps again after restart" true (p0_steps 1_500 5_000 > 0)

let test_stall_window_is_temporary () =
  let n = 3 in
  let _, spec = private_counter_spec ~n ~q:1 in
  let plan = Sched.Fault_plan.make [ (100, Sched.Fault_plan.Stall (0, 400)) ] in
  let r =
    Sim.Executor.exec
      ~config:
        Sim.Executor.Config.(default |> with_trace true |> with_faults plan)
      ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps 2_000) spec
  in
  Alcotest.(check bool) "never crashed" true (Array.for_all not r.crashed);
  Alcotest.(check (array int)) "no restarts" [| 0; 0; 0 |] r.restarts;
  let trace = Sched.Trace.to_array (Option.get r.trace) in
  let p0_steps lo hi =
    let c = ref 0 in
    Array.iteri (fun tau p -> if p = 0 && tau >= lo && tau < hi then incr c) trace;
    !c
  in
  Alcotest.(check int) "silent during [100,500)" 0 (p0_steps 100 500);
  Alcotest.(check bool) "steps again after the window" true (p0_steps 500 2_000 > 0)

let test_all_stalled_idles_then_resumes () =
  (* Every process stalled: the clock ticks without attributing steps,
     then work resumes when the window expires. *)
  let n = 2 in
  let _, spec = private_counter_spec ~n ~q:1 in
  let plan =
    Sched.Fault_plan.make
      [ (0, Sched.Fault_plan.Stall (0, 100)); (0, Sched.Fault_plan.Stall (1, 100)) ]
  in
  let r =
    Sim.Executor.exec
      ~config:Sim.Executor.Config.(default |> with_faults plan)
      ~scheduler:Sched.Scheduler.uniform ~n ~stop:(Steps 1_000) spec
  in
  Alcotest.(check bool) "not stopped early" false r.stopped_early;
  Alcotest.(check int) "clock ran to the target" 1_000 (Sim.Metrics.time r.metrics);
  let attributed =
    Sim.Metrics.steps_of r.metrics 0 + Sim.Metrics.steps_of r.metrics 1
  in
  Alcotest.(check int) "idle ticks burned the window" 900 attributed;
  Alcotest.(check bool) "work resumed after the window" true
    (Sim.Metrics.total_completions r.metrics > 0)

let test_all_dead_stops_early_with_partial_metrics () =
  (* p0 crashes mid-operation, p1 finishes its bounded body: with no
     process left and no restart pending, the run stops early and the
     metrics cover exactly the work that completed. *)
  let memory = Sim.Memory.create () in
  let cell = Sim.Memory.alloc memory ~size:1 in
  let program (_ : Sim.Program.ctx) =
    for _ = 1 to 5 do
      ignore (Sim.Program.faa cell 1);
      Sim.Program.complete ()
    done
  in
  let spec = { Sim.Executor.name = "bounded"; memory; program } in
  let r =
    Sim.Executor.exec
      ~config:
        Sim.Executor.Config.(
          default
          |> with_faults
               (Sched.Fault_plan.make [ (3, Sched.Fault_plan.Crash 0) ]))
      ~scheduler:(Sched.Scheduler.round_robin ())
      ~n:2 ~stop:(Steps 100_000) spec
  in
  Alcotest.(check bool) "stopped early" true r.stopped_early;
  Alcotest.(check bool) "p0 crashed" true r.crashed.(0);
  Alcotest.(check bool) "p1 terminated" true r.terminated.(1);
  (* Round-robin: p0 stepped at times 0 and 2, so 2 completed ops. *)
  Alcotest.(check int) "p0 partial ops" 2 (Sim.Metrics.completions_of r.metrics 0);
  Alcotest.(check int) "p1 all ops" 5 (Sim.Metrics.completions_of r.metrics 1);
  Alcotest.(check int) "cell shows completed work only" 7 (Sim.Memory.get memory cell);
  Alcotest.(check bool) "p0 pending op preserved" true (r.pending.(0) <> None)

let test_choose_none_stops_at_frontier () =
  (* The explorer's choice callback declining under an active crash
     plan: the run stops where the callback said, with the crash
     already applied. *)
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  let r =
    Sim.Executor.exec
      ~config:
        Sim.Executor.Config.(
          default
          |> with_faults (Sched.Fault_plan.of_crash_events [ (5, 1) ])
          |> with_choose (fun ~alive ~time ->
                 if time >= 10 then None
                 else Some (if alive.(1) then time mod 2 else 0)))
      ~scheduler:Sched.Scheduler.uniform ~n:2 ~stop:(Steps 1_000) spec
  in
  Alcotest.(check bool) "stopped early" true r.stopped_early;
  Alcotest.(check int) "stopped at the frontier" 10 (Sim.Metrics.time r.metrics);
  Alcotest.(check bool) "crash applied before the stop" true r.crashed.(1)

let test_pending_preserved_for_crashed_casget () =
  (* A process crashed while suspended at an augmented CAS: its
     pending operation is preserved for post-mortem analysis. *)
  let memory = Sim.Memory.create () in
  let cell = Sim.Memory.alloc memory ~size:1 in
  let program (ctx : Sim.Program.ctx) =
    if ctx.id = 0 then begin
      let rec loop v =
        let got = Sim.Program.cas_get cell ~expected:v ~value:(v + 1) in
        Sim.Program.complete ();
        loop got
      in
      loop (Sim.Program.read cell)
    end
    else
      let rec spin () =
        ignore (Sim.Program.read cell);
        spin ()
      in
      spin ()
  in
  let spec = { Sim.Executor.name = "casget"; memory; program } in
  let r =
    Sim.Executor.exec
      ~config:
        Sim.Executor.Config.(
          default
          |> with_faults
               (Sched.Fault_plan.make [ (2, Sched.Fault_plan.Crash 0) ]))
      ~scheduler:(Sched.Scheduler.round_robin ())
      ~n:2 ~stop:(Steps 100) spec
  in
  Alcotest.(check bool) "p0 crashed" true r.crashed.(0);
  match r.pending.(0) with
  | Some (Sim.Memory.Cas_get _) -> ()
  | _ -> Alcotest.fail "expected p0 pending at a Cas_get"

let test_spurious_cas_slows_but_stays_correct () =
  let run rate =
    let c = Scu.Counter.make ~n:4 in
    let plan =
      if rate > 0. then Sched.Fault_plan.make ~spurious:[ (None, rate) ] []
      else Sched.Fault_plan.none
    in
    let r =
      Sim.Executor.exec
        ~config:
          Sim.Executor.Config.(default |> with_seed 11 |> with_faults plan)
        ~scheduler:Sched.Scheduler.uniform ~n:4 ~stop:(Steps 30_000) c.spec
    in
    (r, Scu.Counter.value c c.spec.memory)
  in
  let r0, v0 = run 0. in
  let r5, v5 = run 0.5 in
  Alcotest.(check int) "fault-free run has no denials" 0 r0.spurious_cas;
  Alcotest.(check bool) "denials counted" true (r5.spurious_cas > 0);
  Alcotest.(check bool) "throughput drops under denial" true
    (Sim.Metrics.total_completions r5.metrics
    < Sim.Metrics.total_completions r0.metrics);
  (* Denied CASes are transparent retries: the register still counts
     exactly the completed operations. *)
  Alcotest.(check int) "register = completions (fault-free)"
    (Sim.Metrics.total_completions r0.metrics)
    v0;
  Alcotest.(check int) "register = completions (faulty)"
    (Sim.Metrics.total_completions r5.metrics)
    v5

let test_fault_plan_all_crash_rejected () =
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  Alcotest.check_raises "permanent all-crash rejected"
    (Invalid_argument
       "Executor.run: fault plan: all processes would crash permanently")
    (fun () ->
      ignore
        (Sim.Executor.exec
           ~config:
             Sim.Executor.Config.(
               default
               |> with_faults
                    (Sched.Fault_plan.make
                       [
                         (10, Sched.Fault_plan.Crash 0);
                         (20, Sched.Fault_plan.Crash 1);
                       ]))
           ~scheduler:Sched.Scheduler.uniform ~n:2 ~stop:(Steps 100) spec))

(* -- Termination -------------------------------------------------- *)

let test_terminated_processes_leave () =
  (* Processes run a bounded number of ops and return; the run should
     stop early once everyone terminated. *)
  let memory = Sim.Memory.create () in
  let cell = Sim.Memory.alloc memory ~size:1 in
  let program (_ : Sim.Program.ctx) =
    for _ = 1 to 10 do
      ignore (Sim.Program.faa cell 1);
      Sim.Program.complete ()
    done
  in
  let spec = { Sim.Executor.name = "bounded"; memory; program } in
  let r =
    Sim.Executor.exec ~scheduler:Sched.Scheduler.uniform ~n:3
      ~stop:(Steps 100_000) spec
  in
  Alcotest.(check bool) "stopped early" true r.stopped_early;
  Alcotest.(check int) "exactly 30 ops" 30 (Sim.Metrics.total_completions r.metrics);
  Alcotest.(check int) "cell counted every op" 30 (Sim.Memory.get memory cell);
  Array.iter (fun t -> Alcotest.(check bool) "terminated flag" true t) r.terminated

(* -- Metrics ------------------------------------------------------ *)

let test_metrics_gaps () =
  let m = Sim.Metrics.create ~record_samples:true ~n:2 () in
  (* proc 0 completes at times 2 and 5; proc 1 at time 3. *)
  Sim.Metrics.on_step m 0;
  Sim.Metrics.on_step m 0;
  Sim.Metrics.on_complete m 0;
  Sim.Metrics.on_step m 1;
  Sim.Metrics.on_complete m 1;
  Sim.Metrics.on_step m 0;
  Sim.Metrics.on_step m 0;
  Sim.Metrics.on_complete m 0;
  Alcotest.(check (float 1e-9)) "system gaps mean" 1.5
    (Stats.Summary.mean (Sim.Metrics.system_latency m));
  Alcotest.(check (float 1e-9)) "individual gap p0" 3.
    (Sim.Metrics.mean_individual_latency m 0);
  Alcotest.(check int) "own-step gap count p0" 1
    (Stats.Summary.count (Sim.Metrics.own_step_latency m 0));
  Alcotest.(check (float 1e-9)) "own-step gap p0" 2.
    (Stats.Summary.mean (Sim.Metrics.own_step_latency m 0));
  Alcotest.(check (float 1e-9)) "completion rate" (3. /. 5.) (Sim.Metrics.completion_rate m);
  Alcotest.(check int) "system samples recorded" 2
    (Array.length (Sim.Metrics.system_samples m))

let test_scheduler_cannot_pick_dead () =
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  let evil =
    {
      Sched.Scheduler.name = "evil";
      theta = 0.;
      stateful = false;
      pick = (fun ~rng:_ ~alive:_ ~time:_ -> 1);
      fill = None;
    }
  in
  let fault_plan = Sched.Fault_plan.of_crash_events [ (5, 1) ] in
  (try
     ignore
       (Sim.Executor.exec
          ~config:Sim.Executor.Config.(default |> with_faults fault_plan)
          ~scheduler:evil ~n:2 ~stop:(Steps 100) spec);
     Alcotest.fail "expected executor to reject dead pick"
   with Invalid_argument msg ->
     Alcotest.(check bool) "error mentions dead process" true
       (String.length msg > 0));
  ignore (rng ())

let test_invariant_hook_runs () =
  let calls = ref 0 in
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  ignore
    (Sim.Executor.exec
       ~config:
         Sim.Executor.Config.(
           default
           |> with_invariant ~interval:100 (fun mem ~time ->
                  incr calls;
                  (* The monitored cell count never shrinks. *)
                  if Sim.Memory.used mem < 2 then failwith "memory shrank";
                  ignore time))
       ~scheduler:Sched.Scheduler.uniform ~n:2 ~stop:(Steps 1_000) spec);
  (* Every 100 steps plus the final call. *)
  Alcotest.(check int) "invariant called" 11 !calls

let test_invariant_failure_surfaces () =
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  Alcotest.check_raises "raises from the hook" (Failure "broken") (fun () ->
      ignore
        (Sim.Executor.exec
           ~config:
             Sim.Executor.Config.(
               default
               |> with_invariant ~interval:100 (fun _ ~time ->
                      if time >= 300 then failwith "broken"))
           ~scheduler:Sched.Scheduler.uniform ~n:2 ~stop:(Steps 1_000) spec))

let test_invariant_treiber_wellformed_throughout () =
  (* The stack's top chain must be a valid, acyclic, null-terminated
     list at every checkpoint — checked while pushes and pops race. *)
  let s = Scu.Treiber.make ~n:6 () in
  let check mem ~time:_ =
    let seen = Hashtbl.create 64 in
    let rec walk node =
      if node <> 0 then begin
        if Hashtbl.mem seen node then failwith "cycle in stack";
        Hashtbl.add seen node ();
        walk (Sim.Memory.get mem (node + 1))
      end
    in
    walk (Sim.Memory.get mem s.top)
  in
  ignore
    (Sim.Executor.exec
       ~config:
         Sim.Executor.Config.(default |> with_invariant ~interval:97 check)
       ~scheduler:Sched.Scheduler.uniform ~n:6 ~stop:(Steps 100_000) s.spec)

let test_program_exception_propagates () =
  let memory = Sim.Memory.create () in
  let cell = Sim.Memory.alloc memory ~size:1 in
  let program (_ : Sim.Program.ctx) =
    ignore (Sim.Program.read cell);
    failwith "boom"
  in
  let spec = { Sim.Executor.name = "raiser"; memory; program } in
  Alcotest.check_raises "program failure surfaces" (Failure "boom") (fun () ->
      ignore
        (Sim.Executor.exec ~scheduler:Sched.Scheduler.uniform ~n:1
           ~stop:(Steps 10) spec))

let test_zero_steps () =
  let _, spec = private_counter_spec ~n:2 ~q:1 in
  let r =
    Sim.Executor.exec ~scheduler:Sched.Scheduler.uniform ~n:2 ~stop:(Steps 0)
      spec
  in
  Alcotest.(check int) "no time passes" 0 (Sim.Metrics.time r.metrics);
  Alcotest.(check int) "no completions" 0 (Sim.Metrics.total_completions r.metrics)

let test_single_process_counter_exact () =
  (* One process, no contention: the CAS counter completes exactly one
     operation per 2 steps. *)
  let c = Scu.Counter.make ~n:1 in
  let r =
    Sim.Executor.exec ~scheduler:Sched.Scheduler.uniform ~n:1
      ~stop:(Steps 1_000) c.spec
  in
  Alcotest.(check int) "steps/2 completions" 500 (Sim.Metrics.total_completions r.metrics)

(* -- Model-based memory property ------------------------------------ *)

(* Random op sequences against a trivial functional model: an int map.
   Catches any drift between the simulated primitives and their
   specification. *)
let prop_memory_vs_model =
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 100000)
        (list_size (int_range 1 200)
           (tup4 (int_range 0 4) (int_range 0 7) (int_range (-3) 3) (int_range (-3) 3))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"memory agrees with a functional model" ~count:200 gen
       (fun (_, ops) ->
         let mem = Sim.Memory.create () in
         let base = Sim.Memory.alloc mem ~size:8 in
         let model = Array.make 8 0 in
         List.for_all
           (fun (kind, cell, x, y) ->
             let a = base + cell in
             match kind with
             | 0 ->
                 let got = Sim.Memory.apply mem (Read a) in
                 got = model.(cell)
             | 1 ->
                 let got = Sim.Memory.apply mem (Write (a, x)) in
                 model.(cell) <- x;
                 got = x
             | 2 ->
                 let expected_success = model.(cell) = x in
                 let got = Sim.Memory.apply mem (Cas (a, x, y)) in
                 if expected_success then model.(cell) <- y;
                 got = (if expected_success then 1 else 0)
             | 3 ->
                 let old = model.(cell) in
                 let got = Sim.Memory.apply mem (Cas_get (a, x, y)) in
                 if old = x then model.(cell) <- y;
                 got = old
             | _ ->
                 let old = model.(cell) in
                 let got = Sim.Memory.apply mem (Faa (a, x)) in
                 model.(cell) <- old + x;
                 got = old)
           ops))

let test_method_metrics () =
  let m = Sim.Metrics.create ~n:2 () in
  Sim.Metrics.on_step m 0;
  Sim.Metrics.on_complete_method m 0 7;
  Sim.Metrics.on_step m 1;
  Sim.Metrics.on_step m 1;
  Sim.Metrics.on_complete_method m 1 7;
  Sim.Metrics.on_complete_method m 1 9;
  Alcotest.(check (list int)) "methods observed" [ 7; 9 ] (Sim.Metrics.methods m);
  Alcotest.(check int) "total completions include labeled" 3
    (Sim.Metrics.total_completions m);
  Alcotest.(check bool) "per-proc method counts" true
    (Sim.Metrics.method_completions m ~method_:7 = [| 1; 1 |]);
  Alcotest.(check (float 1e-9)) "method gap" 2.
    (Stats.Summary.mean (Sim.Metrics.method_system_latency m ~method_:7));
  Alcotest.(check int) "unseen method empty" 0
    (Array.fold_left ( + ) 0 (Sim.Metrics.method_completions m ~method_:42))

let () =
  Alcotest.run "sim"
    [
      ( "memory",
        [
          Alcotest.test_case "ops semantics" `Quick test_memory_ops;
          Alcotest.test_case "alloc" `Quick test_memory_alloc;
          Alcotest.test_case "null rejected" `Quick test_null_rejected;
        ] );
      ( "executor",
        [
          Alcotest.test_case "step accounting" `Quick test_steps_accounting;
          Alcotest.test_case "completions counted" `Quick test_completions_counted;
          Alcotest.test_case "deterministic given seed" `Quick test_determinism;
          Alcotest.test_case "round-robin exact" `Quick test_round_robin_exact;
          Alcotest.test_case "terminated processes leave" `Quick
            test_terminated_processes_leave;
          Alcotest.test_case "dead pick rejected" `Quick test_scheduler_cannot_pick_dead;
          Alcotest.test_case "program exception propagates" `Quick
            test_program_exception_propagates;
          Alcotest.test_case "zero steps" `Quick test_zero_steps;
          Alcotest.test_case "n=1 counter exact" `Quick test_single_process_counter_exact;
          Alcotest.test_case "invariant hook runs" `Quick test_invariant_hook_runs;
          Alcotest.test_case "invariant failure surfaces" `Quick
            test_invariant_failure_surfaces;
          Alcotest.test_case "treiber well-formed throughout" `Quick
            test_invariant_treiber_wellformed_throughout;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "crash removes process" `Quick test_crash_removes_process;
          Alcotest.test_case "all-crash rejected" `Quick test_all_crash_rejected;
          Alcotest.test_case "duplicate crash is a no-op" `Quick
            test_duplicate_crash_noop;
        ] );
      ( "faults",
        [
          Alcotest.test_case "restart revives" `Quick test_restart_revives_process;
          Alcotest.test_case "stall is temporary" `Quick test_stall_window_is_temporary;
          Alcotest.test_case "all-stalled idles then resumes" `Quick
            test_all_stalled_idles_then_resumes;
          Alcotest.test_case "all-dead stops early, sound partial metrics" `Quick
            test_all_dead_stops_early_with_partial_metrics;
          Alcotest.test_case "choose None under crash plan" `Quick
            test_choose_none_stops_at_frontier;
          Alcotest.test_case "pending preserved mid-Cas_get" `Quick
            test_pending_preserved_for_crashed_casget;
          Alcotest.test_case "spurious CAS slows, stays correct" `Quick
            test_spurious_cas_slows_but_stays_correct;
          Alcotest.test_case "permanent all-crash rejected" `Quick
            test_fault_plan_all_crash_rejected;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "gap bookkeeping" `Quick test_metrics_gaps;
          Alcotest.test_case "per-method bookkeeping" `Quick test_method_metrics;
        ] );
      ("properties", [ prop_memory_vs_model ]);
    ]
