(* Pins for the instruction-compilation layer and the compiled
   executor's byte-identity contract: opcode encoding, assembler
   validation messages, the unified Executor.Config API (defaults,
   builders, validation, the deprecated [run] wrapper), batched versus
   per-step scheduler draws, the Stepbench measurement protocol, and
   the interpreter-vs-compiled differential property suite. *)

open Core

let invalid msg f = Alcotest.check_raises msg (Invalid_argument msg) f

(* -- Opcode encoding ------------------------------------------------ *)

(* The flat encoding is load-bearing: the executor's dispatch loop,
   [Compile.to_program] and the shared/local split (opcode <=
   last_shared) all assume these exact values, so renumbering is a
   breaking change this test makes loud. *)
let test_encoding () =
  let open Sim.Compile in
  Alcotest.(check int) "nregs" 8 nregs;
  Alcotest.(check int) "read" 0 Op.read;
  Alcotest.(check int) "write" 1 Op.write;
  Alcotest.(check int) "cas" 2 Op.cas;
  Alcotest.(check int) "cas_get" 3 Op.cas_get;
  Alcotest.(check int) "faa" 4 Op.faa;
  Alcotest.(check int) "last_shared" 4 Op.last_shared;
  Alcotest.(check int) "halt" 5 Op.halt;
  Alcotest.(check int) "complete" 6 Op.complete;
  Alcotest.(check int) "loadi" 7 Op.loadi;
  Alcotest.(check int) "mov" 8 Op.mov;
  Alcotest.(check int) "addi" 9 Op.addi;
  Alcotest.(check int) "add" 10 Op.add;
  Alcotest.(check int) "sub" 11 Op.sub;
  Alcotest.(check int) "jmp" 12 Op.jmp;
  Alcotest.(check int) "beq" 13 Op.beq;
  Alcotest.(check int) "bne" 14 Op.bne;
  Alcotest.(check int) "blt" 15 Op.blt;
  Alcotest.(check int) "rand" 16 Op.rand;
  Alcotest.(check int) "now" 17 Op.now;
  Alcotest.(check int) "pid" 18 Op.pid;
  Alcotest.(check int) "nproc" 19 Op.nproc;
  Alcotest.(check int) "alloc" 20 Op.alloc;
  Alcotest.(check int) "count" 21 Op.count

(* -- Assembler validation ------------------------------------------- *)

let test_assemble_validation () =
  let open Sim.Compile in
  let asm l () = ignore (assemble l) in
  invalid "Compile.assemble: empty program" (asm []);
  invalid "Compile.assemble: read: register 8 out of range (0..7)"
    (asm [ Read 8 ]);
  invalid "Compile.assemble: write: register -1 out of range (0..7)"
    (asm [ Write (-1, 0) ]);
  invalid "Compile.assemble: duplicate label l"
    (asm [ Label "l"; Read 0; Label "l" ]);
  invalid "Compile.assemble: jmp: unknown label nowhere" (asm [ Jmp "nowhere" ]);
  invalid "Compile.assemble: beq: unknown label gone"
    (asm [ Beq (0, 0, "gone") ]);
  invalid "Compile.assemble: negative method id" (asm [ Complete_method (-1) ]);
  invalid "Compile.assemble: rand bound must be positive" (asm [ Rand (1, 0) ]);
  invalid "Compile.assemble: alloc size must be positive" (asm [ Alloc (1, 0) ])

let test_layout () =
  let open Sim.Compile in
  let c = assemble [ Read 3 ] in
  Alcotest.(check int) "implicit halt appended" 2 (word_count c);
  Alcotest.(check bool) "falls through => has_halt" true c.has_halt;
  Alcotest.(check int) "one shared op" 1 c.shared_ops;
  (* Closed ring: jumps back to the top, can never reach a halt — the
     shape that licenses the executor's batched fast path. *)
  let ring = assemble [ Label "top"; Faa (3, 1); Complete; Jmp "top" ] in
  Alcotest.(check bool) "closed ring => no reachable halt" false ring.has_halt;
  Alcotest.(check bool) "explicit halt"
    true
    (assemble [ Read 3; Halt ]).has_halt;
  (* A label at the very end resolves to the implicit halt word. *)
  let tail =
    assemble
      [ Label "top"; Faa (3, 1); Beq (1, 1, "out"); Jmp "top"; Label "out" ]
  in
  Alcotest.(check bool) "trailing label reaches implicit halt" true
    tail.has_halt;
  Alcotest.(check int) "disassembly: one line per word" (word_count ring)
    (List.length (String.split_on_char '\n' (String.trim (disassemble ring))))

(* -- Counter kernel parity ------------------------------------------ *)

let test_counter_parity () =
  let m_i = Experiments.Stepbench.counter_interp ~seed:7 ~n:8 ~steps:20_000 () in
  let m_c =
    Experiments.Stepbench.counter_compiled ~seed:7 ~n:8 ~steps:20_000 ()
  in
  Alcotest.(check string) "interp/compiled metrics byte-identical"
    (Sim.Metrics.fingerprint m_i)
    (Sim.Metrics.fingerprint m_c)

(* -- Config API ----------------------------------------------------- *)

let test_config_defaults () =
  let d = Sim.Executor.Config.default in
  Alcotest.(check int) "seed" 0xC0FFEE d.Sim.Executor.Config.seed;
  Alcotest.(check bool) "trace off" false d.Sim.Executor.Config.trace;
  Alcotest.(check bool) "samples off" false
    d.Sim.Executor.Config.record_samples;
  Alcotest.(check bool) "no faults" true
    (Sched.Fault_plan.is_none d.Sim.Executor.Config.fault_plan);
  Alcotest.(check int) "max_steps" 200_000_000 d.Sim.Executor.Config.max_steps;
  Alcotest.(check int) "invariant interval" 1000
    d.Sim.Executor.Config.invariant_interval;
  Alcotest.(check bool) "no invariant" true
    (d.Sim.Executor.Config.invariant = None);
  Alcotest.(check bool) "no choice hook" true
    (d.Sim.Executor.Config.choose = None)

let test_config_builders () =
  let open Sim.Executor.Config in
  let c =
    default |> with_seed 5 |> with_trace true |> with_samples true
    |> with_max_steps 77
    |> with_choose (fun ~alive:_ ~time:_ -> None)
  in
  Alcotest.(check int) "with_seed" 5 c.seed;
  Alcotest.(check bool) "with_trace" true c.trace;
  Alcotest.(check bool) "with_samples" true c.record_samples;
  Alcotest.(check int) "with_max_steps" 77 c.max_steps;
  Alcotest.(check bool) "with_choose" true (c.choose <> None);
  let inv = (fun _ ~time:_ -> ()) in
  let c1 = c |> with_invariant inv in
  Alcotest.(check int) "with_invariant keeps current interval" 1000
    c1.invariant_interval;
  Alcotest.(check bool) "invariant installed" true (c1.invariant <> None);
  let c2 = c |> with_invariant ~interval:9 inv in
  Alcotest.(check int) "with_invariant ~interval" 9 c2.invariant_interval

let counter_spec () = (Scu.Counter.make ~n:4).Scu.Counter.spec

let test_exec_validation () =
  let scheduler = Sched.Scheduler.uniform in
  let stop = Sim.Executor.Steps 1 in
  invalid "Executor.run: n must be positive" (fun () ->
      ignore (Sim.Executor.exec ~scheduler ~n:0 ~stop (counter_spec ())));
  let bad_interval =
    Sim.Executor.Config.
      { default with invariant = Some (fun _ ~time:_ -> ()); invariant_interval = 0 }
  in
  invalid "Executor.run: invariant_interval must be >= 1" (fun () ->
      ignore
        (Sim.Executor.exec ~config:bad_interval ~scheduler ~n:2 ~stop
           (counter_spec ())));
  let all_crash =
    Sched.Fault_plan.make
      [ (0, Sched.Fault_plan.Crash 0); (0, Sched.Fault_plan.Crash 1) ]
  in
  invalid "Executor.run: fault plan: all processes would crash permanently"
    (fun () ->
      ignore
        (Sim.Executor.exec
           ~config:Sim.Executor.Config.(default |> with_faults all_crash)
           ~scheduler ~n:2 ~stop (counter_spec ())))

(* -- Batched scheduler draws ---------------------------------------- *)

let compiled_counter_result ?(config = Sim.Executor.Config.default) ~scheduler
    ~steps () =
  let c = Scu.Counter.make_compiled ~n:6 in
  Sim.Executor.exec_compiled
    ~config:Sim.Executor.Config.(config |> with_seed 11)
    ~scheduler ~n:6
    ~stop:(Sim.Executor.Steps steps)
    c.Scu.Counter.cspec

let test_batched_matches_per_step () =
  (* Dropping [fill] forces the per-step pick path; the batched draw
     stream must be bit-for-bit the same. *)
  let batched =
    compiled_counter_result ~scheduler:Sched.Scheduler.uniform ~steps:30_000 ()
  in
  let per_step =
    compiled_counter_result
      ~scheduler:{ Sched.Scheduler.uniform with fill = None }
      ~steps:30_000 ()
  in
  Alcotest.(check string) "fill = None stream identical"
    (Sim.Executor.fingerprint batched)
    (Sim.Executor.fingerprint per_step)

let test_batched_matches_drive_observed () =
  (* With a trace and an invariant that records its call times, the
     batched loop and the per-pick driver ([fill = None]) must agree on
     every observable: the fingerprint, trace included, and the
     invariant's cadence. *)
  let observed scheduler =
    let times = ref [] in
    let r =
      compiled_counter_result
        ~config:
          Sim.Executor.Config.(
            default |> with_trace true
            |> with_invariant ~interval:1_000 (fun _ ~time ->
                   times := time :: !times))
        ~scheduler ~steps:30_000 ()
    in
    Alcotest.(check bool) "trace recorded" true (r.Sim.Executor.trace <> None);
    (Sim.Executor.fingerprint r, List.rev !times)
  in
  let batched, batched_times = observed Sched.Scheduler.uniform in
  let driven, driven_times =
    observed { Sched.Scheduler.uniform with fill = None }
  in
  Alcotest.(check string) "batched loop == drive, trace included" driven
    batched;
  Alcotest.(check (list int)) "invariant call times" driven_times batched_times;
  (* Every 1,000th step, then once after the run. *)
  Alcotest.(check int) "invariant calls" 31 (List.length batched_times)

let test_fast_loop_matches_faulted_slow_loop () =
  (* A stall scheduled far past the horizon never fires but disables
     batching entirely — the per-pick fault loop must replay the same
     run. *)
  let fast =
    compiled_counter_result ~scheduler:Sched.Scheduler.uniform ~steps:30_000 ()
  in
  let slow =
    compiled_counter_result
      ~config:
        Sim.Executor.Config.(
          default
          |> with_faults
               (Sched.Fault_plan.make
                  [ (1_000_000, Sched.Fault_plan.Stall (0, 5)) ]))
      ~scheduler:Sched.Scheduler.uniform ~steps:30_000 ()
  in
  Alcotest.(check string) "fast loop == fault-checking loop"
    (Sim.Executor.fingerprint fast)
    (Sim.Executor.fingerprint slow)

(* -- Stepbench measurement protocol --------------------------------- *)

let test_median_of () =
  let open Experiments.Stepbench in
  Alcotest.(check (float 0.)) "odd count: middle" 2. (median_of [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even count: lower median" 2.
    (median_of [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "singleton" 5. (median_of [| 5. |]);
  invalid "Stepbench.median_of: empty samples" (fun () ->
      ignore (median_of [||]))

let test_measure_protocol () =
  let open Experiments.Stepbench in
  (* Fake clock: each run of [work] advances the clock by the run
     index, so sample k of the timed phase is exactly (warmup + k + 1)
     — warmup runs execute but are not timed. *)
  let calls = ref 0 in
  let t = ref 0. in
  let work () =
    incr calls;
    t := !t +. float_of_int !calls
  in
  let m = measure ~clock:(fun () -> !t) ~protocol:{ warmup = 2; repeat = 3 } work in
  Alcotest.(check int) "warmup runs execute" 5 !calls;
  Alcotest.(check (array (float 0.))) "samples in run order" [| 3.; 4.; 5. |]
    m.samples;
  Alcotest.(check (float 0.)) "median of samples" 4. m.median;
  Alcotest.(check (float 0.)) "default protocol = 1 warmup, 3 timed" 3.
    (float_of_int default.warmup *. float_of_int default.repeat);
  invalid "Stepbench.measure: warmup must be >= 0" (fun () ->
      ignore (measure ~protocol:{ warmup = -1; repeat = 1 } ignore));
  invalid "Stepbench.measure: repeat must be >= 1" (fun () ->
      ignore (measure ~protocol:{ warmup = 0; repeat = 0 } ignore))

let test_steps_per_sec () =
  let open Experiments.Stepbench in
  Alcotest.(check (float 0.)) "rate" 50. (steps_per_sec ~steps:100 ~seconds:2.);
  Alcotest.(check (float 0.)) "zero time" infinity
    (steps_per_sec ~steps:100 ~seconds:0.)

(* -- Differential: interpreter vs compiled -------------------------- *)

let case_of_seed seed =
  let rng = Stats.Rng.create ~seed in
  Check.Differential.gen_case ~id:seed ~rng

let prop_interp_compiled_identical =
  Test_util.prop "interpreter and compiled executor byte-identical" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    ~print:(fun seed -> Check.Differential.case_to_string (case_of_seed seed))
    (fun seed ->
      (Check.Differential.run_case (case_of_seed seed)).Check.Differential.equal)

let test_differential_trials () =
  match Check.Differential.run_trials ~seed:42 ~trials:120 with
  | None -> ()
  | Some (case, outcome) ->
      Alcotest.failf "interpreter/compiled divergence:\n%s\n%s"
        (Check.Differential.case_to_string case)
        outcome.Check.Differential.detail

let () =
  Alcotest.run "compile"
    [
      ( "encoding",
        [
          Alcotest.test_case "opcode numbering" `Quick test_encoding;
          Alcotest.test_case "assembler validation" `Quick
            test_assemble_validation;
          Alcotest.test_case "layout and halt analysis" `Quick test_layout;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "builders" `Quick test_config_builders;
          Alcotest.test_case "validation" `Quick test_exec_validation;
        ] );
      ( "executor paths",
        [
          Alcotest.test_case "counter kernel parity" `Quick test_counter_parity;
          Alcotest.test_case "batched = per-step picks" `Quick
            test_batched_matches_per_step;
          Alcotest.test_case "batched = drive, traced + invariant" `Quick
            test_batched_matches_drive_observed;
          Alcotest.test_case "fast loop = fault-checking loop" `Quick
            test_fast_loop_matches_faulted_slow_loop;
        ] );
      ( "stepbench",
        [
          Alcotest.test_case "median_of" `Quick test_median_of;
          Alcotest.test_case "measure protocol" `Quick test_measure_protocol;
          Alcotest.test_case "steps_per_sec" `Quick test_steps_per_sec;
        ] );
      ( "differential",
        [
          prop_interp_compiled_identical;
          Alcotest.test_case "seeded trial sweep" `Quick
            test_differential_trials;
        ] );
    ]
