(* Tests for lib/check: the schedule-replay substrate, the bounded
   exhaustive explorer (which must catch every seeded bug and certify
   every stock structure clean), the fuzzer with shrinking, and the
   statistical conformance gates. *)

open Core

let find = Scu.Checkable.find

let run_schedule ?mix_seed structure ~n ~ops ~tail sched =
  Check.Schedule.run ?mix_seed ~structure:(find structure) ~n ~ops ~tail sched

(* -- Schedule replay substrate -------------------------------------- *)

let test_any_array_is_a_schedule () =
  (* Entries naming dead/out-of-range processes normalize to the next
     runnable process; replaying the effective schedule is a fixed
     point. *)
  let sched = [| 7; -3; 0; 99; 1; 1; 42; 0; -1; 5 |] in
  let out = run_schedule "cas-counter" ~n:2 ~ops:2 ~tail:Stop sched in
  Array.iter
    (fun p -> Alcotest.(check bool) "pick in range" true (p >= 0 && p < 2))
    out.Check.Schedule.executed;
  let again =
    run_schedule "cas-counter" ~n:2 ~ops:2 ~tail:Stop out.Check.Schedule.executed
  in
  Alcotest.(check (array int))
    "effective schedule is a fixed point" out.Check.Schedule.executed
    again.Check.Schedule.executed;
  Alcotest.(check string)
    "same verdict"
    (Check.Schedule.verdict_to_string out.Check.Schedule.verdict)
    (Check.Schedule.verdict_to_string again.Check.Schedule.verdict)

let test_round_robin_tail_completes () =
  let out = run_schedule "treiber" ~n:2 ~ops:2 ~tail:Round_robin [||] in
  Alcotest.(check bool) "terminal" true out.Check.Schedule.terminal;
  Alcotest.(check (array int))
    "all ops completed" [| 2; 2 |] out.Check.Schedule.completed;
  Alcotest.(check bool)
    "linearizable" false
    (Check.Schedule.is_bad out.Check.Schedule.verdict)

let test_62_op_boundary () =
  (* n * ops = 62 is the checker's bitmask limit: accepted end-to-end;
     63 is rejected up front. *)
  let out = run_schedule "faa-counter" ~n:1 ~ops:62 ~tail:Round_robin [||] in
  Alcotest.(check bool)
    "62 sequential ops check out" false
    (Check.Schedule.is_bad out.Check.Schedule.verdict);
  Alcotest.check_raises "63 ops rejected"
    (Invalid_argument
       "Schedule.run: n * ops must be <= 62 (linearizability checker limit)")
    (fun () -> ignore (run_schedule "faa-counter" ~n:1 ~ops:63 ~tail:Stop [||]))

let test_crash_never_false_alarms () =
  (* Crashing a process mid-operation leaves an in-flight op; the
     sound partial-history rule must never call that a violation. *)
  let fault_plan = Sched.Fault_plan.of_crash_events [ (3, 1) ] in
  let out =
    Check.Schedule.run ~fault_plan ~structure:(find "cas-counter") ~n:2 ~ops:2
      ~tail:Round_robin [||]
  in
  Alcotest.(check bool)
    "no false alarm under crash" false
    (Check.Schedule.is_bad out.Check.Schedule.verdict)

let test_ddmin_minimizes () =
  (* ddmin over a pure predicate: keep arrays containing >= 3 sevens.
     The greedy minimum is exactly three sevens. *)
  let fails a = Array.fold_left (fun n x -> if x = 7 then n + 1 else n) 0 a >= 3 in
  let input = [| 1; 7; 2; 7; 3; 7; 4; 7; 5; 7 |] in
  let out = Check.Schedule.ddmin ~fails input in
  Alcotest.(check bool) "still fails" true (fails out);
  Alcotest.(check (array int)) "1-minimal" [| 7; 7; 7 |] out

(* -- Explorer: seeded bugs found, stock certified ------------------- *)

let explore ?config name ~n ~ops =
  Check.Explore.explore ?config ~structure:(find name) ~n ~ops ()

let check_bug_found name ~n ~ops () =
  let r = explore name ~n ~ops in
  Alcotest.(check bool)
    (name ^ " violations found") true
    (r.Check.Explore.violations <> []);
  (* Every reported schedule must replay to a bad verdict. *)
  List.iter
    (fun (v : Check.Explore.violation) ->
      let out = run_schedule name ~n ~ops ~tail:Stop v.schedule in
      Alcotest.(check bool)
        "violation replays" true
        (Check.Schedule.is_bad out.Check.Schedule.verdict))
    r.Check.Explore.violations

let check_stock_clean name ~n ~ops () =
  let r = explore name ~n ~ops in
  Alcotest.(check int)
    (name ^ " no violations") 0
    (List.length r.Check.Explore.violations);
  Alcotest.(check bool) (name ^ " exhausted") true r.Check.Explore.exhausted

let test_pruning_is_sound () =
  (* The DPOR-lite prunes must not change the verdict: with pruning
     disabled the explorer visits more nodes but finds the same
     violations-or-not answer. *)
  let bare =
    { Check.Explore.default with prune_states = false; sleep_sets = false }
  in
  let fast = explore "counter-nocas" ~n:2 ~ops:2 in
  let slow = explore ~config:bare "counter-nocas" ~n:2 ~ops:2 in
  Alcotest.(check bool) "pruned finds bug" true (fast.Check.Explore.violations <> []);
  Alcotest.(check bool) "unpruned finds bug" true (slow.Check.Explore.violations <> []);
  Alcotest.(check bool)
    "pruning saves work" true
    (fast.Check.Explore.nodes < slow.Check.Explore.nodes);
  let clean = explore "cas-counter" ~n:2 ~ops:2 in
  let clean_bare = explore ~config:bare "cas-counter" ~n:2 ~ops:2 in
  Alcotest.(check int)
    "clean stays clean unpruned" 0
    (List.length clean_bare.Check.Explore.violations);
  Alcotest.(check int)
    "clean stays clean pruned" 0
    (List.length clean.Check.Explore.violations)

(* -- Fuzzer --------------------------------------------------------- *)

let fuzz ?config name ~n ~ops =
  Check.Fuzz.fuzz ?config ~structure:(find name) ~n ~ops ()

let fuzz_config =
  { Check.Fuzz.default with trials = 150; seed = Test_util.seed }

let test_fuzz_catches_seeded_bug () =
  let r = fuzz ~config:fuzz_config "treiber-nocas" ~n:2 ~ops:2 in
  Alcotest.(check bool)
    (Printf.sprintf "failures found (REPRO_TEST_SEED=%d)" Test_util.seed)
    true
    (r.Check.Fuzz.failures <> []);
  List.iter
    (fun (f : Check.Fuzz.failure) ->
      (* A qcheck failure was judged under the deterministic
         round-robin tail; scheduler-trace failures under Stop. *)
      let tail =
        if f.source = "qcheck" then Check.Schedule.Round_robin
        else Check.Schedule.Stop
      in
      let out = run_schedule ?mix_seed:f.mix_seed "treiber-nocas" ~n:2 ~ops:2 ~tail f.schedule in
      Alcotest.(check bool)
        ("minimal schedule replays: " ^ f.replay)
        true
        (Check.Schedule.is_bad out.Check.Schedule.verdict))
    r.Check.Fuzz.failures

let test_fuzz_stock_clean () =
  List.iter
    (fun name ->
      let r = fuzz ~config:fuzz_config name ~n:3 ~ops:2 in
      Alcotest.(check int)
        (Printf.sprintf "%s clean (REPRO_TEST_SEED=%d)" name Test_util.seed)
        0
        (List.length r.Check.Fuzz.failures))
    [
      "cas-counter";
      "faa-counter";
      "treiber";
      "msqueue";
      "elimination-stack";
      "waitfree-counter";
    ]

(* -- Chaos fuzzing (fault plans) ------------------------------------ *)

let chaos_config = { Check.Chaos.default with trials = 40; seed = Test_util.seed }

let test_chaos_catches_seeded_bug () =
  let r =
    Check.Chaos.run ~config:chaos_config ~spec:Check.Chaos.default_spec
      ~structure:(find "counter-nocas") ~n:3 ~ops:2 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "failures found (REPRO_TEST_SEED=%d)" Test_util.seed)
    true
    (r.Check.Chaos.failures <> []);
  (* Every shrunk failure replays byte-for-byte from its
     (schedule, fault plan, mix seed) triple. *)
  List.iter
    (fun (f : Check.Chaos.failure) ->
      let out =
        Check.Schedule.run ~fault_plan:f.faults ~mix_seed:f.mix_seed
          ~structure:(find "counter-nocas") ~n:3 ~ops:2 ~tail:Round_robin
          f.schedule
      in
      Alcotest.(check bool)
        ("minimal failure replays: " ^ f.replay)
        true
        (Check.Schedule.is_bad out.Check.Schedule.verdict);
      Alcotest.(check (array int))
        "effective schedule is a fixed point" f.schedule
        out.Check.Schedule.executed)
    r.Check.Chaos.failures

let test_chaos_stock_clean () =
  (* Crash–recovery, stalls, and spurious CAS failure must not produce
     false alarms on the correct structures — recovery-safe re-entry
     plus the mark-aware partial-history rule. *)
  List.iter
    (fun name ->
      let r =
        Check.Chaos.run ~config:chaos_config ~spec:Check.Chaos.default_spec
          ~structure:(find name) ~n:3 ~ops:2 ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%s clean under chaos (REPRO_TEST_SEED=%d)" name
           Test_util.seed)
        0
        (List.length r.Check.Chaos.failures))
    [
      "cas-counter";
      "faa-counter";
      "treiber";
      "msqueue";
      "elimination-stack";
      "waitfree-counter";
    ]

let test_chaos_elimination_recovery_heavy () =
  (* The elimination stack's crash-recovery settlement (a parked push
     withdrawn or completed by [recover_push]) and its spurious-CAS
     robust reclaim only fire under faults; drive them hard with rates
     well above the default drill.  Any double-push, lost value, or
     phantom pop would surface as a linearizability failure. *)
  let spec =
    {
      Sched.Fault_plan.base = Sched.Fault_plan.none;
      rates =
        {
          Sched.Fault_plan.crash = 0.08;
          recover = 0.3;
          stall = 0.02;
          stall_len = 4;
          casfail = 0.25;
        };
    }
  in
  let r =
    Check.Chaos.run
      ~config:{ chaos_config with trials = 120 }
      ~spec ~structure:(find "elimination-stack") ~n:3 ~ops:2 ()
  in
  Alcotest.(check int)
    (Printf.sprintf "clean under heavy faults (REPRO_TEST_SEED=%d)"
       Test_util.seed)
    0
    (List.length r.Check.Chaos.failures)

let test_chaos_deterministic () =
  let run () =
    let r =
      Check.Chaos.run ~config:chaos_config ~spec:Check.Chaos.default_spec
        ~structure:(find "msqueue-nocas") ~n:3 ~ops:2 ()
    in
    List.map
      (fun (f : Check.Chaos.failure) -> (f.replay, f.fault_spec, f.mix_seed))
      r.Check.Chaos.failures
  in
  Alcotest.(check bool) "same failures both runs" true (run () = run ())

let test_fuzz_faults_flag_adds_chaos_source () =
  let config = { fuzz_config with Check.Fuzz.trials = 30; faults = true } in
  let r = fuzz ~config "counter-nocas" ~n:3 ~ops:2 in
  Alcotest.(check bool)
    "chaos source contributes failures" true
    (List.exists (fun (f : Check.Fuzz.failure) -> f.source = "chaos") r.failures)

(* -- Conformance gates ---------------------------------------------- *)

let test_conform_smoke () =
  let r = Check.Conform.run ~seed:0 () in
  List.iter
    (fun (g : Check.Conform.gate) ->
      Alcotest.(check bool) (g.name ^ ": " ^ g.detail) true g.passed)
    r.Check.Conform.gates

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [
          Alcotest.test_case "any array is a schedule" `Quick
            test_any_array_is_a_schedule;
          Alcotest.test_case "round-robin tail completes" `Quick
            test_round_robin_tail_completes;
          Alcotest.test_case "62-op boundary" `Quick test_62_op_boundary;
          Alcotest.test_case "crash soundness" `Quick test_crash_never_false_alarms;
          Alcotest.test_case "ddmin" `Quick test_ddmin_minimizes;
        ] );
      ( "explore",
        [
          Alcotest.test_case "counter-nocas bug found" `Quick
            (check_bug_found "counter-nocas" ~n:2 ~ops:2);
          Alcotest.test_case "treiber-nocas bug found" `Quick
            (check_bug_found "treiber-nocas" ~n:2 ~ops:2);
          Alcotest.test_case "msqueue-nocas bug found" `Quick
            (check_bug_found "msqueue-nocas" ~n:4 ~ops:1);
          Alcotest.test_case "cas-counter certified" `Quick
            (check_stock_clean "cas-counter" ~n:3 ~ops:2);
          Alcotest.test_case "faa-counter certified" `Quick
            (check_stock_clean "faa-counter" ~n:3 ~ops:2);
          Alcotest.test_case "treiber certified" `Quick
            (check_stock_clean "treiber" ~n:2 ~ops:2);
          Alcotest.test_case "msqueue certified" `Quick
            (check_stock_clean "msqueue" ~n:4 ~ops:1);
          Alcotest.test_case "elimination-stack certified" `Quick
            (check_stock_clean "elimination-stack" ~n:2 ~ops:2);
          Alcotest.test_case "waitfree-counter certified" `Quick
            (check_stock_clean "waitfree-counter" ~n:2 ~ops:2);
          Alcotest.test_case "pruning soundness" `Quick test_pruning_is_sound;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "seeded bug caught" `Quick test_fuzz_catches_seeded_bug;
          Alcotest.test_case "stock clean" `Quick test_fuzz_stock_clean;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "seeded bug caught under faults" `Quick
            test_chaos_catches_seeded_bug;
          Alcotest.test_case "stock clean under faults" `Quick test_chaos_stock_clean;
          Alcotest.test_case "elimination recovery under heavy faults" `Quick
            test_chaos_elimination_recovery_heavy;
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "fuzz --faults adds chaos source" `Quick
            test_fuzz_faults_flag_adds_chaos_source;
        ] );
      ("conform", [ Alcotest.test_case "smoke gates" `Quick test_conform_smoke ]);
    ]
