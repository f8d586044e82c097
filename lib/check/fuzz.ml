(* Random-schedule fuzzing with shrinking.

   Two complementary schedule sources:
   - QCheck2 generation: random (schedule, crash plan, operation mix)
     triples, integrated shrinking, then a second greedy ddmin pass on
     the effective schedule;
   - scheduler-driven runs: the repository's own adversaries (zipf,
     quantum, weakly-fair starver, ...) drive a traced run whose trace
     is replayed and ddmin-minimized on failure.

   Every failure is reported with a schedule string that replays
   byte-for-byte through [Schedule.run] / `repro check --replay`. *)

module Checkable = Scu.Checkable

type config = {
  trials : int;
  sched_trials : int;
  max_len : int;
  sched_steps : int;
  seed : int;
  crashes : bool;
  faults : bool;
  fault_spec : Sched.Fault_plan.spec option;
  gates : Schedule.gates;
}

let default =
  {
    trials = 300;
    sched_trials = 4;
    max_len = 96;
    sched_steps = 2_000;
    seed = 0xC0FFEE;
    crashes = true;
    faults = false;
    fault_spec = None;
    gates = Schedule.default_gates;
  }

type failure = {
  structure : string;
  source : string;
  schedule : int array;
  replay : string;
  crash_plan : (int * int) list;
  fault_spec : string;
  mix_seed : int option;
  verdict : string;
}

type report = {
  structure : string;
  trials : int;
  failures : failure list;
}

(* At most n-1 distinct crashed processes (Definition 1 requires a
   survivor); generated lists are sanitized rather than rejected so
   shrinking stays free-form. *)
let sanitize_crashes ~n events =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (_, p) ->
      if p < 0 || p >= n || Hashtbl.mem seen p || Hashtbl.length seen >= n - 1
      then false
      else begin
        Hashtbl.add seen p ();
        true
      end)
    events

let mk_failure ?(fault_spec = "") ~structure ~source ~crash_events ~mix_seed
    ~verdict schedule =
  {
    structure = structure.Checkable.name;
    source;
    schedule;
    replay = Sched.Scheduler.replay_to_string schedule;
    crash_plan = crash_events;
    fault_spec;
    mix_seed;
    verdict;
  }

let qcheck_source ~structure ~n ~ops ~config =
  let open QCheck2 in
  let gen =
    let open Gen in
    let sched = list_size (int_range 1 config.max_len) (int_range 0 (n - 1)) in
    let crash =
      if config.crashes && n >= 2 then
        list_size (int_range 0 (n - 1))
          (pair (int_range 0 config.max_len) (int_range 0 (n - 1)))
      else pure []
    in
    triple sched crash (int_range 0 1_000_000)
  in
  let outcome_of (sched, crash, mix) =
    let fault_plan =
      Sched.Fault_plan.of_crash_events (sanitize_crashes ~n crash)
    in
    Schedule.run ~fault_plan ~gates:config.gates ~mix_seed:mix ~structure ~n
      ~ops ~tail:Round_robin (Array.of_list sched)
  in
  let prop case = not (Schedule.is_bad (outcome_of case).verdict) in
  let cell =
    Test.make_cell ~count:config.trials ~max_fail:1
      ~name:(structure.Checkable.name ^ "-fuzz") gen prop
  in
  let rand = Random.State.make [| config.seed |] in
  let result = Test.check_cell ~rand cell in
  match TestResult.get_state result with
  | TestResult.Success -> []
  | TestResult.Failed { instances = [] } | TestResult.Failed_other _ -> []
  | TestResult.Failed { instances = { instance = sched, crash, mix; _ } :: _ }
    ->
      (* QCheck already shrank the triple; ddmin the effective
         schedule for a tighter witness. *)
      let crash_events = sanitize_crashes ~n crash in
      let fault_plan = Sched.Fault_plan.of_crash_events crash_events in
      let out = outcome_of (sched, crash, mix) in
      let minimal =
        Schedule.shrink ~fault_plan ~gates:config.gates ~mix_seed:mix
          ~structure ~n ~ops ~tail:Round_robin out.executed
      in
      let final =
        Schedule.run ~fault_plan ~gates:config.gates ~mix_seed:mix ~structure
          ~n ~ops ~tail:Round_robin minimal
      in
      [
        mk_failure ~structure ~source:"qcheck" ~crash_events
          ~mix_seed:(Some mix)
          ~verdict:(Schedule.verdict_to_string final.verdict)
          final.executed;
      ]
  | TestResult.Error { instance = _; exn; _ } ->
      [
        mk_failure ~structure ~source:"qcheck" ~crash_events:[] ~mix_seed:None
          ~verdict:("exception: " ^ Printexc.to_string exn)
          [||];
      ]

let adversaries ~n =
  [
    ("uniform", fun () -> Sched.Scheduler.uniform);
    ("round-robin", fun () -> Sched.Scheduler.round_robin ());
    ("zipf-1.5", fun () -> Sched.Scheduler.zipf ~n ~alpha:1.5);
    ("quantum-7", fun () -> Sched.Scheduler.quantum ~length:7);
    ( "starver+theta",
      fun () ->
        Sched.Scheduler.with_weak_fairness ~theta:0.05
          (Sched.Scheduler.starver ~victim:(n - 1)) );
  ]

let scheduler_source ~structure ~n ~ops ~config =
  let failures = ref [] in
  List.iter
    (fun (sched_name, make_sched) ->
      for t = 0 to config.sched_trials - 1 do
        let mix = (config.seed * 31) + t in
        let inst = structure.Checkable.make ~n ~ops ~mix_seed:mix () in
        let r =
          Sim.Executor.exec
            ~config:
              Sim.Executor.Config.(
                default
                |> with_seed (config.seed + (t * 7919))
                |> with_trace true)
            ~scheduler:(make_sched ()) ~n
            ~stop:(Steps config.sched_steps)
            inst.spec
        in
        let verdict = Schedule.verdict_of ~gates:config.gates inst in
        if Schedule.is_bad verdict then begin
          let trace = Sched.Trace.to_array (Option.get r.trace) in
          let minimal =
            Schedule.shrink ~gates:config.gates ~mix_seed:mix ~structure ~n
              ~ops ~tail:Stop trace
          in
          let final =
            Schedule.run ~gates:config.gates ~mix_seed:mix ~structure ~n ~ops
              ~tail:Stop minimal
          in
          failures :=
            mk_failure ~structure ~source:sched_name ~crash_events:[]
              ~mix_seed:(Some mix)
              ~verdict:(Schedule.verdict_to_string final.verdict)
              final.executed
            :: !failures
        end
      done)
    (adversaries ~n);
  List.rev !failures

(* Chaos pass: delegate to {!Chaos} — default mixed fault spec unless
   the config carries its own — and adapt its failures to this
   module's report shape. *)
let chaos_source ~structure ~n ~ops ~config =
  if not config.faults then ([], 0)
  else begin
    let chaos_config =
      { Chaos.default with seed = config.seed; gates = config.gates }
    in
    let spec =
      Option.value config.fault_spec ~default:Chaos.default_spec
    in
    let report = Chaos.run ~config:chaos_config ~spec ~structure ~n ~ops () in
    ( List.map
        (fun (f : Chaos.failure) ->
          {
            structure = f.structure;
            source = "chaos";
            schedule = f.schedule;
            replay = f.replay;
            crash_plan = [];
            fault_spec = f.fault_spec;
            mix_seed = Some f.mix_seed;
            verdict = f.verdict;
          })
        report.failures,
      report.trials )
  end

let fuzz ?(config = default) ~structure ~n ~ops () =
  let qc = qcheck_source ~structure ~n ~ops ~config in
  let sc = scheduler_source ~structure ~n ~ops ~config in
  let ch, chaos_trials = chaos_source ~structure ~n ~ops ~config in
  {
    structure = structure.Checkable.name;
    trials =
      config.trials
      + (config.sched_trials * List.length (adversaries ~n))
      + chaos_trials;
    failures = qc @ sc @ ch;
  }
