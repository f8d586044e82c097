(* The scenario DSL (lib/scenario): the preset × structure conformance
   matrix, the shadow-state gate's independent detection power, and
   QCheck roundtrip properties over the --spec grammar.

   The matrix runs every named preset against every stock structure
   with the preset's own sources, gates and fault-rate tier but a
   scaled-down step budget (the full century budget is a nightly-CI
   job, not a unit test), and every seeded [-nocas] bug against the
   [standard] preset, which must catch it. *)

module FP = Sched.Fault_plan

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let stock_names =
  List.map (fun (s : Scu.Checkable.t) -> s.Scu.Checkable.name) Scu.Checkable.stock

let no_faults = { FP.base = FP.none; rates = FP.quick_rates }

(* Scaled-down budget for matrix cells: same shape as the presets',
   small enough that 4 presets x 6 structures stays a unit test. *)
let scaled =
  {
    Scenario.explore_nodes = 1_500;
    explore_depth = 32;
    fuzz_trials = 40;
    sched_trials = 2;
    chaos_trials = 10;
    long_conform = false;
  }

(* -- Preset × structure conformance matrix ---------------------------- *)

let drop_conform = List.filter (fun g -> g <> Scenario.Conform)

let clean_cell (p : Scenario.t) structure () =
  let scn =
    p
    |> Scenario.with_structures [ structure ]
    |> Scenario.with_budget scaled
    |> Scenario.with_gates (drop_conform p.Scenario.gates)
  in
  let out = Scenario.run scn in
  Alcotest.(check (list string))
    "no violations"
    []
    (List.map
       (fun (f : Scenario.failure) -> f.structure ^ "/" ^ f.verdict)
       out.Scenario.failures);
  Alcotest.(check bool) "cell clean" true out.Scenario.passed

let matrix_clean_cases =
  List.concat_map
    (fun (pname, p) ->
      List.map
        (fun structure ->
          Alcotest.test_case
            (Printf.sprintf "%s × %s" pname structure)
            `Quick (clean_cell p structure))
        stock_names)
    Scenario.presets

(* Every seeded bug must be caught under (at least) the standard
   preset; explore keeps its full budget so detection stays the
   deterministic exhaustive kind, not fuzz luck. *)
let bug_budget = { scaled with Scenario.explore_nodes = 20_000; explore_depth = 64 }

let bug_cell structure ~n ~ops () =
  let scn =
    Scenario.standard
    |> Scenario.with_structures [ structure ]
    |> Scenario.with_workload ~n ~ops
    |> Scenario.with_budget bug_budget
    |> Scenario.with_gates (drop_conform Scenario.standard.Scenario.gates)
  in
  let out = Scenario.run scn in
  Alcotest.(check bool) "bug caught" false out.Scenario.passed;
  Alcotest.(check bool) "every failure names the seeded structure" true
    (out.Scenario.failures <> []
    && List.for_all
         (fun (f : Scenario.failure) -> f.structure = structure)
         out.Scenario.failures)

let matrix_bug_cases =
  [
    Alcotest.test_case "standard catches counter-nocas" `Quick
      (bug_cell "counter-nocas" ~n:2 ~ops:2);
    Alcotest.test_case "standard catches treiber-nocas" `Quick
      (bug_cell "treiber-nocas" ~n:2 ~ops:2);
    Alcotest.test_case "standard catches msqueue-nocas" `Quick
      (bug_cell "msqueue-nocas" ~n:4 ~ops:1);
  ]

let test_events_arrive_in_source_order () =
  let order = ref [] in
  let scn =
    Scenario.quick
    |> Scenario.with_structures [ "cas-counter" ]
    |> Scenario.with_budget scaled
  in
  let out =
    Scenario.run
      ~on_event:(fun e ->
        order :=
          (match e with
          | Scenario.Explore_done { structure; _ } -> "explore:" ^ structure
          | Scenario.Fuzz_done { structure; _ } -> "fuzz:" ^ structure
          | Scenario.Chaos_done { structure; _ } -> "chaos:" ^ structure
          | Scenario.Replay_done { structure; _ } -> "replay:" ^ structure
          | Scenario.Load_done { structure; _ } -> "load:" ^ structure
          | Scenario.Conform_done _ -> "conform"
          | Scenario.Violation f -> "violation:" ^ f.structure)
          :: !order)
      scn
  in
  Alcotest.(check (list string))
    "one event per (source, structure), in source order"
    [ "explore:cas-counter"; "fuzz:cas-counter" ]
    (List.rev !order);
  Alcotest.(check bool) "fuzz trials counted" true (out.Scenario.trials > 0)

let test_violation_events_follow_their_unit () =
  (* Every failure arrives as a Violation event, in outcome order, and
     after the Explore_done of the structure that found it. *)
  let events = ref [] in
  let scn =
    Scenario.make ~n:2 ~ops:2 ~faults:no_faults ~sources:[ Scenario.Explore ]
      ~gates:[ Scenario.Lin ] ~budget:bug_budget
      ~structures:[ "cas-counter"; "counter-nocas" ] ()
  in
  let out = Scenario.run ~on_event:(fun e -> events := e :: !events) scn in
  let events = List.rev !events in
  let violations =
    List.filter_map (function Scenario.Violation f -> Some f | _ -> None) events
  in
  Alcotest.(check bool) "the nocas explore found violations" true
    (violations <> []);
  Alcotest.(check bool) "payloads equal outcome.failures, in order" true
    (violations = out.Scenario.failures);
  let rec follows done_ = function
    | [] -> true
    | Scenario.Explore_done { structure; _ } :: rest ->
        follows (structure :: done_) rest
    | Scenario.Violation f :: rest ->
        List.mem f.structure done_ && follows done_ rest
    | _ :: rest -> follows done_ rest
  in
  Alcotest.(check bool) "each violation follows its Explore_done" true
    (follows [] events)

let test_load_source_beyond_checker_limit () =
  (* 3 clients x 30 ops = 90 events: past the 62-op checker bound, so
     the history is Unchecked but the invariant still runs every step
     and a clean structure passes. *)
  let scn =
    Scenario.make ~n:2 ~ops:2 ~faults:no_faults
      ~sources:[ Scenario.Load { clients = 3; ops_per_client = 30 } ]
      ~gates:[ Scenario.Lin; Scenario.Shadow ]
      ~budget:scaled
      ~structures:[ "cas-counter" ] ()
  in
  let completed = ref 0 in
  let out =
    Scenario.run
      ~on_event:(function
        | Scenario.Load_done { completed = c; _ } -> completed := c
        | _ -> ())
      scn
  in
  Alcotest.(check bool) "load run passed" true out.Scenario.passed;
  Alcotest.(check int) "all 90 client ops completed" 90 !completed

let test_replay_source_judged () =
  let scn =
    Scenario.make ~n:2 ~ops:2 ~faults:no_faults
      ~sources:
        [ Scenario.Replay { schedule = [||]; tail = Check.Schedule.Round_robin } ]
      ~gates:[ Scenario.Lin; Scenario.Shadow ]
      ~budget:scaled
      ~structures:[ "cas-counter" ] ()
  in
  Alcotest.(check bool) "round-robin replay clean" true
    (Scenario.run scn).Scenario.passed

(* -- Shadow-state gate power ------------------------------------------ *)

(* counter-misreport returns faa+1: the structural invariant (final
   memory cell = completed increments) still holds, so nothing but a
   spec-replay gate can see the lie.  With every history gate off the
   scenario runner must stay quiet on it — that is the "passes the
   invariant" half of the power claim. *)
let test_misreport_passes_invariant () =
  let scn =
    Scenario.make ~n:2 ~ops:2 ~faults:no_faults ~sources:[ Scenario.Explore ]
      ~gates:[] ~budget:scaled ~structures:[ "counter-misreport" ] ()
  in
  Alcotest.(check bool) "invariant alone sees nothing" true
    (Scenario.run scn).Scenario.passed

let test_shadow_gate_alone_catches_misreport () =
  (* Lin off, Shadow on: the divergence must be caught by the shadow
     replay itself, not the linearizability checker. *)
  let scn =
    Scenario.make ~n:2 ~ops:2 ~faults:no_faults ~sources:[ Scenario.Explore ]
      ~gates:[ Scenario.Shadow ] ~budget:scaled
      ~structures:[ "counter-misreport" ] ()
  in
  let out = Scenario.run scn in
  Alcotest.(check bool) "misreport caught" false out.Scenario.passed;
  Alcotest.(check bool) "every verdict is a shadow divergence" true
    (out.Scenario.failures <> []
    && List.for_all
         (fun (f : Scenario.failure) ->
           contains f.verdict "shadow-state divergence")
         out.Scenario.failures)

let shadow_quiet_on_stock seed () =
  let scn =
    Scenario.make ~n:2 ~ops:2 ~seed ~faults:no_faults
      ~sources:[ Scenario.Fuzz ]
      ~gates:[ Scenario.Lin; Scenario.Shadow ]
      ~budget:{ scaled with Scenario.fuzz_trials = 25; sched_trials = 1 }
      ~structures:stock_names ()
  in
  let out = Scenario.run scn in
  Alcotest.(check (list string))
    "no shadow noise on stock structures" []
    (List.map
       (fun (f : Scenario.failure) -> f.structure ^ "/" ^ f.verdict)
       out.Scenario.failures)

let shadow_quiet_cases =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "gate quiet on stock (seed %d)" seed)
        `Quick (shadow_quiet_on_stock seed))
    [ 0; 1; 2; 3; 4 ]

(* -- Spec grammar: roundtrip property + error surface ----------------- *)

let all_names =
  List.map (fun (s : Scu.Checkable.t) -> s.Scu.Checkable.name) Scu.Checkable.all

let gen_rates =
  QCheck2.Gen.oneofl
    [ FP.quick_rates; FP.standard_rates; FP.century_rates; FP.chaos_rates ]

let gen_faults =
  QCheck2.Gen.(
    map
      (fun (rates, crash, spurious) ->
        let events =
          match crash with
          | None -> []
          | Some (t, p) -> [ (t, FP.Crash p) ]
        in
        let spurious =
          match spurious with None -> [] | Some r -> [ (None, r) ]
        in
        { FP.base = FP.make ~spurious events; rates })
      (triple gen_rates
         (option (pair (int_range 0 20) (int_range 0 3)))
         (option (oneofl [ 0.1; 0.25; 0.5 ]))))

let gen_source =
  QCheck2.Gen.(
    oneof
      [
        return Scenario.Explore;
        return Scenario.Fuzz;
        return Scenario.Chaos;
        map
          (fun (sched, rr) ->
            Scenario.Replay
              {
                schedule = Array.of_list sched;
                tail =
                  (if rr then Check.Schedule.Round_robin
                   else Check.Schedule.Stop);
              })
          (pair (list_size (int_range 1 4) (int_range 0 3)) bool);
        map
          (fun (clients, ops_per_client) ->
            Scenario.Load { clients; ops_per_client })
          (pair (int_range 1 8) (int_range 1 8));
      ])

let gen_budget =
  QCheck2.Gen.(
    map
      (fun ((nodes, depth), (ft, st), (ct, lc)) ->
        {
          Scenario.explore_nodes = nodes;
          explore_depth = depth;
          fuzz_trials = ft;
          sched_trials = st;
          chaos_trials = ct;
          long_conform = lc;
        })
      (triple
         (pair (int_range 1 1_000_000) (int_range 1 256))
         (pair (int_range 1 10_000) (int_range 0 16))
         (pair (int_range 1 10_000) bool)))

let gen_gates =
  QCheck2.Gen.(
    map
      (fun (lin, shadow, conform) ->
        (if lin then [ Scenario.Lin ] else [])
        @ (if shadow then [ Scenario.Shadow ] else [])
        @ if conform then [ Scenario.Conform ] else [])
      (triple bool bool bool))

let gen_scenario =
  QCheck2.Gen.(
    map
      (fun ((structures, (n, ops), seed), (mix_seed, faults), (sources, gates, budget)) ->
        Scenario.make ~n ~ops ~seed ?mix_seed ~faults ~sources ~gates ~budget
          ~structures ())
      (triple
         (triple
            (list_size (int_range 1 3) (oneofl all_names))
            (pair (int_range 1 6) (int_range 1 6))
            (int_range 0 1000))
         (pair (option (int_range 0 99)) gen_faults)
         (triple (list_size (int_range 1 3) gen_source) gen_gates gen_budget)))

let prop_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse ∘ to_string = id" ~count:200 gen_scenario
       (fun t -> Scenario.parse (Scenario.to_string t) = Ok t))

let test_presets_roundtrip () =
  List.iter
    (fun (name, p) ->
      match Scenario.parse (Scenario.to_string p) with
      | Ok p' -> Alcotest.(check bool) (name ^ " roundtrips") true (p = p')
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg))
    Scenario.presets

let test_preset_base_overridden () =
  (* preset=NAME as the first field selects the base; later fields
     override it. *)
  match Scenario.parse "preset=quick;n=3;structures=treiber" with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Alcotest.(check int) "n overridden" 3 t.Scenario.n;
      Alcotest.(check (list string)) "structures overridden" [ "treiber" ]
        t.Scenario.structures;
      Alcotest.(check int) "ops inherited from quick" Scenario.quick.Scenario.ops
        t.Scenario.ops

let check_error spec want () =
  match Scenario.parse spec with
  | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed but should not" spec)
  | Error msg -> Alcotest.(check string) "one-line error names the token" want msg

let error_cases =
  List.map
    (fun (label, spec, want) -> Alcotest.test_case label `Quick (check_error spec want))
    [
      ( "unknown key",
        "bogus=3",
        "bad --spec token \"bogus=3\": unknown key \"bogus\"" );
      ( "non-integer n",
        "n=two",
        "bad --spec token \"n=two\": \"two\" is not an integer (n)" );
      ( "unknown preset",
        "preset=mega",
        "bad --spec token \"preset=mega\": unknown preset \"mega\" (known: \
         quick, standard, century, chaos)" );
      ( "preset not first",
        "n=2;preset=quick",
        "bad --spec token \"preset=quick\": preset must be the first token" );
      ( "unknown source",
        "sources=warble",
        "bad --spec token \"sources=warble\": unknown source \"warble\"" );
      ( "unknown gate",
        "gates=vibes",
        "bad --spec token \"gates=vibes\": unknown gate \"vibes\"" );
      ( "unknown budget key",
        "budget=warp:9",
        "bad --spec token \"budget=warp:9\": unknown budget key \"warp\"" );
      ( "unknown structure",
        "structures=nope",
        "bad --spec token \"structures=nope\": unknown structure \"nope\"" );
      ( "bad faults passthrough",
        "faults=wibble",
        "bad --spec token \"faults=wibble\": bad --faults token \"wibble\"" );
      ( "missing =",
        "noequals",
        "bad --spec token \"noequals\": not of the form key=value" );
      ("empty spec", "", "bad --spec: empty scenario spec");
    ]

(* -- validate --------------------------------------------------------- *)

let check_invalid label scn needle () =
  match Scenario.validate scn with
  | Ok () -> Alcotest.fail (label ^ ": expected a validation error")
  | Error msg ->
      Alcotest.(check bool) (label ^ ": names the problem (got: " ^ msg ^ ")")
        true (contains msg needle)

let validate_cases =
  let base = Scenario.quick |> Scenario.with_structures [ "cas-counter" ] in
  [
    Alcotest.test_case "n*ops over checker limit" `Quick
      (check_invalid "63 ops" (Scenario.with_workload ~n:9 ~ops:7 base) "62");
    Alcotest.test_case "load-only workload may exceed 62" `Quick (fun () ->
        let scn =
          base
          |> Scenario.with_sources
               [ Scenario.Load { clients = 64; ops_per_client = 4 } ]
        in
        Alcotest.(check bool) "valid" true (Scenario.validate scn = Ok ()));
    Alcotest.test_case "no structures" `Quick
      (check_invalid "none" (Scenario.with_structures [] base) "no structures");
    Alcotest.test_case "unknown structure" `Quick
      (check_invalid "unknown"
         (Scenario.with_structures [ "wat" ] base)
         "unknown structure");
    Alcotest.test_case "zero budget" `Quick
      (check_invalid "budget"
         (Scenario.with_budget { scaled with Scenario.fuzz_trials = 0 } base)
         "budget");
    Alcotest.test_case "fault plan validated against n" `Quick
      (check_invalid "crash proc out of range"
         (Scenario.with_faults
            { FP.base = FP.make [ (0, FP.Crash 7) ]; rates = FP.quick_rates }
            base)
         "faults:");
    Alcotest.test_case "runner refuses invalid scenarios" `Quick (fun () ->
        let scn = Scenario.with_structures [] base in
        match Scenario.run scn with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
            Alcotest.(check bool) "names the problem" true
              (contains msg "no structures"));
  ]

let () =
  Alcotest.run "scenario"
    [
      ("matrix: presets clean on stock", matrix_clean_cases);
      ("matrix: seeded bugs caught", matrix_bug_cases);
      ( "runner",
        [
          Alcotest.test_case "events in source order" `Quick
            test_events_arrive_in_source_order;
          Alcotest.test_case "violation events follow their unit" `Quick
            test_violation_events_follow_their_unit;
          Alcotest.test_case "load source beyond 62 ops" `Quick
            test_load_source_beyond_checker_limit;
          Alcotest.test_case "replay source" `Quick test_replay_source_judged;
        ] );
      ( "shadow gate power",
        [
          Alcotest.test_case "misreport passes the invariant" `Quick
            test_misreport_passes_invariant;
          Alcotest.test_case "shadow gate alone catches it" `Quick
            test_shadow_gate_alone_catches_misreport;
        ]
        @ shadow_quiet_cases );
      ( "grammar",
        [
          prop_roundtrip;
          Alcotest.test_case "presets roundtrip" `Quick test_presets_roundtrip;
          Alcotest.test_case "preset base + overrides" `Quick
            test_preset_base_overridden;
        ]
        @ error_cases );
      ("validate", validate_cases);
    ]
