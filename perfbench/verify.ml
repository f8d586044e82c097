(* The verify workload: the work of `repro scenario --preset standard
   -n 3 --ops 3` — Check.Explore, Fuzz and Chaos over the six stock
   Checkable structures with the lin and shadow gates at the standard
   budgets — driven call by call, in Scenario.run's order (each source
   over every structure).  Explore is deterministic and capped at
   20,000 nodes; the seed goes into Fuzz and Chaos. *)

module Checkable = Scu.Checkable

let full ~seed = Scenario.(standard |> with_workload ~n:3 ~ops:3 |> with_seed seed)

(* The fixed-size run that fills the check metrics on workloads that
   do not call the checkers. *)
let probe ~seed =
  Scenario.(
    standard
    |> with_structures [ "cas-counter"; "treiber" ]
    |> with_workload ~n:2 ~ops:2 |> with_seed seed
    |> with_budget
         {
           explore_nodes = 2_000;
           explore_depth = 32;
           fuzz_trials = 40;
           sched_trials = 1;
           chaos_trials = 10;
           long_conform = false;
         })

(* Validation, structure lookup and one instance of each structure. *)
let setup (scn : Scenario.t) =
  Span.with_ "setup" (fun () ->
      (match Scenario.validate scn with Ok () -> () | Error e -> failwith e);
      List.map
        (fun name ->
          let s = Checkable.find name in
          ignore (s.make ~n:scn.n ~ops:scn.ops ?mix_seed:scn.mix_seed ());
          s)
        scn.structures)

type outcome =
  | Explored of Check.Explore.report
  | Fuzzed of Check.Fuzz.report
  | Chaosed of Check.Chaos.report

let work (scn : Scenario.t) structs =
  let gates =
    {
      Check.Schedule.lin = List.mem Scenario.Lin scn.gates;
      shadow = List.mem Scenario.Shadow scn.gates;
    }
  in
  let b = scn.budget in
  List.concat_map
    (fun source ->
      List.filter_map
        (fun (s : Checkable.t) ->
          let group = s.name in
          match source with
          | Scenario.Explore ->
              let config =
                {
                  Check.Explore.max_nodes = b.explore_nodes;
                  max_depth = b.explore_depth;
                  prune_states = true;
                  sleep_sets = true;
                  gates;
                }
              in
              Some
                ( s.name,
                  Explored
                    (Span.with_ ~group "check.explore" (fun () ->
                         Check.Explore.explore ~config ?mix_seed:scn.mix_seed ~structure:s
                           ~n:scn.n ~ops:scn.ops ())) )
          | Fuzz ->
              let config =
                {
                  Check.Fuzz.default with
                  trials = b.fuzz_trials;
                  sched_trials = b.sched_trials;
                  seed = scn.seed;
                  gates;
                }
              in
              Some
                ( s.name,
                  Fuzzed
                    (Span.with_ ~group "check.fuzz" (fun () ->
                         Check.Fuzz.fuzz ~config ~structure:s ~n:scn.n ~ops:scn.ops ())) )
          | Chaos ->
              let config =
                { Check.Chaos.default with trials = b.chaos_trials; seed = scn.seed; gates }
              in
              Some
                ( s.name,
                  Chaosed
                    (Span.with_ ~group "check.chaos" (fun () ->
                         Check.Chaos.run ~config ~spec:scn.faults ~structure:s ~n:scn.n
                           ~ops:scn.ops ())) )
          | Replay _ | Load _ -> None)
        structs)
    scn.sources

(* The report counts, one line per (source, structure). *)
let detail outcomes =
  String.concat "\n"
    (List.map
       (fun (name, o) ->
         match o with
         | Explored r ->
             Printf.sprintf
               "explore %s nodes=%d terminals=%d pruned_by_state=%d pruned_by_sleep=%d \
                exhausted=%b violations=%d"
               name r.Check.Explore.nodes r.terminals r.pruned_by_state r.pruned_by_sleep
               r.exhausted (List.length r.violations)
         | Fuzzed r ->
             Printf.sprintf "fuzz %s trials=%d failures=%d" name r.Check.Fuzz.trials
               (List.length r.failures)
         | Chaosed r ->
             Printf.sprintf "chaos %s trials=%d failures=%d" name r.Check.Chaos.trials
               (List.length r.failures))
       outcomes)

(* Each (source, structure) unit passes with zero violations and zero
   failures: the stock structures are correct. *)
let check tally outcomes =
  List.iter
    (fun (name, o) ->
      let what, bad =
        match o with
        | Explored r -> ("explore " ^ name, List.length r.Check.Explore.violations)
        | Fuzzed r -> ("fuzz " ^ name, List.length r.Check.Fuzz.failures)
        | Chaosed r -> ("chaos " ^ name, List.length r.Check.Chaos.failures)
      in
      Tally.unit_ tally ~what (fun () ->
          if bad = 0 then Ok () else Error (Printf.sprintf "%d violation(s)" bad)))
    outcomes

let to_iter ~setup_s ~wall ~minor ~promoted outcomes =
  let d = detail outcomes in
  {
    Iter.setup_s;
    wall_s = wall;
    minor_words = minor;
    promoted_words = promoted;
    sim_steps = 0;
    sim_s = 0.;
    requests = 0;
    digest = Iter.digest d;
    detail = d;
  }

let iteration scn tally =
  let (structs, setup_w, setup_p, setup_wall), setup_s =
    Iter.time_setup (fun () ->
        let structs, t, w, p = Iter.work (fun () -> setup scn) in
        (structs, w, p, t))
  in
  let outcomes, wall, minor, promoted = Iter.work (fun () -> work scn structs) in
  check tally outcomes;
  to_iter ~setup_s ~wall:(setup_wall +. wall) ~minor:(setup_w +. minor)
    ~promoted:(setup_p +. promoted) outcomes

let traced scn tally ~lookup:_ =
  let outcomes, wall, minor, promoted =
    Iter.work (fun () -> Span.with_ "workload" (fun () -> work scn (setup scn)))
  in
  check tally outcomes;
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 outcomes in
  let ex f = sum (function Explored r -> f r | _ -> 0) in
  let nodes = ex (fun r -> r.nodes) in
  let pruned = ex (fun r -> r.pruned_by_state + r.pruned_by_sleep) in
  let fuzz_trials = sum (function Fuzzed r -> r.trials | _ -> 0) in
  let chaos_trials = sum (function Chaosed r -> r.trials | _ -> 0) in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let metrics =
    Metrics.
      [
        m "check.explore.nodes" "count" (float_of_int nodes);
        m "check.explore.terminals" "count" (float_of_int (ex (fun r -> r.terminals)));
        m "check.explore.ns_per_node" "ns" (per nodes (1e9 *. Span.total "check.explore"));
        m "check.explore.words_per_node" "words" (per nodes (Span.total_words "check.explore"));
        m "check.explore.prune_frac" "ratio" (per (nodes + pruned) (float_of_int pruned));
        m "check.fuzz.ns_per_trial" "ns" (per fuzz_trials (1e9 *. Span.total "check.fuzz"));
        m "check.chaos.ns_per_trial" "ns" (per chaos_trials (1e9 *. Span.total "check.chaos"));
      ]
  in
  (to_iter ~setup_s:(Span.total "setup") ~wall ~minor ~promoted outcomes, metrics)
