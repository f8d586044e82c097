(* The benchmark's metric catalogue (names and units, as listed in
   BENCHMARK.json) and the result line every run ends with. *)

type t = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Untraced runs report these, on every workload. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("minor_mwords", "Mwords");
    ("promoted_mwords", "Mwords");
    ("peak_heap_mb", "MB");
  ]

(* The probed structures, by their load-engine names (the Checkable
   name of [counter] is [cas-counter]). *)
let scu_structures =
  [
    ("counter", "cas-counter");
    ("treiber", "treiber");
    ("msqueue", "msqueue");
    ("elimination-stack", "elimination-stack");
    ("waitfree-counter", "waitfree-counter");
  ]

(* Traced runs report these, on every workload. *)
let per_layer =
  [
    ("stats.rng.ns_per_draw", "ns");
    ("stats.rng.words_per_draw", "words");
    ("stats.hdr.ns_per_add", "ns");
    ("load.workload.ns_per_request", "ns");
    ("load.workload.words_per_request", "words");
    ("load.shard.ms_p50", "ms");
    ("load.shard.ms_max", "ms");
    ("load.shard.ns_per_step", "ns");
    ("load.shard.words_per_step", "words");
    ("load.shard.words_per_request", "words");
    ("load.engine.self_ns_per_request", "ns");
    ("load.merge.ms", "ms");
    ("load.report.ms", "ms");
    ("load.steps", "count");
    ("load.requests", "count");
    ("load.max_queue_depth", "count");
    ("load.restarts", "count");
    ("load.spurious_cas", "count");
    ("load.redelivered", "count");
    ("load.retries", "count");
    ("load.hedges", "count");
    ("load.useful_frac", "ratio");
    ("sched.fault_plan.instantiate_ms", "ms");
    ("sched.fault_plan.words", "words");
    ("sched.fault_plan.events", "count");
    ("sched.fault_plan.events_used_frac", "ratio");
    ("sched.scheduler.ns_per_pick", "ns");
    ("sched.scheduler.ns_per_fill_pick", "ns");
    ("sim.exec.ns_per_step", "ns");
    ("sim.exec.words_per_step", "words");
    ("sim.exec_compiled.ns_per_step", "ns");
    ("sim.exec_compiled.words_per_step", "words");
    ("sim.exec_compiled.traced_ns_per_step", "ns");
    ("sim.memory.ns_per_apply", "ns");
  ]
  @ List.concat_map
      (fun (s, _) ->
        [
          ("scu." ^ s ^ ".ns_per_op", "ns");
          ("scu." ^ s ^ ".steps_per_op", "steps");
          ("scu." ^ s ^ ".words_per_op", "words");
        ])
      scu_structures
  @ [
      ("check.explore.nodes", "count");
      ("check.explore.terminals", "count");
      ("check.explore.ns_per_node", "ns");
      ("check.explore.words_per_node", "words");
      ("check.explore.prune_frac", "ratio");
      ("check.fuzz.ns_per_trial", "ns");
      ("check.chaos.ns_per_trial", "ns");
      ("linearize.checker.us_per_history", "us");
      ("linearize.checker.us_per_history_62", "us");
      ("linearize.shadow.us_per_history", "us");
      ("linearize.shadow.us_per_history_62", "us");
      ("chains.sparse_build.ms", "ms");
      ("markov.sparse.states", "count");
      ("markov.sparse.nnz", "count");
      ("markov.sparse.sweeps", "count");
      ("markov.sparse.ns_per_nnz_sweep", "ns");
      ("markov.sparse.words_per_sweep", "words");
      ("markov.sparse.residual", "l1");
      ("chains.meanfield.ms", "ms");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("trace.overhead_frac", "ratio");
      ("trace.span_cover_frac", "ratio");
    ]

let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let first_ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  String.length s >= 1 && String.length s <= 64 && first_ok s.[0] && String.for_all ok s

(* All digits of a measured value; non-finite values are a bug. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Keep [catalogue]'s order; fail on a missing, extra or non-finite metric. *)
let select ~catalogue ms =
  List.iter
    (fun (m : t) ->
      if not (List.mem_assoc m.name catalogue) then
        failwith ("metric outside the catalogue: " ^ m.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : t) -> m.name = name) ms with
      | None -> failwith ("metric not measured: " ^ name)
      | Some m when not (Float.is_finite m.value) ->
          failwith (Printf.sprintf "metric %s is not finite (%g)" name m.value)
      | Some m -> { m with unit_ })
    catalogue

let result_line ~correct ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
             m.unit_)
         ms)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body
