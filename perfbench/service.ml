(* The service workloads: Load.Engine runs driven from outside in one
   domain, without a pool, so Gc counters see all of the work.

   Untraced, an iteration times the set-up calls standalone
   (validation, the Zipf table, [shard_plan] per shard), then
   [Engine.run] plus the report the CLI would print; [run] repeats the
   set-up internally, so wall_s counts it once.  Traced, the same work
   goes through [run_shard] per shard and a merge of the shard results
   made here, with a span around each call; its manifest must equal
   the untraced one. *)

module Engine = Load.Engine
module Policy = Load.Policy
module Fault_plan = Sched.Fault_plan

let closed ~seed = { Engine.default with clients = 1_000_000; ops_per_client = 1; seed }

let faulted_policy =
  { Policy.deadline = Some 400; max_retries = 2; backoff_base = 16; hedge_after = Some 150 }

let faulted ~seed =
  {
    Engine.default with
    kinds = [ Treiber; Msqueue; Elimination ];
    clients = 10_000;
    ops_per_client = 10;
    mode = Open (Poisson { rate = 1.2e-4 });
    faults = { Fault_plan.base = Fault_plan.none; rates = Fault_plan.standard_rates };
    policy = faulted_policy;
    seed;
  }

(* The fixed-size run that fills the load and fault-plan metrics on
   workloads that do not call those layers. *)
let probe ~seed = { (faulted ~seed) with clients = 1_000; ops_per_client = 5 }

let shard_total (cfg : Engine.config) s =
  ((cfg.clients / cfg.shards) + if s < cfg.clients mod cfg.shards then 1 else 0)
  * cfg.ops_per_client

let setup (cfg : Engine.config) =
  Span.with_ "setup" (fun () ->
      (match Engine.validate cfg with Ok () -> () | Error e -> failwith e);
      ignore (Load.Workload.zipf_cdf ~alpha:cfg.alpha ~n:cfg.objects);
      List.init cfg.shards (fun s ->
          Span.with_ ~group:(Printf.sprintf "shard-%d" s) "load.shard_plan" (fun () ->
              Engine.shard_plan cfg ~shard:s ~total:(shard_total cfg s))))

(* What `repro load` prints and writes: the rendered summary and the
   manifest.  The manifest is the workload's digest. *)
let report (r : Engine.result) =
  let error_budget =
    if Engine.is_robust r.config then Some (Load.Report.error_budget r) else None
  in
  let rep = Load.Report.of_result ?error_budget r in
  ignore (Sys.opaque_identity (Load.Report.render rep));
  Telemetry.Load_report.to_string ~compact:true rep

(* [Engine.run]'s merge, rebuilt from the public result types so the
   traced run can time the shards one by one. *)
let merge (cfg : Engine.config) (shards : Engine.shard_result list) : Engine.result =
  let hdr f =
    let h = Stats.Hdr.create () in
    List.iter (fun s -> Stats.Hdr.merge_into ~into:h (f s)) shards;
    h
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  let per_kind = List.map (fun k -> (k, Stats.Hdr.create ())) cfg.kinds in
  List.iter
    (fun (s : Engine.shard_result) ->
      List.iter2 (fun (_, into) (_, src) -> Stats.Hdr.merge_into ~into src) per_kind s.per_kind)
    shards;
  {
    config = cfg;
    shards;
    requests = sum (fun s -> s.requests);
    offered = sum (fun s -> s.offered);
    steps_total = sum (fun s -> s.steps);
    steps_max = List.fold_left (fun acc (s : Engine.shard_result) -> max acc s.steps) 0 shards;
    stopped_early = List.exists (fun (s : Engine.shard_result) -> s.stopped_early) shards;
    latency = hdr (fun s -> s.latency);
    service = hdr (fun s -> s.service);
    queue_wait = hdr (fun s -> s.queue_wait);
    per_kind;
    outcomes =
      List.fold_left
        (fun acc (s : Engine.shard_result) -> Policy.add_counts acc s.outcomes)
        Policy.zero_counts shards;
    restarts = sum (fun s -> s.restarts);
    spurious_cas = sum (fun s -> s.spurious_cas);
  }

(* Every offered request resolves exactly once (offered = completed +
   failed), no shard stops early, and simulated timed-out or dropped
   requests count as failed.  A shard that breaks the accounting fails
   all of its requests. *)
let check tally (cfg : Engine.config) (r : Engine.result) =
  let expected = cfg.clients * cfg.ops_per_client in
  let failed =
    List.fold_left
      (fun acc (s : Engine.shard_result) ->
        if s.stopped_early then begin
          Tally.note tally (Printf.sprintf "shard %d stopped early" s.shard);
          acc + s.offered
        end
        else if
          Policy.total s.outcomes <> s.offered || Policy.completed s.outcomes <> s.requests
        then begin
          Tally.note tally
            (Printf.sprintf "shard %d: outcomes %s do not add up to %d offered" s.shard
               (Policy.counts_to_string s.outcomes) s.offered);
          acc + s.offered
        end
        else acc + Policy.failed s.outcomes)
      0 r.shards
  in
  let missing = abs (expected - r.offered) in
  if missing > 0 then
    Tally.note tally (Printf.sprintf "offered %d requests, expected %d" r.offered expected);
  Tally.bulk tally ~what:"requests" ~attempted:(max expected r.offered)
    ~failed:(min (max expected r.offered) (failed + missing))

let to_iter ~setup_s ~wall ~minor ~promoted (r : Engine.result) manifest =
  {
    Iter.setup_s;
    wall_s = wall;
    minor_words = minor;
    promoted_words = promoted;
    sim_steps = r.steps_total;
    sim_s = wall;
    requests = r.requests;
    digest = Iter.digest manifest;
    detail = manifest;
  }

let iteration cfg tally =
  let _, setup_s = Iter.time_setup (fun () -> setup cfg) in
  (* The standalone plans are garbage now; collect them so the run
     does not pay for sweeping them. *)
  Gc.full_major ();
  let (r, manifest), wall, minor, promoted =
    Iter.work (fun () ->
        let r = Engine.run cfg in
        (r, report r))
  in
  check tally cfg r;
  to_iter ~setup_s ~wall ~minor ~promoted r manifest

(* The request stream replayed alone: the per-request RNG, the arrival
   gap, the Zipf key and the operation coin, in the engine's order. *)
let replay_requests (cfg : Engine.config) =
  let cdf = Load.Workload.zipf_cdf ~alpha:cfg.alpha ~n:cfg.objects in
  Probes.measure "load.workload.replay" (fun () ->
      let acc = ref 0 in
      for client = 0 to cfg.clients - 1 do
        for k = 0 to cfg.ops_per_client - 1 do
          let rng = Load.Workload.request_rng ~seed:cfg.seed ~client ~k in
          let g = Load.Workload.gap cfg.mode rng ~k in
          let key = Load.Workload.pick cdf (Stats.Rng.float rng 1.0) in
          let push = Stats.Rng.bool rng in
          acc := !acc + g + key + Bool.to_int push
        done
      done;
      !acc)

let traced cfg tally ~lookup =
  let plans, setup_s =
    let t0 = Iter.now () in
    let p = setup cfg in
    (p, Iter.now () -. t0)
  in
  Gc.full_major ();
  let (r, manifest), wall, minor, promoted =
    Iter.work (fun () ->
        Span.with_ "workload" (fun () ->
            Span.with_ "load.validate" (fun () ->
                match Engine.validate cfg with Ok () -> () | Error e -> failwith e);
            let shards =
              List.init cfg.shards (fun s ->
                  Span.with_ ~group:(Printf.sprintf "shard-%d" s) "load.run_shard"
                    (fun () -> Engine.run_shard cfg ~shard:s))
            in
            let r = Span.with_ "load.merge" (fun () -> merge cfg shards) in
            (r, Span.with_ "load.report" (fun () -> report r))))
  in
  check tally cfg r;
  let _, replay_s, replay_w = replay_requests cfg in
  let shard_spans = Span.named "load.run_shard" in
  let shard_ms = List.map (fun s -> 1e3 *. Span.duration s) shard_spans in
  let shard_s = Span.total "load.run_shard" and shard_w = Span.total_words "load.run_shard" in
  let steps = r.steps_total and requests = max 1 r.requests in
  let offered = max 1 r.offered in
  let plan_s = Span.total "load.shard_plan" in
  let events = List.map (fun p -> Fault_plan.events p) plans in
  let n_events = List.fold_left (fun acc e -> acc + Array.length e) 0 events in
  let used =
    List.fold_left2
      (fun acc e (s : Engine.shard_result) ->
        acc + Array.fold_left (fun a (t, _) -> if t < s.steps then a + 1 else a) 0 e)
      0 events r.shards
  in
  let o = r.outcomes in
  let fsteps = float_of_int (max 1 steps) in
  let workload_ns = 1e9 *. replay_s /. float_of_int offered in
  (* run_shard instantiates its plan itself only on the robust path. *)
  let plan_in_shards = if Engine.is_robust cfg then plan_s else 0. in
  (* The step share prices each step at the saturated n = 8 probe's
     ns per step for the workload's structures (their mean). *)
  let step_ns =
    let per k =
      let p = "scu." ^ Engine.kind_name k in
      lookup (p ^ ".ns_per_op") /. lookup (p ^ ".steps_per_op")
    in
    List.fold_left (fun acc k -> acc +. per k) 0. cfg.kinds
    /. float_of_int (List.length cfg.kinds)
  in
  let self_ns =
    ((1e9 *. (shard_s -. plan_in_shards))
    -. (float_of_int steps *. step_ns)
    -. (float_of_int offered *. workload_ns))
    /. float_of_int requests
  in
  let metrics =
    Metrics.
      [
        m "load.workload.ns_per_request" "ns" workload_ns;
        m "load.workload.words_per_request" "words" (replay_w /. float_of_int offered);
        m "load.shard.ms_p50" "ms" (Stat.median shard_ms);
        m "load.shard.ms_max" "ms" (List.fold_left Float.max 0. shard_ms);
        m "load.shard.ns_per_step" "ns" (1e9 *. shard_s /. fsteps);
        m "load.shard.words_per_step" "words" (shard_w /. fsteps);
        m "load.shard.words_per_request" "words" (shard_w /. float_of_int requests);
        m "load.engine.self_ns_per_request" "ns" self_ns;
        m "load.merge.ms" "ms" (1e3 *. Span.total "load.merge");
        m "load.report.ms" "ms" (1e3 *. Span.total "load.report");
        m "load.steps" "count" (float_of_int steps);
        m "load.requests" "count" (float_of_int r.requests);
        m "load.max_queue_depth" "count"
          (float_of_int
             (List.fold_left
                (fun acc (s : Engine.shard_result) -> max acc s.max_queue_depth)
                0 r.shards));
        m "load.restarts" "count" (float_of_int r.restarts);
        m "load.spurious_cas" "count" (float_of_int r.spurious_cas);
        m "load.redelivered" "count" (float_of_int o.redelivered);
        m "load.retries" "count" (float_of_int o.retries);
        m "load.hedges" "count" (float_of_int o.hedges);
        m "load.useful_frac" "ratio"
          (float_of_int o.ok /. float_of_int (r.offered + o.retries + o.hedges + o.redelivered));
        m "sched.fault_plan.instantiate_ms" "ms" (1e3 *. plan_s);
        m "sched.fault_plan.words" "words" (Span.total_words "load.shard_plan");
        m "sched.fault_plan.events" "count" (float_of_int n_events);
        m "sched.fault_plan.events_used_frac" "ratio"
          (if n_events = 0 then 0. else float_of_int used /. float_of_int n_events);
      ]
  in
  (to_iter ~setup_s ~wall ~minor ~promoted r manifest, metrics)
