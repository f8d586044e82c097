(* Command-line experiment runner: one subcommand per paper artifact.

   `repro list`                - list experiments
   `repro run fig5`            - regenerate Figure 5's series as a table
   `repro run fig5 thm4 lem7`  - several experiments, in the order given
   `repro run all`             - everything, in paper order
   `repro run fig5 --csv`      - CSV output for plotting
   `repro run all -j 8`        - fan cells out over 8 worker domains
   `repro run all --seed 7`    - re-derive every cell's RNG seed from 7
   `repro run all --cache`     - serve/persist cell results in results/cache
   `repro run all --timeout 60`        - abandon a wedged cell after 60s/attempt
   `repro run fig1 --fault lifting-n2:1` - make that cell fail once (CI drill)
   `repro run --resume results/runs/X.json` - finish a killed sweep
   `repro bench`               - time every quick cell, write BENCH_<date>.json

   Every `run` also journals a JSON manifest (per-cell timings, worker
   ids, attempt counts, cache hit/miss, pool skew) under results/runs/,
   rewritten atomically after every cell so a killed run loses at most
   one cell — `--resume` reads it back.  Tables on stdout are
   unaffected, so -j1, -jN and resumed runs stay byte-identical. *)

open Cmdliner

(* All elapsed-time measurement is monotonic: the wall clock steps
   under NTP and can produce negative durations in manifests. *)
let now = Pool.monotonic_now

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sample sizes (smoke run).")

let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a text table.")

(* Argument specs shared across `run`, `check`, `chaos` and `bench`:
   one definition per flag so help text and validation cannot drift
   between subcommands. *)
module Flags = struct
  let seed =
    Arg.(
      value
      & opt int Experiments.Exp.default_seed
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Base RNG seed threaded into every experiment; the default (0) \
             reproduces the repository's historical tables.")

  let no_progress =
    Arg.(
      value & flag
      & info [ "no-progress" ]
          ~doc:"Suppress the per-cell progress lines on stderr.")

  let long =
    Arg.(
      value & flag
      & info [ "long" ]
          ~doc:
            "Long budgets: more explorer nodes, more fuzz trials, tighter \
             conformance tolerances (the scheduled-CI configuration).")

  let out ~docv ~doc =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv ~doc)

  let artifact_dir =
    out ~docv:"DIR"
      ~doc:
        "Write each violation as a replayable report file into $(docv) \
         (created if missing) — the CI artifact directory."
end

let seed_arg = Flags.seed

(* Shared by `run` and `bench`: an optional scenario gate in front of
   the numbers — tables and benchmarks are only worth reading if the
   structures they exercise are correct under the current build. *)
let preflight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "preflight" ] ~docv:"SCENARIO"
        ~doc:
          "Run this scenario (a preset name like $(b,quick), or a `repro \
           scenario --spec` grammar value) before the sweep and abort with \
           exit 1 if it finds any violation or failed gate.")

let run_preflight = function
  | None -> Ok ()
  | Some s -> (
      let scn =
        match Scenario.preset s with
        | Some p -> Ok p
        | None -> Scenario.parse s
      in
      match Result.bind scn (fun scn -> Result.map (fun () -> scn) (Scenario.validate scn)) with
      | Error msg -> Error ("--preflight: " ^ msg)
      | Ok scn ->
          let t0 = now () in
          let outcome = Scenario.run scn in
          Printf.eprintf
            "preflight: %d violation(s), %d failed gate(s) across %d \
             trial(s) in %.2fs\n\
             %!"
            (List.length outcome.failures)
            outcome.gates_failed outcome.trials (now () -. t0);
          if outcome.passed then Ok ()
          else begin
            List.iter
              (fun (f : Scenario.failure) ->
                Printf.eprintf "  preflight violation [%s/%s]: %s\n%!"
                  f.structure f.source f.verdict)
              outcome.failures;
            Error "--preflight scenario failed; not running the sweep"
          end)

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_size ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the cell pool (default: this machine's cores). \
           $(b,-j 1) runs every cell in the calling domain, in order — the \
           reference sequential behaviour.")

let cache_flag =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Serve cell results from results/cache/ when present and persist \
           fresh ones (keyed by experiment, cell, budget and seed).")

let progress_flag = Flags.no_progress

let no_manifest_flag =
  Arg.(
    value & flag
    & info [ "no-manifest" ]
        ~doc:"Do not write the per-run JSON manifest under results/runs/.")

let retries_arg =
  Arg.(
    value
    & opt int Experiments.Retry.default.Experiments.Retry.max_attempts
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Attempts per cell before giving up (at least 1; 1 disables retry). \
           The default of 2 recovers any single failure, after which the \
           whole sweep still completes and the manifest records the attempt \
           counts.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-attempt wall-clock limit for one cell.  A cell still running \
           after $(docv) seconds is abandoned (its domain cannot be killed \
           and leaks until it returns), the attempt counts as failed and the \
           retry policy applies.  Default: no limit.")

let no_backoff_flag =
  Arg.(
    value & flag
    & info [ "no-backoff" ]
        ~doc:
          "Retry immediately instead of sleeping a jittered exponential \
           delay between attempts.")

let fault_arg =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"LABEL:K"
        ~doc:
          "Fault injection for drills and CI: make the cell whose label is \
           LABEL (or EXP/LABEL to disambiguate) raise on its first K \
           attempts.  Repeatable.  When absent, the $(b,REPRO_FAULT) \
           environment variable provides a single spec.")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"MANIFEST"
        ~doc:
          "Resume the run recorded in $(docv) (a results/runs/ manifest, \
           possibly from a killed sweep): re-run its experiment ids with its \
           budget and seed, with the cache enabled so cells the manifest \
           records as completed are served from results/cache/ instead of \
           re-executing (a recorded cell missing from the cache is simply \
           re-executed).  Explicit ids on the command line override the \
           manifest's.")

let cache_dir = "results/cache"
let runs_dir = Filename.concat "results" "runs"

let list_cmd =
  let doc = "List all experiments with their paper artifacts." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Experiments.Exp.id e.title)
      Experiments.Exp.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let write_csv dir (e : Experiments.Exp.t) table =
  let path = Filename.concat dir (e.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (Stats.Table.to_csv table);
  close_out oc;
  Printf.eprintf "wrote %s\n%!" path

(* A Plan runner backed by the domain pool, with per-cell retry under
   [policy] (fault injection included), optional progress lines and
   journalled manifest records.  Each cell's job runs the retry loop
   on its worker, stashes the attempt count/failure for the [on_done]
   callback (same domain, so no race), and surfaces a permanent
   failure as [Retry.Cell_failed] — [Pool.try_run] turns that into the
   cell's own [Error] without disturbing the rest of the batch, and
   the first one is re-raised to the per-experiment driver only after
   every cell has run and been recorded.  Misses reach the pool, so
   their cache status is Miss when the cache layer sits above us and
   Off otherwise; hits are recorded by the cache layer itself. *)
let pool_runner ~progress ~manifest ~cache_enabled ~policy pool =
  let cache_status =
    if cache_enabled then Telemetry.Manifest.Miss else Telemetry.Manifest.Off
  in
  {
    Experiments.Plan.map =
      (fun ~exp_id ~budget cells ->
        let labels =
          Array.of_list (List.map (fun c -> c.Experiments.Plan.label) cells)
        in
        let total = Array.length labels in
        let attempts = Array.make total 1 in
        let failures = Array.make total None in
        let finished = ref 0 in
        let on_done ~index ~worker ~waited ~elapsed =
          let status =
            match failures.(index) with
            | None -> Telemetry.Manifest.Completed
            | Some err ->
                Telemetry.Manifest.Failed
                  (Experiments.Retry.error_message err)
          in
          Telemetry.Manifest.record_cell manifest ~exp_id
            ~label:labels.(index) ~worker ~waited ~elapsed
            ~attempts:attempts.(index) ~status ~cache:cache_status;
          if progress then begin
            incr finished;
            let retry_note =
              if attempts.(index) > 1 then
                Printf.sprintf " [%d attempts]" attempts.(index)
              else ""
            in
            let fail_note = if failures.(index) <> None then " FAILED" else "" in
            Printf.eprintf "  [%s] %s: %.2fs w%d%s%s (%d/%d)\n%!" exp_id
              labels.(index) elapsed worker retry_note fail_note !finished
              total
          end
        in
        let job i (c : _ Experiments.Plan.cell) () =
          let jitter =
            Random.State.make
              [|
                budget.Experiments.Plan.seed;
                Hashtbl.hash exp_id;
                Hashtbl.hash c.Experiments.Plan.label;
              |]
          in
          let fault ~attempt =
            Experiments.Retry.inject ~exp_id ~label:c.Experiments.Plan.label
              ~attempt
          in
          let result, n =
            Experiments.Retry.run ~jitter ~fault policy
              c.Experiments.Plan.work
          in
          attempts.(i) <- n;
          match result with
          | Ok v -> v
          | Error err ->
              failures.(i) <- Some err;
              raise
                (Experiments.Retry.Cell_failed
                   {
                     exp_id;
                     label = c.Experiments.Plan.label;
                     attempts = n;
                     reason = Experiments.Retry.error_message err;
                   })
        in
        List.map
          (function
            | Ok v -> v
            | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
          (Pool.try_run ~on_done pool (List.mapi job cells)));
  }

(* Run each experiment exactly once, then feed every sink (stdout as
   text or CSV, plus the optional per-experiment CSV file).  A cell
   that exhausted its retry policy surfaces here as [Cell_failed]: the
   experiment's table cannot be assembled, so it reports to stderr and
   the sweep moves on — returns [false] so the driver can exit
   non-zero once everything has run. *)
let run_experiment ~runner ~manifest ~budget ~jobs ~csv ~out
    (e : Experiments.Exp.t) =
  let t0 = now () in
  match Experiments.Exp.table ~runner ~budget e with
  | table ->
      let dt = now () -. t0 in
      Telemetry.Manifest.record_experiment manifest ~id:e.id ~title:e.title
        ~elapsed:dt;
      Printf.eprintf "[%s] %d cells in %.2fs (j=%d)\n%!" e.id
        (Experiments.Plan.cell_count (e.plan budget))
        dt jobs;
      if csv then begin
        Printf.printf "# %s\n" e.title;
        print_string (Stats.Table.to_csv table)
      end
      else print_string (Experiments.Exp.render_table e table);
      Option.iter (fun dir -> write_csv dir e table) out;
      print_newline ();
      true
  | exception Experiments.Retry.Cell_failed f ->
      let dt = now () -. t0 in
      Telemetry.Manifest.record_experiment manifest ~id:e.id ~title:e.title
        ~elapsed:dt;
      Printf.eprintf "[%s] FAILED in %.2fs: cell %s gave up after %d \
                      attempt(s): %s\n%!"
        e.id dt f.label f.attempts f.reason;
      false

let out_dir =
  Flags.out ~docv:"DIR"
    ~doc:
      "Also write one CSV file per experiment into $(docv) (created, with \
       parents, if missing)."

let run_cmd =
  let doc = "Run experiments by id ('all' for the full catalogue)." in
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:
            "Experiment ids (or 'all'), run in the order given; optional \
             when --resume supplies them.")
  in
  let run ids quick seed jobs cache no_progress no_manifest retries timeout
      no_backoff faults resume csv out preflight =
    match run_preflight preflight with
    | Error msg -> `Error (false, msg)
    | Ok () ->
    let resumed =
      match resume with
      | None -> Ok None
      | Some file ->
          Result.map Option.some (Telemetry.Manifest.load_resume file)
    in
    match resumed with
    | Error msg -> `Error (false, "--resume: " ^ msg)
    | Ok resumed -> (
        let ids =
          match (ids, resumed) with
          | [], Some r -> r.Telemetry.Manifest.resume_ids
          | ids, _ -> ids
        in
        let quick, seed =
          match resumed with
          | Some r ->
              (r.Telemetry.Manifest.resume_quick, r.Telemetry.Manifest.resume_seed)
          | None -> (quick, seed)
        in
        let cache = cache || resumed <> None in
        let fault_specs =
          match faults with
          | _ :: _ -> faults
          | [] -> (
              match Sys.getenv_opt "REPRO_FAULT" with
              | Some s when s <> "" -> [ s ]
              | _ -> [])
        in
        if ids = [] then `Error (true, "no experiment ids given")
        else if jobs < 1 then `Error (false, "-j must be at least 1")
        else if retries < 1 then `Error (false, "--retries must be at least 1")
        else if (match timeout with Some s -> not (s > 0.) | None -> false)
        then `Error (false, "--timeout must be positive")
        else
          match
            try
              Experiments.Retry.install_faults fault_specs;
              Option.iter Telemetry.Fsutil.mkdir_p out;
              None
            with
            | Invalid_argument msg | Sys_error msg -> Some msg
          with
          | Some msg -> `Error (false, msg)
          | None -> (
              match Experiments.Exp.select ids with
              | Error msg -> `Error (false, msg ^ "; try `repro list`")
              | Ok exps ->
                  let policy =
                    {
                      Experiments.Retry.max_attempts = retries;
                      timeout_s = timeout;
                      backoff = not no_backoff;
                    }
                  in
                  let budget = Experiments.Exp.budget ~quick ~seed () in
                  let progress = not no_progress in
                  let manifest =
                    Telemetry.Manifest.create
                      ~command:(List.tl (Array.to_list Sys.argv))
                      ~ids:(List.map (fun e -> e.Experiments.Exp.id) exps)
                      ~quick ~seed ~jobs ~cache_enabled:cache ()
                  in
                  (* Journal from the start: the manifest file exists —
                     and stays valid JSON — from before the first cell
                     to after the last, so a killed run can always be
                     resumed from it. *)
                  let journalled =
                    if no_manifest then false
                    else
                      match
                        Telemetry.Manifest.enable_journal manifest
                          ~dir:runs_dir
                      with
                      | (_ : string) -> true
                      | exception Sys_error msg ->
                          Printf.eprintf "manifest: journal disabled (%s)\n%!"
                            msg;
                          false
                  in
                  (match resumed with
                  | Some r ->
                      Printf.eprintf
                        "resume: %d cell(s) recorded complete; serving them \
                         from the cache\n\
                         %!"
                        (List.length r.Telemetry.Manifest.completed)
                  | None -> ());
                  let cache_stats = Experiments.Cache.create_stats () in
                  let t0 = now () in
                  let ok_count = ref 0 in
                  let failed = ref [] in
                  Pool.with_pool ~size:jobs (fun pool ->
                      let runner =
                        pool_runner ~progress ~manifest ~cache_enabled:cache
                          ~policy pool
                      in
                      let runner =
                        if cache then
                          Experiments.Cache.runner ~stats:cache_stats
                            ~on_hit:(fun ~exp_id ~label ->
                              Telemetry.Manifest.record_cell manifest ~exp_id
                                ~label ~worker:(-1) ~waited:0. ~elapsed:0.
                                ~cache:Telemetry.Manifest.Hit)
                            ~dir:cache_dir ~inner:runner ()
                        else runner
                      in
                      List.iter
                        (fun e ->
                          if
                            run_experiment ~runner ~manifest ~budget ~jobs
                              ~csv ~out e
                          then incr ok_count
                          else failed := e.Experiments.Exp.id :: !failed)
                        exps;
                      let m = Pool.metrics pool in
                      Telemetry.Manifest.set_pool manifest
                        ~trapped:m.Pool.trapped
                        ~queue_wait_total:m.Pool.queue_wait_total
                        (List.map
                           (fun (w : Pool.worker_metrics) ->
                             {
                               Telemetry.Manifest.worker = w.worker;
                               jobs = w.jobs;
                               busy = w.busy;
                             })
                           m.Pool.workers));
                  let dt = now () -. t0 in
                  Telemetry.Manifest.set_elapsed manifest dt;
                  if cache then begin
                    Telemetry.Manifest.set_cache_counters manifest
                      ~hits:cache_stats.hits ~misses:cache_stats.misses
                      ~stores:cache_stats.stores;
                    Printf.eprintf "cache: %d hit(s), %d miss(es), %d store(s)\n%!"
                      cache_stats.hits cache_stats.misses cache_stats.stores
                  end;
                  (match resumed with
                  | Some r ->
                      let recorded =
                        List.length r.Telemetry.Manifest.completed
                      in
                      if cache_stats.hits < recorded then
                        Printf.eprintf
                          "resume: %d recorded cell(s) were missing from the \
                           cache and re-executed\n\
                           %!"
                          (recorded - cache_stats.hits)
                  | None -> ());
                  Printf.eprintf "total: %d experiment(s) in %.2fs (j=%d)\n%!"
                    (List.length exps) dt jobs;
                  if not no_manifest then begin
                    match Telemetry.Manifest.write ~dir:runs_dir manifest with
                    | path ->
                        Printf.eprintf "manifest: %s%s\n%!" path
                          (if journalled then " (journalled per cell)" else "")
                    | exception Sys_error msg ->
                        Printf.eprintf "manifest: skipped (%s)\n%!" msg
                  end;
                  if !failed <> [] then begin
                    Printf.eprintf
                      "FAILED: %d of %d experiment(s) had a cell give up: %s\n%!"
                      (List.length !failed) (List.length exps)
                      (String.concat ", " (List.rev !failed));
                    exit 1
                  end;
                  `Ok ()))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ ids_arg $ quick $ seed_arg $ jobs_arg $ cache_flag
       $ progress_flag $ no_manifest_flag $ retries_arg $ timeout_arg
       $ no_backoff_flag $ fault_arg $ resume_arg $ csv $ out_dir
       $ preflight_arg))

(* `repro bench`: time every cell of the selected experiments'
   plans sequentially (parallel timing would measure contention, not
   the cells) and write one BENCH_<date>.json trajectory point. *)
let bench_cmd =
  let doc =
    "Time the experiment cells and write a machine-readable BENCH JSON \
     (the repository's perf trajectory; see EXPERIMENTS.md)."
  in
  let ids_arg =
    Arg.(
      value & pos_all string [ "all" ]
      & info [] ~docv:"ID" ~doc:"Experiment ids to bench (default: all).")
  in
  let out_arg =
    Flags.out ~docv:"FILE"
      ~doc:"Output path (default: BENCH_<date>.json in the current directory)."
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Run every cell $(docv) times (plus one discarded warmup run when \
             N > 1) and record the median (default 1).")
  in
  let full_flag =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Bench the full budgets instead of the quick ones (slow).")
  in
  let gate_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "gate" ] ~docv:"BASELINE"
          ~doc:
            "Compare this run's interp/compiled microbench speedup against \
             $(docv) (a committed BENCH json, e.g. bench/BASELINE.json) and \
             fail if it fell below 0.8x the baseline's — the CI throughput \
             gate.  Requires the $(b,microbench) experiment to be benched.")
  in
  (* The speedup the gate watches: wall-clock of the microbench's
     interp cell over its compiled cell.  A ratio of two timings from
     the same run, so it transfers across machines — the committed
     baseline doesn't go stale when CI hardware changes. *)
  let micro_speedup what (t : Telemetry.Bench.t) =
    match
      List.find_opt
        (fun (e : Telemetry.Bench.experiment) -> e.id = "microbench")
        t.experiments
    with
    | None -> Error (what ^ " has no microbench experiment")
    | Some e -> (
        let sec prefix =
          List.find_opt
            (fun (c : Telemetry.Bench.cell) ->
              String.starts_with ~prefix c.label)
            e.cells
          |> Option.map (fun (c : Telemetry.Bench.cell) -> c.seconds)
        in
        match (sec "interp:", sec "compiled:") with
        | Some i, Some c when c > 0. -> Ok (i /. c)
        | _ -> Error (what ^ " is missing the microbench interp/compiled cells"))
  in
  let run ids seed repeat full no_progress out gate preflight =
    if repeat < 1 then `Error (false, "--repeat must be at least 1")
    else
      match run_preflight preflight with
      | Error msg -> `Error (false, msg)
      | Ok () -> (
      match Experiments.Exp.select ids with
      | Error msg -> `Error (false, msg ^ "; try `repro list`")
      | Ok exps ->
          let budget = Experiments.Exp.budget ~quick:(not full) ~seed () in
          let protocol =
            { Experiments.Stepbench.warmup = (if repeat > 1 then 1 else 0);
              repeat }
          in
          let time_cell work =
            (Experiments.Stepbench.measure ~clock:now ~protocol work)
              .Experiments.Stepbench.median
          in
          let progress fmt =
            Printf.ksprintf
              (fun s -> if not no_progress then Printf.eprintf "%s%!" s)
              fmt
          in
          let experiments =
            List.map
              (fun (e : Experiments.Exp.t) ->
                let cells =
                  List.map
                    (fun (label, work) ->
                      let seconds = time_cell work in
                      progress "  [%s] %s: %.3fs\n" e.id label seconds;
                      { Telemetry.Bench.label; seconds })
                    (Experiments.Plan.thunks (e.plan budget))
                in
                let total =
                  List.fold_left
                    (fun acc (c : Telemetry.Bench.cell) -> acc +. c.seconds)
                    0. cells
                in
                progress "[%s] %d cell(s), %.2fs\n" e.id (List.length cells)
                  total;
                { Telemetry.Bench.id = e.id; title = e.title; cells; total })
              exps
          in
          let doc =
            Telemetry.Bench.make ~quick:(not full) ~seed ~repeat experiments
          in
          let file =
            match out with
            | Some f -> f
            | None -> Telemetry.Bench.default_filename doc
          in
          (match Telemetry.Bench.write ~file doc with
          | exception Sys_error msg ->
              `Error (false, "cannot write bench JSON: " ^ msg)
          | () -> (
              Printf.eprintf "bench: %d experiment(s), %.2fs total -> %s\n%!"
                (List.length experiments)
                (Telemetry.Bench.total doc)
                file;
              match gate with
              | None -> `Ok ()
              | Some baseline_file -> (
                  match
                    ( Telemetry.Bench.load ~file:baseline_file,
                      micro_speedup "this run" doc )
                  with
                  | Error msg, _ -> `Error (false, "--gate: " ^ msg)
                  | _, Error msg -> `Error (false, "--gate: " ^ msg)
                  | Ok baseline, Ok current -> (
                      match micro_speedup "baseline" baseline with
                      | Error msg -> `Error (false, "--gate: " ^ msg)
                      | Ok base ->
                          let floor = 0.8 *. base in
                          Printf.printf
                            "gate: microbench speedup %.2fx vs baseline %.2fx \
                             (floor %.2fx): %s\n"
                            current base floor
                            (if current >= floor then "OK" else "FAIL");
                          if current >= floor then `Ok () else exit 1)))))
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      ret
        (const run $ ids_arg $ seed_arg $ repeat_arg $ full_flag
       $ progress_flag $ out_arg $ gate_arg $ preflight_arg))

(* -- The verdict commands: `check`, `chaos` and `scenario` -------------

   Each command only turns its flags into a Scenario.t and a replay
   line for a failure; [run_verdict] owns everything else — progress
   lines, VIOLATION blocks as they are found, --out artifacts and the
   exit verdict — so the three cannot drift apart.  The progress format
   is the one test/golden/ pins for `check` and `chaos`. *)

let structures_arg =
  Arg.(
    value & opt string "stock"
    & info [ "structures" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated structure names, or $(b,stock) (all correct \
           structures, the default) or $(b,all) (including the seeded-bug \
           variants, for --expect-bug drills).")

let n_arg =
  Arg.(
    value & opt int 3
    & info [ "n"; "procs" ] ~docv:"N"
        ~doc:"Processes per explored/fuzzed run (default 3).")

let ops_arg =
  Arg.(
    value & opt int 2
    & info [ "ops" ] ~docv:"K"
        ~doc:
          "Operations per process (default 2; n*ops is capped at 62 by the \
           linearizability checker).")

let expect_bug_flag =
  Arg.(
    value & flag
    & info [ "expect-bug" ]
        ~doc:
          "Invert the exit status: succeed only if at least one violation \
           was found (drill mode for the seeded-bug variants).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCHEDULE"
        ~doc:
          "Replay one comma-separated schedule (as printed by a violation \
           report) against the single structure named in --structures and \
           print its verdict.")

let mix_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mix-seed" ] ~docv:"N"
        ~doc:
          "Operation-mix seed for --replay (violation reports state the one \
           they used; default: the deterministic role-based mix).")

let parse_structures s =
  match s with
  | "stock" -> Ok Scu.Checkable.stock
  | "all" -> Ok Scu.Checkable.all
  | names -> (
      try
        Ok
          (List.map Scu.Checkable.find
             (List.filter (fun x -> x <> "") (String.split_on_char ',' names)))
      with Invalid_argument msg -> Error msg)

let structure_names = List.map (fun (s : Scu.Checkable.t) -> s.name)

let faults_of (f : Scenario.failure) =
  if f.fault_spec = "" then "none" else f.fault_spec

(* A fault spec of explicit events only — what a replay accepts. *)
let explicit_faults base =
  { Sched.Fault_plan.base; rates = Sched.Fault_plan.zero_rates }

let mix_flag (f : Scenario.failure) =
  match f.mix_seed with None -> "" | Some m -> Printf.sprintf " --mix-seed %d" m

(* A failure's one-shot reproduction scenario: same workload, the
   failure's own mix seed, its shrunk fault plan (explicit events only)
   plus any crash plan, a fixed replay source, and both history gates. *)
let replay_scenario (scn : Scenario.t) (f : Scenario.failure) =
  let events =
    match Sched.Fault_plan.parse_spec f.fault_spec with
    | Ok s -> s.base
    | Error _ -> Sched.Fault_plan.none
  in
  let faults =
    explicit_faults
      (Sched.Fault_plan.merge
         (Sched.Fault_plan.of_crash_events f.crash_plan)
         events)
  in
  let tail =
    if f.tail = "round-robin" then Check.Schedule.Round_robin
    else Check.Schedule.Stop
  in
  Scenario.make ~n:scn.n ~ops:scn.ops ~seed:scn.seed ?mix_seed:f.mix_seed
    ~faults
    ~sources:[ Scenario.Replay { schedule = f.schedule; tail } ]
    ~gates:[ Scenario.Lin; Scenario.Shadow ]
    ~structures:[ f.structure ] ()

(* One replayable report file per printed violation. *)
let write_artifact ~dir ~k scn (f : Scenario.failure) =
  let path =
    Filename.concat dir (Printf.sprintf "%s-%s-%d.txt" f.structure f.source k)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "spec: %s\nreplay-spec: %s\nstructure: %s\nsource: %s\nschedule: %s\n\
     faults: %s\ncrash: %s\nmix-seed: %s\ntail: %s\n\n%s\n"
    (Scenario.to_string scn)
    (Scenario.to_string (replay_scenario scn f))
    f.structure f.source f.replay (faults_of f)
    (String.concat ","
       (List.map (fun (t, p) -> Printf.sprintf "%d:%d" t p) f.crash_plan))
    (match f.mix_seed with None -> "-" | Some m -> string_of_int m)
    f.tail f.verdict;
  close_out oc;
  Printf.eprintf "wrote %s\n%!" path

(* The progress line(s) of one finished unit.  Chaos timings go to
   stderr: `chaos` stdout must be byte-identical across repeats. *)
let print_progress (scn : Scenario.t) = function
  | Scenario.Explore_done { structure; report = r; elapsed } ->
      Printf.printf
        "[explore] %-14s nodes=%d terminals=%d pruned=%d+%d violations=%d \
         exhausted=%b (%.2fs)\n"
        structure r.nodes r.terminals r.pruned_by_state r.pruned_by_sleep
        (List.length r.violations)
        r.exhausted elapsed
  | Fuzz_done { structure; report = r; elapsed } ->
      Printf.printf "[fuzz]    %-14s trials=%d failures=%d (%.2fs)\n" structure
        r.trials
        (List.length r.failures)
        elapsed;
      if r.failures <> [] then
        Printf.printf "  seed: %d (re-run with --seed %d)\n" scn.seed scn.seed
  | Chaos_done { structure; report = r; elapsed } ->
      Printf.printf "[chaos]   %-14s trials=%d failures=%d\n" structure r.trials
        (List.length r.failures);
      Printf.eprintf "  [chaos] %s: %.2fs\n%!" structure elapsed
  | Replay_done { structure; outcome } ->
      Printf.printf "%s: %s\n  effective schedule: %s\n" structure
        (Check.Schedule.verdict_to_string outcome.verdict)
        (Sched.Scheduler.replay_to_string outcome.executed)
  | Load_done { structure; completed; verdict; elapsed } ->
      Printf.printf "[load]    %-14s completed=%d %s (%.2fs)\n" structure
        completed
        (Check.Schedule.verdict_to_string verdict)
        elapsed
  | Conform_done { report = r; elapsed } ->
      List.iter
        (fun (g : Check.Conform.gate) ->
          Printf.printf "[conform] %s %-24s %s\n"
            (if g.passed then "PASS" else "FAIL")
            g.name g.detail)
        r.gates;
      Printf.printf "[conform] %s in %.1fs (seed %d)\n"
        (if r.passed then "all gates passed" else "GATES FAILED")
        elapsed scn.seed
  | Violation _ -> ()

(* Run [scn] and judge it.  [reproduce] is the command's own replay
   line for a failure, [summary] its closing line, [header] an
   optional first line and [finish] work between the run and the
   summary.  Explore lists every violating terminal, so only the first
   three per structure are printed (and written); all are counted.
   The --out directory is created up front so an unwritable one fails
   before any work.  Exit 1 unless the run passed (with --expect-bug:
   unless it found a violation). *)
let run_verdict ?header ?(finish = ignore) ~expect_bug ~out ~reproduce
    ~summary (scn : Scenario.t) =
  match Option.iter Telemetry.Fsutil.mkdir_p out with
  | exception Sys_error msg -> `Error (false, "--out: " ^ msg)
  | () ->
      Option.iter print_endline header;
      let shown = ref 0 and written = ref 0 in
      let on_event = function
        | Scenario.Violation f ->
            if f.source = "explore" then incr shown;
            if f.source <> "explore" || !shown <= 3 then begin
              Printf.printf "VIOLATION [%s/%s]\n  schedule: %s\n" f.structure
                f.source f.replay;
              if f.source = "chaos" then
                Printf.printf "  faults: %s\n" (faults_of f);
              Printf.printf "  %s\n  replay: %s\n" f.verdict (reproduce f);
              Option.iter
                (fun dir ->
                  incr written;
                  write_artifact ~dir ~k:!written scn f)
                out
            end
        | e ->
            (match e with Scenario.Explore_done _ -> shown := 0 | _ -> ());
            print_progress scn e
      in
      let outcome = Scenario.run ~on_event ~now scn in
      finish ();
      Printf.printf "%s%s\n" (summary outcome)
        (if expect_bug then " (expecting a bug)" else "");
      let ok =
        if expect_bug then outcome.failures <> [] else outcome.passed
      in
      if ok then `Ok () else exit 1

(* `check --replay` and `chaos --replay`: one schedule against the one
   named structure; prints the verdict and the effective schedule. *)
let replay_one ~structs ~n ~ops ~seed ~mix ~faults ~tail ~expect_bug sched =
  match structs with
  | [ (s : Scu.Checkable.t) ] -> (
      match Sched.Scheduler.replay_of_string sched with
      | exception Invalid_argument msg -> `Error (false, "--replay: " ^ msg)
      | schedule ->
          let scn =
            Scenario.make ~n ~ops ~seed ?mix_seed:mix ~faults
              ~sources:[ Scenario.Replay { schedule; tail } ]
              ~gates:[ Scenario.Lin ] ~structures:[ s.name ] ()
          in
          let outcome = Scenario.run ~on_event:(print_progress scn) ~now scn in
          if outcome.passed <> expect_bug then `Ok () else exit 1)
  | _ -> `Error (false, "--replay needs exactly one --structures name")

let check_workload ~n ~ops =
  if n < 1 || ops < 1 || n * ops > 62 then
    Error "need n >= 1, ops >= 1 and n*ops <= 62"
  else Ok ()

(* `repro check`: schedule exploration (bounded exhaustive
   interleavings), schedule fuzzing (random + adversarial, with
   shrinking) and statistical conformance gates, over the structures
   packaged in Scu.Checkable.  Any reported schedule replays
   byte-for-byte with --replay. *)
let check_cmd =
  let doc =
    "Check the runtime structures: explore interleavings exhaustively, fuzz \
     schedules with shrinking, and gate the Markov-chain predictions \
     statistically."
  in
  let mode_arg =
    Arg.(
      value
      & opt string "explore,fuzz,conform"
      & info [ "mode" ] ~docv:"MODES"
          ~doc:
            "Comma-separated subset of $(b,explore), $(b,fuzz), $(b,conform) \
             (default: all three).")
  in
  let crash_arg =
    Arg.(
      value & opt string ""
      & info [ "crash" ] ~docv:"T:P[,T:P...]"
          ~doc:"Crash plan for --replay: process P crashes at time T.")
  in
  let tail_arg =
    Arg.(
      value & opt string "stop"
      & info [ "tail" ] ~docv:"MODE"
          ~doc:
            "What --replay does after the schedule runs out: $(b,stop) (the \
             explorer's frontier semantics, default) or $(b,round-robin) \
             (run to completion, the fuzzer's semantics).")
  in
  let parse_tail = function
    | "stop" -> Ok Check.Schedule.Stop
    | "round-robin" -> Ok Check.Schedule.Round_robin
    | t -> Error ("unknown --tail: " ^ t)
  in
  let parse_crash s =
    if s = "" then Ok []
    else
      (* Catch only the parse failures ([int_of_string] raises
         [Failure]); a catch-all here once swallowed unrelated
         exceptions into the same "bad spec" message.  Name the
         offending T:P component, not just the whole spec. *)
      try
        Ok
          (List.map
             (fun part ->
               match String.split_on_char ':' part with
               | [ t; p ] -> (int_of_string t, int_of_string p)
               | _ -> failwith "not of the form T:P")
             (String.split_on_char ',' s))
      with Failure _ | Invalid_argument _ ->
        let bad =
          List.find_opt
            (fun part ->
              match String.split_on_char ':' part with
              | [ t; p ] -> (
                  match (int_of_string_opt t, int_of_string_opt p) with
                  | Some _, Some _ -> false
                  | _ -> true)
              | _ -> true)
            (String.split_on_char ',' s)
        in
        Error
          (Printf.sprintf "bad --crash spec %S: component %S is not T:P (two integers)"
             s
             (Option.value bad ~default:s))
  in
  let run mode structures n ops seed long expect_bug replay mix crash tail out
      =
    let modes = String.split_on_char ',' mode in
    let bad_modes =
      List.filter
        (fun m -> not (List.mem m [ "explore"; "fuzz"; "conform" ]))
        modes
    in
    let ( let* ) = Result.bind in
    let parsed =
      let* structs = parse_structures structures in
      let* crash_events = parse_crash crash in
      let* tail = parse_tail tail in
      let* () =
        if bad_modes = [] then Ok ()
        else Error ("unknown --mode: " ^ String.concat "," bad_modes)
      in
      let* () = check_workload ~n ~ops in
      let crashes = Sched.Fault_plan.of_crash_events crash_events in
      let* () =
        Result.map_error
          (fun msg -> "--crash: " ^ msg)
          (Sched.Fault_plan.validate ~n crashes)
      in
      Ok (structs, crashes, tail)
    in
    match parsed with
    | Error msg -> `Error (false, msg)
    | Ok (structs, crashes, tail) -> (
        match replay with
        | Some sched ->
            replay_one ~structs ~n ~ops ~seed ~mix ~tail ~expect_bug
              ~faults:(explicit_faults crashes)
              sched
        | None ->
            let sources =
              (if List.mem "explore" modes then [ Scenario.Explore ] else [])
              @ if List.mem "fuzz" modes then [ Scenario.Fuzz ] else []
            in
            let gates =
              Scenario.Lin
              :: (if List.mem "conform" modes then [ Scenario.Conform ] else [])
            in
            let budget =
              {
                Scenario.explore_nodes = (if long then 500_000 else 20_000);
                explore_depth = (if long then 128 else 64);
                fuzz_trials = (if long then 3_000 else 300);
                sched_trials = (if long then 16 else 4);
                chaos_trials = Check.Chaos.default.trials;
                long_conform = long;
              }
            in
            let scn =
              Scenario.make ~n ~ops ~seed
                ~faults:(explicit_faults Sched.Fault_plan.none)
                ~sources ~gates ~budget ~structures:(structure_names structs) ()
            in
            run_verdict ~expect_bug ~out scn
              ~reproduce:(fun f ->
                Printf.sprintf
                  "repro check --structures %s -n %d --ops %d --replay %s \
                   --tail %s%s"
                  f.structure n ops f.replay f.tail (mix_flag f))
              ~summary:(fun o ->
                Printf.sprintf "check: %d violation(s), %d failed gate(s)"
                  (List.length o.failures) o.gates_failed))
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run $ mode_arg $ structures_arg $ n_arg $ ops_arg $ seed_arg
       $ Flags.long $ expect_bug_flag $ replay_arg $ mix_arg $ crash_arg
       $ tail_arg $ Flags.artifact_dir))

(* `repro chaos`: the chaos layer's CLI.  Phase 1 fuzzes the checkable
   structures under randomly instantiated fault plans (crash–recovery,
   stall windows, spurious CAS failure) with two-axis shrinking; phase
   2 renders the graceful-degradation sweep (experiment `chaos`, with
   its fault-free thm4/cor2 anchor rows).  Stdout carries only
   deterministic content — violation reports and tables — so two runs
   with the same --seed and --faults are byte-identical; timings and
   file paths go to stderr.  Exit 1 on any violation (inverted by
   --expect-bug). *)
let chaos_cmd =
  let doc =
    "Chaos drills: fuzz the structures under random fault plans \
     (crash-recovery, stalls, spurious CAS failure) and run the \
     graceful-degradation sweep."
  in
  let faults_arg =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault spec: comma-separated explicit events $(b,crash@T:P), \
             $(b,restart@T:P), $(b,stall@T:P+D), $(b,casfail:P=R) (P may be \
             $(b,*)) and/or rates $(b,crash~R), $(b,recover~R), \
             $(b,stall~R:D), $(b,casfail~R); $(b,none) is the empty spec.  \
             Default: the mixed drill \
             crash~0.01,recover~0.05,stall~0.01:5,casfail~0.1.")
  in
  let trials_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Fuzz trials per structure (default 60, or 15 with --quick).")
  in
  let no_sweep_flag =
    Arg.(
      value & flag
      & info [ "no-sweep" ]
          ~doc:
            "Skip the graceful-degradation sweep (experiment `chaos`) after \
             the fuzz phase.")
  in
  let run faults structures n ops seed trials quick expect_bug no_sweep
      no_manifest replay mix out =
    let spec_result =
      if faults = "" then Ok Check.Chaos.default_spec
      else Sched.Fault_plan.parse_spec faults
    in
    let trials =
      match trials with
      | Some t -> t
      | None ->
          if quick then Check.Chaos.default.trials / 4
          else Check.Chaos.default.trials
    in
    let ( let* ) = Result.bind in
    let parsed =
      let* structs = parse_structures structures in
      let* spec = spec_result in
      let* () = check_workload ~n ~ops in
      let* () =
        if trials < 1 then Error "--trials must be at least 1" else Ok ()
      in
      let* () =
        Result.map_error
          (fun msg -> "--faults: " ^ msg)
          (Sched.Fault_plan.validate ~n spec.Sched.Fault_plan.base)
      in
      Ok (structs, spec)
    in
    match (parsed, replay) with
    | Error msg, _ -> `Error (false, msg)
    | Ok (_, spec), Some _
      when spec.Sched.Fault_plan.rates <> Sched.Fault_plan.zero_rates ->
        `Error
          ( false,
            "--replay needs an explicit fault plan (events and casfail:P=R \
             entries only, no ~rates)" )
    | Ok (structs, spec), Some sched ->
        replay_one ~structs ~n ~ops ~seed ~mix ~faults:spec
          ~tail:Check.Schedule.Round_robin ~expect_bug sched
    | Ok (structs, spec), None ->
        let t0 = now () in
        let manifest =
          Telemetry.Manifest.create
            ~command:(List.tl (Array.to_list Sys.argv))
            ~ids:(if no_sweep then [] else [ "chaos" ])
            ~quick ~seed ~jobs:1 ~cache_enabled:false ()
        in
        Telemetry.Manifest.set_faults manifest
          (Sched.Fault_plan.spec_to_string spec);
        (* Phase 2 and the manifest, between the fuzz phase and the
           summary line. *)
        let finish () =
          (if not no_sweep then
             match Experiments.Exp.find "chaos" with
             | None -> ()
             | Some e ->
                 let budget = Experiments.Exp.budget ~quick ~seed () in
                 let t1 = now () in
                 let table = Experiments.Exp.table ~budget e in
                 Telemetry.Manifest.record_experiment manifest ~id:e.id
                   ~title:e.title ~elapsed:(now () -. t1);
                 print_string (Experiments.Exp.render_table e table);
                 print_newline ());
          Telemetry.Manifest.set_elapsed manifest (now () -. t0);
          if not no_manifest then
            match Telemetry.Manifest.write ~dir:runs_dir manifest with
            | path -> Printf.eprintf "manifest: %s\n%!" path
            | exception Sys_error msg ->
                Printf.eprintf "manifest: skipped (%s)\n%!" msg
        in
        let scn =
          Scenario.make ~n ~ops ~seed ~faults:spec ~sources:[ Scenario.Chaos ]
            ~gates:[ Scenario.Lin ]
            ~budget:{ Scenario.standard.budget with chaos_trials = trials }
            ~structures:(structure_names structs) ()
        in
        run_verdict ~finish ~expect_bug ~out scn
          ~reproduce:(fun f ->
            Printf.sprintf
              "repro chaos --structures %s -n %d --ops %d --replay %s --faults \
               %s%s --no-sweep"
              f.structure n ops f.replay (faults_of f) (mix_flag f))
          ~summary:(fun o ->
            Printf.sprintf "chaos: %d violation(s) across %d structure(s)"
              (List.length o.failures) (List.length structs))
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const run $ faults_arg $ structures_arg $ n_arg $ ops_arg $ seed_arg
       $ trials_arg $ quick $ expect_bug_flag $ no_sweep_flag
       $ no_manifest_flag $ replay_arg $ mix_arg $ Flags.artifact_dir))

(* `repro scenario`: the scenario DSL's own CLI — named presets
   (quick/standard/century/chaos), the --spec grammar, and flag
   overrides on top of either.  Its replay line is a self-contained
   `repro scenario --spec` command. *)
let scenario_cmd =
  let doc =
    "Run a declarative scenario: a named preset (quick, standard, century, \
     chaos) or a --spec grammar value, over any of the checkable structures, \
     with the shadow-state gate on by default."
  in
  let preset_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Named scenario preset: $(b,quick) (explore+fuzz, fault-free), \
             $(b,standard) (adds the chaos source at mild fault rates), \
             $(b,century) (large budgets, rare-event rates, conform gate) or \
             $(b,chaos) (heavy mixed fault drill).  Default: standard.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "Full scenario spec in the `;`-separated key=value grammar (see \
             repro scenario --list for each preset's canonical form); \
             $(b,preset=NAME) as the first field selects the base the \
             remaining fields override.  Mutually exclusive with --preset.")
  in
  let structures_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "structures" ] ~docv:"NAMES"
          ~doc:
            "Override the scenario's structures: comma-separated names, \
             $(b,stock) or $(b,all).")
  in
  let n_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "procs" ] ~docv:"N" ~doc:"Override processes per run.")
  in
  let ops_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "ops" ] ~docv:"K" ~doc:"Override operations per process.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Override the scenario seed.")
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the named presets as canonical --spec values and exit.")
  in
  let print_flag =
    Arg.(
      value & flag
      & info [ "print" ]
          ~doc:
            "Print the resolved scenario's canonical --spec value and exit \
             without running it.")
  in
  let run preset spec structures n ops seed list print expect_bug out =
    if list then begin
      List.iter
        (fun (name, p) ->
          Printf.printf "%-10s %s\n" name (Scenario.to_string p))
        Scenario.presets;
      `Ok ()
    end
    else
      let ( let* ) = Result.bind in
      let resolved =
        let* base =
          match (preset, spec) with
          | Some _, Some _ -> Error "--preset and --spec are mutually exclusive"
          | Some name, None ->
              Option.to_result (Scenario.preset name)
                ~none:
                  (Printf.sprintf "unknown --preset %S (known: %s)" name
                     (String.concat ", " (List.map fst Scenario.presets)))
          | None, Some s -> Scenario.parse s
          | None, None -> Ok Scenario.standard
        in
        let* base =
          match structures with
          | None -> Ok base
          | Some s ->
              Result.map
                (fun structs ->
                  Scenario.with_structures (structure_names structs) base)
                (parse_structures s)
        in
        let scn =
          base
          |> Scenario.with_workload
               ~n:(Option.value n ~default:base.n)
               ~ops:(Option.value ops ~default:base.ops)
          |> Scenario.with_seed (Option.value seed ~default:base.seed)
        in
        Result.map (fun () -> scn) (Scenario.validate scn)
      in
      match resolved with
      | Error msg -> `Error (false, msg)
      | Ok scn when print ->
          print_endline (Scenario.to_string scn);
          `Ok ()
      | Ok scn ->
          run_verdict ~expect_bug ~out scn
            ~header:("scenario: " ^ Scenario.to_string scn)
            ~reproduce:(fun f ->
              Printf.sprintf "repro scenario --spec '%s'"
                (Scenario.to_string (replay_scenario scn f)))
            ~summary:(fun o ->
              Printf.sprintf
                "scenario: %d violation(s), %d failed gate(s) across %d \
                 trial(s)"
                (List.length o.failures) o.gates_failed o.trials)
  in
  Cmd.v (Cmd.info "scenario" ~doc)
    Term.(
      ret
        (const run $ preset_arg $ spec_arg $ structures_arg $ n_arg $ ops_arg
       $ seed_arg $ list_flag $ print_flag $ expect_bug_flag
       $ Flags.artifact_dir))

(* `repro load` / `repro serve`: the live SCU service and its load
   generator.  Millions of simulated client sessions are multiplexed
   over sharded server simulations (one executor run per shard, fanned
   over the domain pool); latency is measured in simulated steps, so
   stdout and the --out manifest depend only on the configuration and
   seed — never on the pool size or wall clock.  `load` is one batch
   run (optionally with the SLO n-sweep gates); `serve` is a windowed
   soak emitting one JSONL manifest line per window. *)
module Load_cli = struct
  let structures_arg =
    Arg.(
      value & opt string "counter"
      & info [ "structure"; "structures" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated structure zoo: $(b,counter), $(b,treiber), \
             $(b,msqueue), $(b,elimination-stack), $(b,waitfree-counter), or \
             $(b,all).  Clients round-robin over the zoo.")

  let clients_arg =
    Arg.(
      value & opt int 100_000
      & info [ "clients" ] ~docv:"N"
          ~doc:"Total simulated client sessions (default 100000).")

  let ops_arg =
    Arg.(
      value & opt int 1
      & info [ "ops" ] ~docv:"K" ~doc:"Requests per client session (default 1).")

  let workers_arg =
    Arg.(
      value & opt int 8
      & info [ "workers" ] ~docv:"N"
          ~doc:"Server processes per shard (default 8).")

  let shards_arg =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Independent server shards; client c belongs to shard c mod N \
             (default 8).  The result does not depend on how shards are \
             scheduled over the pool.")

  let mode_arg =
    Arg.(
      value & opt string "closed"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,closed) (think-time loop, at most one outstanding request \
             per client; default) or $(b,open) (arrivals at the sampled rate \
             regardless of service — the queue may build without bound).")

  let think_arg =
    Arg.(
      value & opt float 0.
      & info [ "think" ] ~docv:"STEPS"
          ~doc:
            "Closed loop: mean think time in steps between a completion and \
             the client's next request (exponential; default 0).")

  let arrival_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~docv:"KIND"
          ~doc:
            "Open loop arrival process: $(b,poisson) (default) or $(b,bursty) \
             (on/off bursts).")

  let rate_arg =
    Arg.(
      value & opt float 0.02
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open loop: per-client arrival rate in requests per step \
             (default 0.02).")

  let burst_arg =
    Arg.(
      value & opt int 8
      & info [ "burst" ] ~docv:"N"
          ~doc:"Bursty arrivals: requests per burst (default 8).")

  let idle_arg =
    Arg.(
      value & opt float 200.
      & info [ "idle" ] ~docv:"STEPS"
          ~doc:"Bursty arrivals: mean idle gap between bursts (default 200).")

  let alpha_arg =
    Arg.(
      value & opt float 1.1
      & info [ "alpha" ] ~docv:"A"
          ~doc:
            "Zipf popularity exponent over the objects (0 = uniform; default \
             1.1).")

  let objects_arg =
    Arg.(
      value & opt int 64
      & info [ "objects" ] ~docv:"N"
          ~doc:"Object instances per structure kind per shard (default 64).")

  let out_arg =
    Flags.out ~docv:"FILE"
      ~doc:
        "Write the JSON manifest to $(docv) (atomic; `serve` appends one \
         compact JSONL line per window instead)."

  let faults_arg =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Per-shard fault injection: a named tier ($(b,quick), \
             $(b,standard), $(b,century), $(b,chaos)) or a fault-plan spec \
             ($(b,crash@T:P), $(b,restart@T:P), $(b,stall@T:P+D), \
             $(b,casfail:P=R), $(b,crash~R), $(b,recover~R), $(b,stall~R:D), \
             $(b,casfail~R)).  Rates are instantiated per shard from the \
             seed; same seed, same faults, same bytes.")

  let deadline_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline" ] ~docv:"STEPS"
          ~doc:
            "Per-request deadline in steps from each dispatch attempt's \
             arrival; an expired attempt retries (with budget) or resolves \
             timed-out.  0 (default) = no deadline.")

  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry budget per request after deadline expiry (default 0; \
             requires --deadline).")

  let backoff_arg =
    Arg.(
      value & opt int 16
      & info [ "backoff" ] ~docv:"STEPS"
          ~doc:
            "Retry backoff base: attempt a redispatches after base*2^(a-1) \
             steps plus deterministic seeded jitter (default 16).")

  let hedge_arg =
    Arg.(
      value & opt int 0
      & info [ "hedge" ] ~docv:"STEPS"
          ~doc:
            "Hedge a request still in flight after $(docv) steps with one \
             duplicate dispatch; first finisher wins.  0 (default) = never.")

  let max_steps_arg =
    Arg.(
      value & opt int Load.Engine.default.max_steps
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Per-shard step budget; a shard that hits it stops early and \
             drops its unresolved requests (default 200000000).")

  let parse_faults s =
    if s = "" || s = "none" then Ok Load.Engine.no_faults
    else
      match Sched.Fault_plan.tier_rates s with
      | Some rates -> Ok { Sched.Fault_plan.base = Sched.Fault_plan.none; rates }
      | None -> Sched.Fault_plan.parse_spec s

  let parse_kinds s =
    if s = "all" then Ok Load.Engine.all_kinds
    else
      let names = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
      if names = [] then Error "need at least one structure"
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest -> (
              match Load.Engine.kind_of_name n with
              | Ok k -> go (k :: acc) rest
              | Error msg -> Error msg)
        in
        go [] names

  let parse_mode ~mode ~think ~arrival ~rate ~burst ~idle =
    match mode with
    | "closed" -> Ok (Load.Workload.Closed { think })
    | "open" -> (
        match arrival with
        | "poisson" -> Ok (Load.Workload.Open (Poisson { rate }))
        | "bursty" -> Ok (Load.Workload.Open (Bursty { rate; burst; idle }))
        | a -> Error ("unknown --arrival: " ^ a))
    | m -> Error ("unknown --mode: " ^ m)

  (* The 20 service flags of `load` and `serve`, validated into one
     engine config.  The raw --faults string rides along: `load
     --expect-degraded` needs the tier name. *)
  let config =
    let make structures clients ops workers shards mode think arrival rate
        burst idle alpha objects seed faults deadline retries backoff hedge
        max_steps =
      match
        ( parse_kinds structures,
          parse_mode ~mode ~think ~arrival ~rate ~burst ~idle,
          parse_faults faults )
      with
      | Error msg, _, _ | _, Error msg, _ | _, _, Error msg -> Error msg
      | Ok kinds, Ok mode, Ok spec ->
          let policy =
            {
              Load.Policy.deadline =
                (if deadline > 0 then Some deadline else None);
              max_retries = retries;
              backoff_base = backoff;
              hedge_after = (if hedge > 0 then Some hedge else None);
            }
          in
          let cfg =
            {
              Load.Engine.kinds;
              objects;
              clients;
              ops_per_client = ops;
              workers;
              shards;
              mode;
              alpha;
              seed;
              max_steps;
              faults = spec;
              policy;
            }
          in
          Result.map (fun () -> (faults, cfg)) (Load.Engine.validate cfg)
    in
    Term.(
      term_result'
        (const make $ structures_arg $ clients_arg $ ops_arg $ workers_arg
       $ shards_arg $ mode_arg $ think_arg $ arrival_arg $ rate_arg $ burst_arg
       $ idle_arg $ alpha_arg $ objects_arg $ seed_arg $ faults_arg
       $ deadline_arg $ retries_arg $ backoff_arg $ hedge_arg $ max_steps_arg))
end

let load_cmd =
  let doc =
    "Hammer the simulated SCU service with a seeded load-generator batch and \
     report tail latencies (optionally gated against the O(n(q+s sqrt n)) \
     prediction)."
  in
  let slo_flag =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "Also run the tail-latency SLO n-sweep for every SCU-classified \
             structure in the zoo and attach the gates to the report.")
  in
  let ns_arg =
    Arg.(
      value & opt string "2,4,8"
      & info [ "ns" ] ~docv:"N,N,..."
          ~doc:"Worker counts for the SLO sweep (ascending; default 2,4,8).")
  in
  let slo_requests_arg =
    Arg.(
      value & opt int 40_000
      & info [ "slo-requests" ] ~docv:"N"
          ~doc:"Approximate requests per SLO sweep cell (default 40000).")
  in
  let expect_pass_flag =
    Arg.(
      value & flag
      & info [ "expect-pass" ]
          ~doc:
            "Exit non-zero unless every SLO gate passed (requires --slo) — \
             the CI mode.")
  in
  let expect_degraded_flag =
    Arg.(
      value & flag
      & info [ "expect-degraded" ]
          ~doc:
            "Run the matched fault-free baseline alongside the faulted run \
             and gate throughput loss, p99/p999 inflation and drop rate \
             against the tier's degradation budgets (plus the Corollary 2 \
             crash cross-check); exit non-zero on any gate failure.  \
             Requires --faults with a named tier.")
  in
  let run (faults, (cfg : Load.Engine.config)) jobs no_progress out slo ns
      slo_requests expect_pass expect_degraded =
    if expect_pass && not slo then
      `Error (false, "--expect-pass requires --slo")
    else if expect_degraded && Load.Degrade.budgets_for_tier faults = None
    then
      `Error
        ( false,
          "--expect-degraded requires --faults with a named tier (quick, \
           standard, century, chaos)" )
    else (
      (* Parse --ns eagerly and reject bad tokens by name.  The old
         code mapped any [Failure] to the empty list, so a typo like
         --ns 2,4,x was silently ignored without --slo and produced
         the misleading "needs at least two worker counts" with it. *)
      let ns_tokens =
        List.filter (fun x -> x <> "") (String.split_on_char ',' ns)
      in
      let bad_ns =
        List.find_opt
          (fun x -> Option.is_none (int_of_string_opt x))
          ns_tokens
      in
      match bad_ns with
      | Some tok ->
          `Error
            ( false,
              Printf.sprintf "--ns: %S is not an integer worker count" tok )
      | None ->
      let ns = List.map int_of_string ns_tokens in
      if slo && List.length ns < 2 then
        `Error (false, "--ns needs at least two worker counts")
      else if jobs < 1 then `Error (false, "-j must be at least 1")
      else if slo_requests < 1 then
        `Error (false, "--slo-requests must be positive")
      else begin
        let t0 = now () in
        let result, degrade_gates =
          Pool.with_pool ~size:jobs (fun pool ->
              if not expect_degraded then (Load.Engine.run ~pool cfg, None)
              else
                match Load.Degrade.run ~pool ~tier:faults cfg with
                | Error msg -> failwith msg
                | Ok d ->
                    let crash =
                      if cfg.workers >= 2 then
                        Load.Degrade.crash_check ~pool
                          ~k:(max 1 (cfg.workers / 2))
                          cfg
                      else []
                    in
                    (d.faulted, Some (d.gates @ crash)))
        in
        if not no_progress then
          Printf.eprintf "[load] %d request(s) in %.2fs (j=%d)\n%!"
            result.requests (now () -. t0) jobs;
        let gates =
          if not slo then None
          else
            Some
              (List.concat_map
                 (fun kind ->
                   match Load.Slo.params_of_kind kind with
                   | None ->
                       [
                         Check.Conform.gate
                           ("slo-" ^ Load.Engine.kind_name kind
                          ^ "-unclassified")
                           true
                           "no SCU(q, s) classification (helping scan is \
                            Theta(n) per attempt); not gated";
                       ]
                   | Some _ ->
                       let t1 = now () in
                       let s =
                         Load.Slo.run ~ns
                           ~requests_per_point:slo_requests ~kind
                           ~seed:cfg.seed ()
                       in
                       if not no_progress then
                         Printf.eprintf "[slo] %s sweep in %.2fs\n%!"
                           (Load.Engine.kind_name kind)
                           (now () -. t1);
                       s.gates)
                 cfg.kinds)
        in
        let error_budget =
          if Load.Engine.is_robust cfg then
            Some (Load.Report.error_budget result)
          else None
        in
        let report =
          Load.Report.of_result ?slo:gates ?degrade:degrade_gates
            ?error_budget result
        in
        print_string (Load.Report.render report);
        match
          Option.iter
            (fun file ->
              Telemetry.Load_report.write ~file report;
              Printf.eprintf "manifest: %s\n%!" file)
            out
        with
        | exception Sys_error msg -> `Error (false, "--out: " ^ msg)
        | () ->
          let gates_failed =
            match gates with
            | None -> 0
            | Some gs ->
                List.length
                  (List.filter
                     (fun (g : Check.Conform.gate) -> not g.passed)
                     gs)
          in
          (match gates with
          | Some gs ->
              Printf.printf "load: %d SLO gate(s), %d failed\n"
                (List.length gs) gates_failed
          | None -> ());
          let degrade_failed =
            match degrade_gates with
            | None -> 0
            | Some gs ->
                List.length
                  (List.filter
                     (fun (g : Check.Conform.gate) -> not g.passed)
                     gs)
          in
          (match degrade_gates with
          | Some gs ->
              Printf.printf "load: %d degradation gate(s), %d failed\n"
                (List.length gs) degrade_failed
          | None -> ());
          (match Load.Engine.stopped_shards result with
          | [] -> ()
          | ids ->
              Printf.eprintf
                "load: shard%s %s stopped early at the step budget \
                 (--max-steps %d)\n\
                 %!"
                (if List.length ids = 1 then "" else "s")
                (String.concat "," (List.map string_of_int ids))
                cfg.max_steps;
              exit 1);
          if degrade_failed > 0 then exit 1;
          if expect_pass && gates_failed > 0 then exit 1;
          `Ok ()
      end)
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      ret
        (const run $ Load_cli.config $ jobs_arg $ progress_flag
       $ Load_cli.out_arg $ slo_flag $ ns_arg $ slo_requests_arg
       $ expect_pass_flag $ expect_degraded_flag))

let serve_cmd =
  let doc =
    "Run the SCU service as a windowed soak: consecutive seeded load windows \
     with one summary block and one JSONL manifest line per window."
  in
  let windows_arg =
    Arg.(
      value & opt int 5
      & info [ "windows" ] ~docv:"N"
          ~doc:"Load windows to serve (default 5); window w derives its seed \
                from the base seed and w.")
  in
  let slo_target_arg =
    Arg.(
      value & opt float 0.999
      & info [ "slo-target" ] ~docv:"A"
          ~doc:
            "Availability objective for the per-window error budget \
             (default 0.999).  A window burning more than 1x its budget is \
             degraded, more than 10x is breached; only reported for faulted \
             or policy-bearing runs.")
  in
  let run (_, (cfg : Load.Engine.config)) jobs no_progress out
      windows slo_target =
    if windows < 1 then `Error (false, "--windows must be at least 1")
    else if jobs < 1 then `Error (false, "-j must be at least 1")
    else if not (slo_target > 0. && slo_target < 1.) then
      `Error (false, "--slo-target must be strictly between 0 and 1")
    else begin
      match
        Option.map
          (fun file ->
            (match Filename.dirname file with
            | "" | "." -> ()
            | dir -> Telemetry.Fsutil.mkdir_p dir);
            open_out file)
          out
      with
      | exception Sys_error msg -> `Error (false, "--out: " ^ msg)
      | oc ->
        let robust = Load.Engine.is_robust cfg in
        let ok_w = ref 0 and degraded_w = ref 0 and breached_w = ref 0 in
        let worst_burn = ref 0. in
        Pool.with_pool ~size:jobs (fun pool ->
            for w = 0 to windows - 1 do
              let t0 = now () in
              let cfg_w =
                { cfg with Load.Engine.seed = Load.Workload.mix cfg.seed w }
              in
              let result = Load.Engine.run ~pool cfg_w in
              if not no_progress then
                Printf.eprintf "[serve] window %d: %d request(s) in %.2fs\n%!"
                  w result.requests (now () -. t0);
              let error_budget =
                if robust then begin
                  let eb =
                    Load.Report.error_budget ~target:slo_target result
                  in
                  (match eb.verdict with
                  | "ok" -> incr ok_w
                  | "degraded" -> incr degraded_w
                  | _ -> incr breached_w);
                  if eb.burn > !worst_burn then worst_burn := eb.burn;
                  Some eb
                end
                else None
              in
              let report =
                Load.Report.of_result ~window:w ?error_budget result
              in
              print_string (Load.Report.render report);
              Option.iter
                (fun oc ->
                  output_string oc
                    (Telemetry.Load_report.to_string ~compact:true report);
                  output_char oc '\n';
                  flush oc)
                oc
            done);
        Option.iter close_out oc;
        Option.iter
          (fun file -> Printf.eprintf "manifest stream: %s\n%!" file)
          out;
        (* Soak verdict, only for runs that can burn budget: window
           counts by health plus the worst burn rate seen. *)
        if robust then
          Printf.printf
            "serve: %d window(s): ok=%d degraded=%d breached=%d \
             worst-burn=%.2f\n"
            windows !ok_w !degraded_w !breached_w !worst_burn;
        `Ok ()
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ Load_cli.config $ jobs_arg $ progress_flag
       $ Load_cli.out_arg $ windows_arg $ slo_target_arg))

let main =
  let doc =
    "Reproduction harness for 'Are Lock-Free Concurrent Algorithms Practically \
     Wait-Free?' (Alistarh, Censor-Hillel, Shavit)"
  in
  Cmd.group
    (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [
      list_cmd;
      run_cmd;
      bench_cmd;
      check_cmd;
      chaos_cmd;
      scenario_cmd;
      load_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval main)
