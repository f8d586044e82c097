(* Blocking vs non-blocking (paper §2.2): a starvation-free ticket-
   lock counter against the lock-free CAS counter.

   - Crash-free uniform scheduler: both make maximal progress (the
     lock pays extra spinning steps per operation).
   - Crash one process at t = steps/2: the blocking counter halts
     (the victim eventually holds — or queues inside — the FIFO lock)
     while the lock-free counter's survivors keep completing — the
     whole reason non-blocking algorithms exist. *)

let id = "abl-lock"
let title = "Ablation: blocking (ticket lock) vs lock-free under crashes"

let notes =
  "Crash-free rows: both progress.  Crash rows: the lock-free \
   counter's post-crash rate stays near its pre-crash rate; the \
   ticket-lock counter's post-crash completions stop (0 or a handful \
   before the dead process's ticket comes up)."

let plan { Plan.quick; seed } =
  let n = 8 in
  let steps = if quick then 200_000 else 800_000 in
  let crash_at = steps / 2 in
  let completions_upto budget ~crashed make_spec =
    let fault_plan =
      if crashed then
        Sched.Fault_plan.of_crash_events [ (crash_at, 0) ]
      else Sched.Fault_plan.none
    in
    let config =
      Sim.Executor.Config.(
        default |> with_seed (seed + 61) |> with_faults fault_plan)
    in
    let r =
      Sim.Executor.exec ~config ~scheduler:Sched.Scheduler.uniform ~n
        ~stop:(Steps budget) (make_spec ())
    in
    Sim.Metrics.total_completions r.metrics
  in
  let case name make_spec crashed =
    let label =
      Printf.sprintf "%s%s" name (if crashed then ":crash" else ":no-crash")
    in
    Plan.cell label (fun () ->
        (* Two deterministic runs with the same seed: to the midpoint, and
           to the end; the difference is the second-half progress. *)
        let half = completions_upto crash_at ~crashed make_spec in
        let full = completions_upto steps ~crashed make_spec in
        let after = full - half in
        [
          [
            name;
            (if crashed then Printf.sprintf "p0 at t=%d" crash_at else "none");
            string_of_int half;
            string_of_int after;
            Runs.fmt (float_of_int after /. float_of_int (steps - crash_at));
          ];
        ])
  in
  Plan.of_rows
    ~headers:
      [ "algorithm"; "crash plan"; "ops in 1st half"; "ops in 2nd half"; "2nd-half rate" ]
    [
      case "lock-free CAS counter" (fun () -> (Scu.Counter.make ~n).spec) false;
      case "lock-free CAS counter" (fun () -> (Scu.Counter.make ~n).spec) true;
      case "ticket-lock counter" (fun () -> (Scu.Ticket_lock.make ~n).spec) false;
      case "ticket-lock counter" (fun () -> (Scu.Ticket_lock.make ~n).spec) true;
    ]
