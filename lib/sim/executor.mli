(** The discrete-time executor: ties a scheduler (Definition 1) to a
    set of simulated processes over a shared memory.

    Semantics, matching §2.1 of the paper exactly:
    - time is discrete; at each step the scheduler picks one alive
      process;
    - the picked process executes any amount of local computation plus
      exactly one shared-memory operation, then suspends;
    - crashed processes stop taking steps (Definition 1's crash);
    - a process whose body returns is *terminated*: it is removed from
      the alive set without counting as a crash.

    Beyond Definition 1, a {!Sched.Fault_plan.t} can additionally
    schedule *recoveries* (a crashed process restarts with a fresh
    program body over the shared memory exactly as the crash left it),
    bounded *stall* windows (the process stays alive but is not
    schedulable for [d] steps), and per-process *spurious CAS failure*
    rates (LL/SC-style: a would-succeed CAS fails with probability r).
    A plan with none of these degenerates to the paper's model and the
    run is byte-identical to one without a fault plan.

    Two entry points share these semantics and one {!Config.t}.  Both
    run through one scheduling driver; [exec_compiled] bypasses it only
    in its batched loop, where the alive set provably cannot change:

    - {!exec} runs an effect-based {!spec} (a closure body suspended
      at each shared-memory step) — maximally expressive, pays effect
      dispatch and a continuation allocation per step;
    - {!exec_compiled} runs a {!Compile.spec} (a flat int-coded
      instruction array) in a tight loop with no per-step allocation,
      and batches scheduler draws when the alive set provably cannot
      change.  For the same seed and configuration, running a program
      through [exec] (via {!Compile.to_program}) and through
      [exec_compiled] produces byte-identical {!result}s — the
      differential test suite pins this.

    Determinism: a run is a pure function of (spec, scheduler state,
    configuration), which the tests rely on. *)

type spec = {
  name : string;
  memory : Memory.t;
  program : Program.t;  (** Body run by every process. *)
}

type stop =
  | Steps of int  (** Run for exactly this many system steps. *)
  | Completions of int  (** …until this many total completions. *)
  | Per_process_completions of int
      (** …until every (never-crashed, live) process has completed
          this many operations — the maximal-progress stop used by the
          Theorem 3 experiments. *)

type result = {
  metrics : Metrics.t;
  trace : Sched.Trace.t option;
  crashed : bool array;
  terminated : bool array;
  stopped_early : bool;
      (** True when the run ended because no process was schedulable,
          a [Completions]-type target was unreachable, or the choice
          hook returned [None]. *)
  pending : Memory.op option array;
      (** Each process's next shared-memory operation at the moment
          the run stopped ([None] once its body returned).  Crashed
          processes keep the operation they were suspended at.  The
          schedule explorer uses this to compute enabled transitions
          and operation independence at a frontier. *)
  restarts : int array;
      (** How many times each process was crash-restarted by the fault
          plan (all zeros without [Restart] events). *)
  spurious_cas : int;
      (** Total would-succeed CAS steps spuriously failed by the fault
          plan's rates (0 without spurious rates). *)
}

(** Run configuration, shared by {!exec} and {!exec_compiled}.

    Build one by piping {!Config.default} through the [with_*]
    combinators:
    {[
      Executor.Config.(
        default |> with_seed 42 |> with_faults plan |> with_trace true)
    ]} *)
module Config : sig
  type t = {
    seed : int;  (** RNG seed for scheduler and per-process streams. *)
    trace : bool;  (** Record the schedule (sequence of picked ids). *)
    record_samples : bool;  (** Keep raw latency gaps, not just summaries. *)
    fault_plan : Sched.Fault_plan.t;
    max_steps : int;
        (** Safety net for [Completions]-type stop conditions that
            might never be reached under an adversarial scheduler;
            hitting it sets [stopped_early]. *)
    invariant : (Memory.t -> time:int -> unit) option;
        (** Called on the shared memory every [invariant_interval]
            steps and once after the run — raise from it to fail fast
            on a broken data-structure invariant *while it is being
            mutated*, not just at quiescence.  Must only inspect (its
            [Memory.t] is the live store). *)
    invariant_interval : int;
    choose : (alive:bool array -> time:int -> int option) option;
        (** When set, takes precedence over the scheduler at every
            step: receives the live alive set (do not mutate it) and
            the current time, and must return [Some i] with
            [alive.(i)] to schedule process [i], or [None] to stop the
            run immediately (setting [stopped_early]).  This is the
            choice-point hook that lets the `repro check` explorer
            drive every scheduling decision deterministically and stop
            at an arbitrary frontier. *)
  }

  val default : t
  (** seed [0xC0FFEE], no trace, no samples, no faults, max_steps
      2·10⁸, no invariant (interval 1000), no choice hook. *)

  val with_seed : int -> t -> t
  val with_trace : bool -> t -> t
  val with_samples : bool -> t -> t
  val with_faults : Sched.Fault_plan.t -> t -> t
  val with_max_steps : int -> t -> t

  val with_invariant :
    ?interval:int -> (Memory.t -> time:int -> unit) -> t -> t
  (** [interval] defaults to the configuration's current
      [invariant_interval]. *)

  val with_choose : (alive:bool array -> time:int -> int option) -> t -> t
end

val exec :
  ?config:Config.t ->
  scheduler:Sched.Scheduler.t ->
  n:int ->
  stop:stop ->
  spec ->
  result
(** Run an effect-based spec under [config] (default
    {!Config.default}).  Raises [Invalid_argument] on [n <= 0], an
    [invariant_interval < 1], or a fault plan that names out-of-range
    processes or permanently crashes all [n].  When every process is
    crashed or stalled but a stall expiry or a pending restart can
    make one schedulable again, the executor idles — time advances one
    tick per step with no process charged — rather than stopping
    early.  Fault events at time [t] fire before the step at time [t]
    is scheduled. *)

val exec_compiled :
  ?config:Config.t ->
  scheduler:Sched.Scheduler.t ->
  n:int ->
  stop:stop ->
  Compile.spec ->
  result
(** Like {!exec} but for a compiled instruction program, run by a
    tight dispatch loop: preallocated int-array registers and pcs, no
    per-step closure or effect, shared-memory operations inlined over
    the raw cell array.  When the configuration has no choice hook and
    no faults, the scheduler supports batched draws
    ({!Sched.Scheduler.t.fill}) and the program cannot halt, scheduler
    picks are drawn [8192] at a time — the alive set provably cannot
    change, so the stream is identical to per-step picks.  All
    semantics (fault events, stalls, spurious CAS, idle ticks,
    invariant cadence, choice hook) are exactly {!exec}'s. *)

val fingerprint : result -> string
(** Exact textual rendering of everything observable in a result —
    {!Metrics.fingerprint} plus crash/termination flags, pending
    operations, restart counts, spurious-CAS count and (when recorded)
    the full trace.  Two runs agree observationally iff their
    fingerprints are equal; the interpreter-vs-compiled differential
    suite compares these. *)
