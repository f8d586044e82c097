(** Deterministic schedule replay and verdicts — the shared substrate
    of the explorer ({!Explore}) and the fuzzer ({!Fuzz}).

    A schedule is an [int array] of process indices consumed one entry
    per system step.  Entries naming a crashed/terminated/out-of-range
    process are normalized to the next runnable process in cyclic
    order, so every int array is a valid schedule: shrinkers and
    generators never maintain validity invariants.  The *effective*
    schedule actually executed is returned in [executed] and is
    replayable byte-for-byte ({!Sched.Scheduler.replay_to_string}). *)

type tail =
  | Stop  (** Stop at the end of the schedule (explorer frontier). *)
  | Round_robin
      (** Run on to completion round-robin — the deterministic tail
          that turns a fuzzed prefix into a complete, fully checkable
          history. *)

type gates = { lin : bool; shadow : bool }
(** Which judges run on a completed (or soundly partial) history:
    [lin] is the memoized Wing–Gong checker, [shadow] the independent
    window-replay implementation ({!Linearize.Shadow}).  The checker
    runs first, so a {!verdict.Shadow_divergence} always means the two
    implementations disagreed. *)

val default_gates : gates
(** [{ lin = true; shadow = false }] — the historical behaviour; the
    scenario layer turns [shadow] on by default. *)

type verdict =
  | Linearizable
  | Unchecked
      (** An in-flight take/incr at the stopping point makes the
          partial history unjudgeable (its unknown result could
          constrain the rest); never reported as a failure. *)
  | Nonlinearizable of
      (Scu.Checkable.op, Scu.Checkable.res) Linearize.Checker.event list
      (** The offending history (completed operations plus open-window
          in-flight adds). *)
  | Shadow_divergence of
      (Scu.Checkable.op, Scu.Checkable.res) Linearize.Checker.event list
      (** The shadow replay found no spec-consistent order for this
          quiescent window even though the primary checker (if
          enabled) accepted the history — a differential failure of
          one of the two judges. *)
  | Invariant_violation of string
      (** The structure's invariant hook raised mid-run. *)

type outcome = {
  verdict : verdict;
  executed : int array;  (** Effective schedule (normalized picks). *)
  enabled : bool array;
      (** Processes with a pending operation that are not crashed —
          the explorer's branching set at this frontier. *)
  pending : Sim.Memory.op option array;
      (** Each process's next shared-memory operation (for
          independence analysis). *)
  state : int array;  (** Memory snapshot at the stopping point. *)
  completed : int array;  (** Completed operations per process. *)
  terminal : bool;  (** No process can take another step. *)
}

val run :
  ?fault_plan:Sched.Fault_plan.t ->
  ?gates:gates ->
  ?mix_seed:int ->
  structure:Scu.Checkable.t ->
  n:int ->
  ops:int ->
  tail:tail ->
  int array ->
  outcome
(** Replay one schedule against a fresh instance.  Runs the
    structure's invariant hook every step.  Raises [Invalid_argument]
    when [n * ops > 62] (the linearizability checker's limit).

    [fault_plan] adds crashes, crash–recovery, stalls, and spurious
    CAS failures; crash-only schedules use
    {!Sched.Fault_plan.of_crash_events}.  The step budget is stretched
    to cover restart re-runs, stall windows, and bounded retry chains,
    so fault runs with a [Round_robin] tail still drive every surviving
    process to completion. *)

val verdict_of : ?gates:gates -> Scu.Checkable.instance -> verdict
(** Judge an instance in whatever state its run left it: the completed
    history plus the sound partial-history rule (in-flight adds get an
    open response window — placeable last, never a false alarm;
    in-flight takes/incrs make the history [Unchecked]).  A *marked*
    in-flight operation — one the structure recorded as already
    linearized with a known result ({!Scu.Checkable.instance.marked})
    — is included with that result instead, whatever its kind. *)

val is_bad : verdict -> bool
(** True for [Nonlinearizable], [Shadow_divergence], and
    [Invariant_violation]. *)

val verdict_to_string : verdict -> string

val ddmin : fails:('a array -> bool) -> 'a array -> 'a array
(** Greedy delta-debugging on arrays: removes ever-smaller chunks
    while [fails] holds.  The result still satisfies [fails] and is
    1-minimal up to the greedy strategy.  Polymorphic: schedules are
    [int array]s, the chaos harness also shrinks fault-event arrays. *)

val shrink :
  ?fault_plan:Sched.Fault_plan.t ->
  ?gates:gates ->
  ?mix_seed:int ->
  structure:Scu.Checkable.t ->
  n:int ->
  ops:int ->
  tail:tail ->
  int array ->
  int array
(** [ddmin] specialized to "replaying this schedule still yields a bad
    verdict".  Returns the input unchanged if it does not fail. *)
