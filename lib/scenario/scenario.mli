(** Declarative test scenarios: one value describing {e what to throw
    at which structures and how to judge the result} — structures, a
    bounded workload, schedule sources (exhaustive exploration, random
    fuzzing, chaos drills, fixed replays, load arrivals), a
    {!Sched.Fault_plan} rate spec, and a gate list — plus named
    presets ([quick]/[standard]/[century]/[chaos]) carrying fault-rate
    tiers and step budgets, a [parse]/[to_string] spec grammar in the
    style of [--faults], and a runner that executes the scenario
    through the {!Check} engines.

    `repro check` and `repro chaos` construct and execute values of
    this type (their legacy flags are thin translations); `repro
    scenario` exposes presets and the grammar directly.  A scenario is
    pure data — structures are referenced by {!Scu.Checkable} name and
    resolved at run time — so values compare structurally and the
    grammar round-trips ([parse (to_string t) = Ok t]). *)

type source =
  | Explore  (** Bounded exhaustive interleaving enumeration ({!Check.Explore}). *)
  | Fuzz
      (** Random + adversarial schedule fuzzing with shrinking
          ({!Check.Fuzz}; crash plans on, chaos pass off — fault-rate
          drills are the [Chaos] source's job). *)
  | Chaos
      (** Random schedules under fault plans instantiated from the
          scenario's [faults] rates ({!Check.Chaos}). *)
  | Replay of { schedule : int array; tail : Check.Schedule.tail }
      (** One fixed schedule replayed against every structure (under
          the scenario's explicit fault events). *)
  | Load of { clients : int; ops_per_client : int }
      (** Load-arrival workload: [clients] processes each performing
          [ops_per_client] operations under the uniform stochastic
          scheduler.  Judged by the gates when [clients *
          ops_per_client <= 62] (the checker limit); beyond that the
          invariant hook still runs every step and the history is
          reported [Unchecked]. *)

type gate = Lin | Shadow | Conform
(** [Lin] — the memoized linearizability checker; [Shadow] — the
    independent shadow-state replay ({!Linearize.Shadow}), on by
    default in every preset; [Conform] — the statistical conformance
    gates ({!Check.Conform}), run once after all sources. *)

type budget = {
  explore_nodes : int;
  explore_depth : int;
  fuzz_trials : int;  (** QCheck cases per structure. *)
  sched_trials : int;  (** Runs per adversarial scheduler. *)
  chaos_trials : int;
  long_conform : bool;  (** Conform gate budget ({!Check.Conform.long}). *)
}

type t = {
  structures : string list;  (** {!Scu.Checkable} names, resolved at run time. *)
  n : int;
  ops : int;
  seed : int;
  mix_seed : int option;
  faults : Sched.Fault_plan.spec;
  sources : source list;  (** Executed in order, each over every structure. *)
  gates : gate list;
  budget : budget;
}

(** {1 Builder} *)

val make :
  ?n:int ->
  ?ops:int ->
  ?seed:int ->
  ?mix_seed:int ->
  ?faults:Sched.Fault_plan.spec ->
  ?sources:source list ->
  ?gates:gate list ->
  ?budget:budget ->
  structures:string list ->
  unit ->
  t
(** Defaults: the [standard] preset's workload, sources, gates, rates
    and budget. *)

val with_structures : string list -> t -> t
val with_workload : n:int -> ops:int -> t -> t
val with_seed : int -> t -> t
val with_mix_seed : int option -> t -> t
val with_faults : Sched.Fault_plan.spec -> t -> t
val with_sources : source list -> t -> t
val with_gates : gate list -> t -> t
val with_budget : budget -> t -> t
(** Pipeline-style updates, [Sim.Executor.Config]-fashion. *)

(** {1 Presets}

    Four named tiers over the stock structures, rate tiers from
    {!Sched.Fault_plan.tier_rates}:

    - [quick] — explore + fuzz, fault-free, small budgets (CI push);
    - [standard] — + chaos source at the mild always-on rates;
    - [century] — large budgets, rare-event rates, + conform gate on
      the long budget (nightly);
    - [chaos] — fuzz + chaos at the heavy mixed-drill rates. *)

val quick : t
val standard : t
val century : t
val chaos : t

val presets : (string * t) list
val preset : string -> t option

(** {1 Spec grammar}

    [;]-separated [key=value] fields:
    [structures=NAME,...] (or [stock]/[all]), [n=K], [ops=K],
    [seed=K], [mix=K], [faults=SPEC] (the [--faults] grammar,
    or [none]), [sources=S,...] with [S] one of [explore], [fuzz],
    [chaos], [replay@P.P.P:stop|rr], [load@CLIENTSxOPS],
    [gates=lin|shadow|conform,...], and
    [budget=explore:NxD,fuzz:TxS,chaos:T,conform:smoke|long].
    A leading [preset=NAME] field selects the base the remaining
    fields override (default base: [standard]).  Errors are one-line
    messages naming the bad token. *)

val to_string : t -> string
(** Canonical, fully explicit (never emits [preset=]); round-trips
    through {!parse}. *)

val parse : string -> (t, string) result

val validate : t -> (unit, string) result
(** Semantic checks the grammar cannot express: positive workload,
    [n * ops <= 62] when a judged source is present, at least one
    structure and one source or gate, budget positivity, fault events
    valid for [n]. *)

(** {1 Runner} *)

type event =
  | Explore_done of {
      structure : string;
      report : Check.Explore.report;
      elapsed : float;
    }
  | Fuzz_done of {
      structure : string;
      report : Check.Fuzz.report;
      elapsed : float;
    }
  | Chaos_done of {
      structure : string;
      report : Check.Chaos.report;
      elapsed : float;
    }
  | Replay_done of { structure : string; outcome : Check.Schedule.outcome }
  | Load_done of {
      structure : string;
      completed : int;
      verdict : Check.Schedule.verdict;
      elapsed : float;
    }
  | Conform_done of { report : Check.Conform.report; elapsed : float }
  | Violation of failure
      (** Emitted as each unit of work finishes, in execution order —
          the full library reports, so callers own all formatting.
          Each failure a unit found follows that unit's [_done] event
          as one [Violation], in the order of [outcome.failures]; this
          is how `repro check`, `chaos` and `scenario` print violation
          blocks as they are found. *)

and failure = {
  structure : string;
  source : string;  (** ["explore"], ["qcheck"], ["chaos"], an adversary name, ["replay"], ["load"]. *)
  schedule : int array;
  replay : string;  (** {!Sched.Scheduler.replay_to_string} form. *)
  crash_plan : (int * int) list;
  fault_spec : string;  (** [--faults] grammar; [""] when fault-free. *)
  mix_seed : int option;
  tail : string;  (** ["stop"] or ["round-robin"]. *)
  verdict : string;
}

type outcome = {
  scenario : t;
  failures : failure list;
  gates_failed : int;  (** Failed conform gates. *)
  trials : int;  (** Fuzz + chaos trials actually run. *)
  passed : bool;  (** No failures and no failed gates. *)
}

val run : ?on_event:(event -> unit) -> ?now:(unit -> float) -> t -> outcome
(** Execute the scenario: every source in order over every structure,
    then the conform gate if listed.  [now] supplies wall-clock
    timestamps for the [elapsed] fields (default: a constant clock, so
    library results stay deterministic).  Raises [Invalid_argument]
    when {!validate} would return an error. *)
