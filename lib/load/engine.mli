(** The SCU service and its load generator.

    A run simulates a server of [workers] processes per shard serving
    the checkable structure zoo behind a request queue, hammered by
    [clients] independent client sessions multiplexed over the shards.
    Everything lives inside the discrete-step simulator: a request's
    latency is measured in *simulated steps* (arrival to completion),
    so the numbers are scheduler-model quantities — directly
    comparable to the Markov-chain predictions — and every run is a
    pure function of its configuration.

    Sharding: client [c] belongs to shard [c mod shards]; each shard
    is one independent executor run over its own memory and structure
    instances, so shards can fan out over a {!Pool.t} of domains and
    the merged result is byte-identical to the sequential one.

    Fault tolerance: [faults] instantiates a per-shard seeded
    {!Sched.Fault_plan.t} over the shard's workers (crash–recovery of
    worker slots, stall windows, spurious-CAS rates), and [policy]
    adds per-request deadlines, bounded retry with seeded backoff and
    optional hedging (see {!Policy}).  A shard keeps serving while its
    workers die and restart: a crashed worker's in-flight request is
    redelivered on restart (or rescued outright once the plan shows
    the worker is permanently dead), and every offered request
    resolves to exactly one {!Policy.outcome}.  All of it is a pure
    function of the config — same seed, same bytes.  Every shard runs
    the same dispatch loop; its fault-tolerant bookkeeping costs no
    simulated step and draws no randomness, so a config with no faults
    and an inert policy takes exactly the steps a plain dispatch loop
    would.  A base plan that
    permanently crashes every worker (a total outage) is accepted:
    each shard degrades to an all-dropped, stopped-early result
    instead of running. *)

type kind = Counter | Treiber | Msqueue | Elimination | Waitfree

val all_kinds : kind list

val kind_name : kind -> string
(** [counter], [treiber], [msqueue], [elimination-stack],
    [waitfree-counter] — the {!Scu.Checkable} names. *)

val kind_of_name : string -> (kind, string) result

type config = {
  kinds : kind list;  (** Structure zoo; clients round-robin over it. *)
  objects : int;  (** Instances per kind per shard (Zipf keyspace). *)
  clients : int;  (** Total client sessions across all shards. *)
  ops_per_client : int;  (** Requests per session. *)
  workers : int;  (** Server processes per shard. *)
  shards : int;
  mode : Workload.mode;
  alpha : float;  (** Zipf popularity exponent over the objects. *)
  seed : int;
  max_steps : int;  (** Per-shard safety net (sets [stopped_early]). *)
  faults : Sched.Fault_plan.spec;
      (** Instantiated per shard (seeded by [(seed, shard)]) over the
          shard's [workers]. *)
  policy : Policy.t;  (** Request deadline/retry/hedge policy. *)
}

val default : config
(** counter only, 64 objects, 10_000 clients x 1 op, 8 workers x 8
    shards, closed loop with zero think time, alpha 1.1, seed 0, no
    faults, inert policy. *)

val no_faults : Sched.Fault_plan.spec

val is_robust : config -> bool
(** True when the config has faults or an active policy.  It selects
    only what a report shows — the schema-2 manifest fields (outcome
    taxonomy, injected faults, error budget); every config runs the
    same dispatch loop. *)

val validate : config -> (unit, string) result

val shard_plan : config -> shard:int -> total:int -> Sched.Fault_plan.t
(** The concrete fault plan shard [shard] runs under when it carries
    [total] requests — [faults] instantiated with the shard's seed
    over a horizon proportional to its workload.  Exposed so tests and
    the degradation gates can inspect exactly what the engine will
    inject. *)

type shard_result = {
  shard : int;
  requests : int;  (** Requests completed by this shard. *)
  offered : int;  (** Requests offered to this shard. *)
  steps : int;  (** Simulated steps the shard ran. *)
  max_queue_depth : int;  (** High-water mark of the ready queue. *)
  stopped_early : bool;  (** Hit [max_steps] before finishing. *)
  latency : Stats.Hdr.t;  (** Arrival to completion, steps. *)
  service : Stats.Hdr.t;  (** Dispatch to completion, steps. *)
  queue_wait : Stats.Hdr.t;  (** Arrival to dispatch, steps. *)
  per_kind : (kind * Stats.Hdr.t) list;  (** Latency by structure. *)
  outcomes : Policy.counts;
      (** Request-outcome taxonomy; [ok = requests] and all else zero
          without faults or policy (minus any [dropped] cut off by
          [max_steps]). *)
  restarts : int;  (** Worker crash-restarts executed by the plan. *)
  spurious_cas : int;  (** Spuriously failed CAS steps. *)
}

type result = {
  config : config;
  shards : shard_result list;  (** In shard order. *)
  requests : int;
  offered : int;
  steps_total : int;  (** Sum over shards (serial step budget). *)
  steps_max : int;  (** Slowest shard (parallel completion time). *)
  stopped_early : bool;
  latency : Stats.Hdr.t;
  service : Stats.Hdr.t;
  queue_wait : Stats.Hdr.t;
  per_kind : (kind * Stats.Hdr.t) list;
  outcomes : Policy.counts;
  restarts : int;
  spurious_cas : int;
}

val stopped_shards : result -> int list
(** Ids of the shards that hit [max_steps], in shard order. *)

val run_shard : config -> shard:int -> shard_result
(** One shard's simulation — a pure function of [(config, shard)]. *)

val run : ?pool:Pool.t -> config -> result
(** All shards, fanned over [pool] when given (the result does not
    depend on the pool's size), merged in shard order. *)
